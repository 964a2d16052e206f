package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one traced interval. Spans of one request share ID; Parent
// names the enclosing span of the same ID ("" for a root).
type span struct {
	Name    string `json:"name"`
	ID      uint64 `json:"id"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so the timed runs pay one nil check per call site.
// Not safe for concurrent use: every traced pass is single-threaded.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// timed runs fn and returns how long it took.
func timed(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// span times fn as a span and returns its duration.
func (t *tracer) span(name, parent string, id uint64, fn func()) time.Duration {
	if t == nil {
		return timed(fn)
	}
	start := time.Since(t.t0)
	fn()
	end := time.Since(t.t0)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, StartNs: int64(start), EndNs: int64(end)})
	return end - start
}

// add records an interval measured by the caller.
func (t *tracer) add(name, parent string, id uint64, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent,
		StartNs: int64(start.Sub(t.t0)), EndNs: int64(end.Sub(t.t0))})
}

// selfTimes returns, per span name, each span's duration minus the
// part of it its direct children (same ID, Parent == its name) cover.
// Overlapping children are merged before subtracting, and children are
// clipped to the parent's interval.
func selfTimes(spans []span) map[string][]time.Duration {
	type key struct {
		id     uint64
		parent string
	}
	children := make(map[key][]span)
	for _, s := range spans {
		if s.Parent != "" {
			k := key{s.ID, s.Parent}
			children[k] = append(children[k], s)
		}
	}
	out := make(map[string][]time.Duration)
	for _, s := range spans {
		kids := children[key{s.ID, s.Name}]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, edge), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.Name] = append(out[s.Name], time.Duration(s.EndNs-s.StartNs-covered))
	}
	return out
}

// medianSelfUs is the median self time of the named span, in µs (0
// when the span never occurred).
func medianSelfUs(self map[string][]time.Duration, name string) float64 {
	ds := self[name]
	if len(ds) == 0 {
		return 0
	}
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / 1e3
	}
	return median(xs)
}

func (t *tracer) write(path, workload string, seed int64) error {
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
