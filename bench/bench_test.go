package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its argument in place")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing should be NaN")
	}
}

// TestUndisturbed: a floor plus a slow tail reads as the floor, on
// whichever side is better.
func TestUndisturbed(t *testing.T) {
	times := []float64{10, 14, 10, 13, 15, 10, 12, 19, 16, 10, 17} // seven of eleven disturbed: the median reads 13
	if got := undisturbed(times, "lower"); got != 10 {
		t.Errorf("undisturbed time = %v, want the floor 10", got)
	}
	rates := []float64{100, 70, 80, 100, 65, 60, 90, 100, 75, 85, 100}
	if got := undisturbed(rates, "higher"); got != 100 {
		t.Errorf("undisturbed rate = %v, want the ceiling 100", got)
	}
}

// TestIQRShare pins the spread statistic to the contract's definition:
// Python's statistics.quantiles(values, n=4), exclusive method.
func TestIQRShare(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := iqrShare(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
	if got := iqrShare([]float64{3, 3, 3, 3}); got != 0 {
		t.Errorf("iqrShare of a constant = %v, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "request", ID: 1, StartNs: 0, EndNs: 100},
		{Name: "a", ID: 1, Parent: "request", StartNs: 10, EndNs: 30},
		{Name: "b", ID: 1, Parent: "request", StartNs: 20, EndNs: 50},    // overlaps a by 10
		{Name: "c", ID: 1, Parent: "request", StartNs: 90, EndNs: 120},   // clipped to the parent's end
		{Name: "a", ID: 2, Parent: "request", StartNs: 10, EndNs: 30},    // another request's child
		{Name: "deep", ID: 1, Parent: "b", StartNs: 25, EndNs: 45},       // a grandchild counts against b only
		{Name: "request", ID: 2, StartNs: 0, EndNs: 40},                  // children: a (20)
		{Name: "request", ID: 3, StartNs: 1000, EndNs: 1010},             // no children
		{Name: "orphan", ID: 9, Parent: "nothing", StartNs: 0, EndNs: 7}, // parent never recorded
	}
	self := selfTimes(spans)
	want := map[string][]time.Duration{
		"request": {100 - 40 - 10, 20, 10}, // covered: [10,50) and [90,100)
		"a":       {20, 20},
		"b":       {10},
		"c":       {30},
		"deep":    {20},
		"orphan":  {7},
	}
	for name, w := range want {
		got := self[name]
		if len(got) != len(w) {
			t.Errorf("%s: %d self times, want %d", name, len(got), len(w))
			continue
		}
		for i := range w {
			if got[i] != w[i] {
				t.Errorf("%s[%d] self = %v, want %v", name, i, got[i], w[i])
			}
		}
	}
	if got := medianSelfUs(self, "absent"); got != 0 {
		t.Errorf("median self time of an absent span = %v, want 0", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "lat", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "tput", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		def          metricDef
		a, b, spread float64
		want         string
	}{
		{lower, 100, 109, 0.02, "ok"},
		{lower, 100, 111, 0.02, "worse"},
		{lower, 100, 50, 0.02, "ok"},
		{higher, 100, 91, 0.02, "ok"},
		{higher, 100, 89, 0.02, "worse"},
		{higher, 100, 200, 0.02, "ok"},
		{lower, 100, 150, 0.12, "unresolved"}, // recorded spread wider than the bound
	} {
		if got := verdict(c.def, c.a, c.b, c.spread); got != c.want {
			t.Errorf("verdict(%s, %v→%v, spread %v) = %s, want %s", c.def.Better, c.a, c.b, c.spread, got, c.want)
		}
	}
}

func TestMetricSet(t *testing.T) {
	defs := []metricDef{{Name: "a", Unit: "us"}, {Name: "b", Unit: "count"}}
	ms := newMetricSet(defs, false)
	ms.set("a", 1.5)
	if _, err := ms.finish(); err == nil {
		t.Error("finish accepted a set with b never measured")
	}
	ms = newMetricSet(defs, false)
	ms.set("a", 1)
	ms.set("b", 2)
	ms.set("c", 3)
	if _, err := ms.finish(); err == nil {
		t.Error("finish accepted undeclared metric c")
	}
	ms = newMetricSet(defs, true)
	ms.set("a", 1)
	ms.set("a", 2)
	if _, err := ms.finish(); err == nil {
		t.Error("finish accepted a metric measured twice")
	}
	ms = newMetricSet(defs, true)
	ms.set("a", math.Inf(1))
	if _, err := ms.finish(); err == nil {
		t.Error("finish accepted a non-finite value")
	}
	ms = newMetricSet(defs, true)
	ms.set("a", 4)
	got, err := ms.finish()
	if err != nil {
		t.Fatal(err)
	}
	if got["a"] != (value{4, "us"}) || got["b"] != (value{0, "count"}) {
		t.Errorf("zero-filled set = %v", got)
	}
}

// TestSpecWellFormed holds BENCHMARK.json to the limits the benchmark
// contract states, so a bad edit fails here and not in the driver.
func TestSpecWellFormed(t *testing.T) {
	sp, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(sp.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", sp.RunSeconds)
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	name := func(s string) {
		if !nameRE.MatchString(s) {
			t.Errorf("name %q does not match %s", s, nameRE)
		}
		if seen[s] {
			t.Errorf("name %q used twice", s)
		}
		seen[s] = true
	}
	for _, w := range sp.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len([]rune(w.Why)) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len([]rune(w.Why)))
		}
	}
	haveSetup := false
	for _, m := range sp.EndToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			haveSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !haveSetup {
		t.Error("no end-to-end metric setup_s with unit s, better lower")
	}
	for _, m := range append(sp.PerLayer, sp.EndToEnd...) {
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if len(m.Unit) == 0 || len(m.Unit) > 16 {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
	}
	for _, m := range sp.PerLayer {
		name(m.Name)
		if m.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
}

// TestSmoke runs every workload, timed and traced, at tiny sizes
// through the same entry point the driver uses, and checks the printed
// result: exactly the declared metrics, each once, with its declared
// unit and a finite value. run() itself refuses undeclared, unmeasured
// and non-finite metrics, so the assertions here guard the guard.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke pass spawns servers and runs load; skipped in -short")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	// One server build for all serving workloads.
	bin := filepath.Join(t.TempDir(), "ntpserver")
	if _, err := buildServer(root, bin); err != nil {
		t.Fatal(err)
	}
	for _, w := range sp.Workloads {
		for _, traced := range []bool{false, true} {
			name, defs := w.Name+"/timed", sp.EndToEnd
			if traced {
				name, defs = w.Name+"/traced", sp.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				e := &env{root: root, tmpDir: t.TempDir(), outDir: t.TempDir(), serverBin: bin, spec: sp,
					workload: w.Name, seed: 7, window: time.Second, smoke: true, setupRepeats: 1}
				res, err := runWorkload(e, traced)
				stopAllChildren()
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct {
					t.Error("run reported incorrect outputs")
				}
				if res.Attempted < 1 {
					t.Errorf("attempted = %d", res.Attempted)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("declared metric %s not emitted", d.Name)
					case v.Unit != d.Unit:
						t.Errorf("%s: unit %q, declared %q", d.Name, v.Unit, d.Unit)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
						t.Errorf("%s: value %v", d.Name, v.Value)
					case !traced && v.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, v.Value)
					}
				}
				// The raw output must be what compare reads back.
				file := w.Name + ".json"
				if traced {
					file = w.Name + ".layers.json"
				}
				b, err := os.ReadFile(filepath.Join(e.outDir, file))
				if err != nil {
					t.Fatal(err)
				}
				var doc struct {
					Host   map[string]any
					Seed   int64
					Result result
				}
				if err := json.Unmarshal(b, &doc); err != nil {
					t.Fatal(err)
				}
				if doc.Seed != 7 || doc.Host["go"] == nil || len(doc.Result.Metrics) != len(defs) {
					t.Errorf("raw output incomplete: seed %d, host %v, %d metrics", doc.Seed, doc.Host, len(doc.Result.Metrics))
				}
				if traced {
					if _, err := os.Stat(filepath.Join(e.outDir, w.Name+".trace.json")); err != nil {
						t.Errorf("traced run wrote no span file: %v", err)
					}
				} else if set, err := loadRunSet(e.outDir); err != nil || len(set[w.Name]) != len(defs) {
					t.Errorf("compare cannot read the timed run back: %v, %d metrics", err, len(set[w.Name]))
				}
			})
		}
	}
}
