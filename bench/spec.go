package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec mirrors BENCHMARK.json, the contract file at the repo root. The
// runner reads metric names and units from it, so a metric cannot be
// emitted under a name or unit the contract does not declare.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(root string) (*spec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func (s *spec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// value is one emitted metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects one run's metrics against the declared list:
// either every end-to-end metric (timed run) or every per-layer metric
// (traced run).
type metricSet struct {
	units    map[string]string
	vals     map[string]float64
	measured map[string]bool // names set so far: each metric is emitted once
	errs     []string
}

// newMetricSet declares defs. With zeroFill every metric starts at 0:
// a traced run reports every layer, and a layer the workload does not
// enter did no work.
func newMetricSet(defs []metricDef, zeroFill bool) *metricSet {
	m := &metricSet{units: make(map[string]string), vals: make(map[string]float64), measured: make(map[string]bool)}
	for _, d := range defs {
		m.units[d.Name] = d.Unit
		if zeroFill {
			m.vals[d.Name] = 0
		}
	}
	return m
}

// set records a value; an undeclared name, a second value for the same
// name or a non-finite value is an error reported by finish.
func (m *metricSet) set(name string, v float64) {
	if _, ok := m.units[name]; !ok {
		m.errs = append(m.errs, fmt.Sprintf("metric %q is not declared in BENCHMARK.json", name))
		return
	}
	if m.measured[name] {
		m.errs = append(m.errs, fmt.Sprintf("metric %q was measured twice", name))
		return
	}
	m.measured[name] = true
	if math.IsNaN(v) || math.IsInf(v, 0) {
		m.errs = append(m.errs, fmt.Sprintf("metric %q is not finite (%v)", name, v))
		return
	}
	m.vals[name] = v
}

// finish returns the metrics, or an error naming what was undeclared,
// non-finite or never set.
func (m *metricSet) finish() (map[string]value, error) {
	for name := range m.units {
		if _, ok := m.vals[name]; !ok {
			m.errs = append(m.errs, fmt.Sprintf("metric %q was not measured", name))
		}
	}
	if len(m.errs) > 0 {
		sort.Strings(m.errs)
		return nil, fmt.Errorf("%d metric errors: %v", len(m.errs), m.errs)
	}
	out := make(map[string]value, len(m.vals))
	for name, v := range m.vals {
		out[name] = value{Value: v, Unit: m.units[name]}
	}
	return out, nil
}
