package chaos

import (
	"testing"
	"time"

	"mntp/internal/netsim"
	"mntp/internal/trend"
)

// TestScenarios runs every named chaos scenario under each trend
// estimator (the ISSUE's bake-off: least squares, Theil-Sen, LAD) and
// enforces both the universal invariant (no step beyond the panic
// threshold after warm-up, outside explicitly allowed recovery
// windows) and each scenario's own acceptance checks — including the
// ≤ 25 ms re-convergence bound — for every combination. Virtual time
// keeps the whole 7×3 grid cheap enough for CI under -race.
func TestScenarios(t *testing.T) {
	for _, kind := range trend.Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			for _, sc := range scenarios() {
				sc := sc
				sc.Estimator = kind
				t.Run(sc.Name, func(t *testing.T) {
					t.Parallel()
					r := run(sc)
					for _, v := range r.violations() {
						t.Error(v)
					}
					if t.Failed() {
						t.Logf("final offset %v, state %s, events %v, %d steps",
							r.Final, r.FinalState, r.Counts, len(r.Steps))
					}
				})
			}
		})
	}
}

// TestGateImpairments pins the Gate's semantics in isolation.
func TestGateImpairments(t *testing.T) {
	inner := netsim.FuncPath(func(time.Duration, netsim.Direction) (time.Duration, bool) {
		return 10 * time.Millisecond, false
	})
	g := newGate(inner)

	if d, lost := g.SampleOneWay(0, netsim.Uplink); lost || d != 10*time.Millisecond {
		t.Fatalf("transparent gate: %v %v", d, lost)
	}
	g.setDown(true)
	if _, lost := g.SampleOneWay(0, netsim.Uplink); !lost {
		t.Fatal("down gate must lose packets")
	}
	g.setDown(false)
	g.setExtra(40*time.Millisecond, 5*time.Millisecond)
	if d, _ := g.SampleOneWay(0, netsim.Uplink); d != 50*time.Millisecond {
		t.Fatalf("uplink extra: %v", d)
	}
	if d, _ := g.SampleOneWay(0, netsim.Downlink); d != 15*time.Millisecond {
		t.Fatalf("downlink extra: %v", d)
	}
}
