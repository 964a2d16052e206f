package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"
)

// paperSuite is the 16 client-side experiments the repo benchmark's
// paper_sim workload runs, in its order.
var paperSuite = []func(Options) Outcome{
	Figure3, Figure4, Figure5, Figure6, Figure7, Figure8, Figure9, Figure10,
	Figure11, Figure12, Table2,
	ExtensionEnergy, ExtensionNITZ, ExtensionSelfTune, ExtensionRTSCTS, ExtensionNTPComparison,
}

// suiteMetrics is experiment id → metric name → measured value.
type suiteMetrics map[string]map[string]float64

// runPaperSuite runs the suite in full mode at one seed.
func runPaperSuite(seed int64) suiteMetrics {
	got := make(suiteMetrics, len(paperSuite))
	for _, run := range paperSuite {
		o := run(Options{Seed: seed})
		vals := make(map[string]float64, len(o.Metrics))
		for _, m := range o.Metrics {
			vals[m.Name] = m.Measured
		}
		got[o.ID] = vals
	}
	return got
}

// diffSuite reports every value of got that differs from want: exact
// on the architecture that wrote want, relative 1e-9 elsewhere (fused
// multiply-add may move the last bits).
func diffSuite(t *testing.T, label string, want, got suiteMetrics, exact bool) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: reference holds %d experiments, the suite has %d", label, len(want), len(got))
	}
	for id, vals := range got {
		w, ok := want[id]
		if !ok {
			t.Errorf("%s %s: not in the reference file", label, id)
			continue
		}
		if len(vals) != len(w) {
			t.Errorf("%s %s: %d metrics, reference has %d", label, id, len(vals), len(w))
		}
		for name, g := range vals {
			wv, ok := w[name]
			switch {
			case !ok:
				t.Errorf("%s %s %q: not in the reference file", label, id, name)
			case wv == g:
			case exact || math.Abs(wv-g) > 1e-9*math.Max(math.Abs(wv), math.Abs(g)):
				t.Errorf("%s %s %q: reference %v, got %v", label, id, name, wv, g)
			}
		}
	}
}

// TestPaperSuiteMatchesGolden runs the 16 client-side experiments in
// full mode at the seed of bench/golden/paper_sim.json and compares
// every metric with that file, as the benchmark runner does before it
// times anything. Every value comes out of a seeded simulation, so any
// reordering of events or of random draws below this package shows
// here. The file is only read; `bash bench/run.sh -update-golden`
// rewrites it after an intended change of behaviour.
func TestPaperSuiteMatchesGolden(t *testing.T) {
	raw, err := os.ReadFile("../../bench/golden/paper_sim.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		GoArch string       `json:"goarch"`
		Seed   int64        `json:"seed"`
		Paper  suiteMetrics `json:"paper_sim"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	diffSuite(t, "golden", golden.Paper, runPaperSuite(golden.Seed), golden.GoArch == runtime.GOARCH)
}

var updateSuiteSeeds = flag.Bool("update-suite-seeds", false,
	"rewrite testdata/suite_seeds.json from the code under test (only after an intended change of behaviour)")

// TestPaperSuiteSeedsMatchParent holds the suite to the outputs the
// commit before the O(1) residual gate printed, at seeds the golden
// does not cover: one seed can miss an accept/reject decision that a
// last-ulp difference in a gate flips, eight are eight more chances to
// see it.
func TestPaperSuiteSeedsMatchParent(t *testing.T) {
	if raceEnabled {
		t.Skip("eight more suites cost the race leg 15 s and exercise no goroutine the golden seed does not")
	}
	const path = "testdata/suite_seeds.json"
	type fixture struct {
		GoArch string                  `json:"goarch"`
		Seeds  map[string]suiteMetrics `json:"seeds"`
	}
	if *updateSuiteSeeds {
		fx := fixture{GoArch: runtime.GOARCH, Seeds: map[string]suiteMetrics{}}
		for seed := int64(1); seed <= 8; seed++ {
			fx.Seeds[fmt.Sprint(seed)] = runPaperSuite(seed)
		}
		b, err := json.MarshalIndent(fx, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var fx fixture
	if err := json.Unmarshal(raw, &fx); err != nil {
		t.Fatal(err)
	}
	if len(fx.Seeds) != 8 {
		t.Fatalf("fixture holds %d seeds, want 8", len(fx.Seeds))
	}
	for seed := int64(1); seed <= 8; seed++ {
		label := fmt.Sprint("seed ", seed)
		diffSuite(t, label, fx.Seeds[fmt.Sprint(seed)], runPaperSuite(seed), fx.GoArch == runtime.GOARCH)
	}
}

// TestPaperSuiteAllocationBudget holds one seed's 16 experiments to
// 60 000 heap objects and 25 MB (295 870 and 51.8 MB before simulated
// exchanges, rounds and tuner replays stopped producing garbage; ≈ 35 000
// and 18.6 MB after). One allocation per exchange is ≈ 50 000 objects a
// suite, so any of them creeping back in trips it.
func TestPaperSuiteAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runPaperSuite(1)
	runtime.ReadMemStats(&after)
	objects, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("one suite: %d objects, %.1f MB", objects, float64(bytes)/1e6)
	if objects > 60_000 || bytes > 25e6 {
		t.Errorf("one suite allocated %d objects and %.1f MB, budget 60000 and 25 MB", objects, float64(bytes)/1e6)
	}
}
