package experiments

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"
)

// TestPaperSuiteMatchesGolden runs the 16 client-side experiments in
// full mode at the seed of bench/golden/paper_sim.json and compares
// every metric with that file, as the benchmark runner does before it
// times anything: exact on the architecture that wrote the file,
// relative 1e-9 elsewhere (fused multiply-add may move the last bits).
// Every value comes out of a seeded simulation, so any reordering of
// events or of random draws below this package shows here. The file is
// only read; `bash bench/run.sh -update-golden` rewrites it after an
// intended change of behaviour.
func TestPaperSuiteMatchesGolden(t *testing.T) {
	raw, err := os.ReadFile("../../bench/golden/paper_sim.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		GoArch string                        `json:"goarch"`
		Seed   int64                         `json:"seed"`
		Paper  map[string]map[string]float64 `json:"paper_sim"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	exact := golden.GoArch == runtime.GOARCH

	suite := []func(Options) Outcome{
		Figure3, Figure4, Figure5, Figure6, Figure7, Figure8, Figure9, Figure10,
		Figure11, Figure12, Table2,
		ExtensionEnergy, ExtensionNITZ, ExtensionSelfTune, ExtensionRTSCTS, ExtensionNTPComparison,
	}
	if len(golden.Paper) != len(suite) {
		t.Fatalf("golden file holds %d experiments, the suite has %d", len(golden.Paper), len(suite))
	}
	for _, run := range suite {
		o := run(Options{Seed: golden.Seed})
		want, ok := golden.Paper[o.ID]
		if !ok {
			t.Errorf("%s: not in the golden file", o.ID)
			continue
		}
		if len(o.Metrics) != len(want) {
			t.Errorf("%s: %d metrics, golden has %d", o.ID, len(o.Metrics), len(want))
		}
		for _, m := range o.Metrics {
			w, ok := want[m.Name]
			switch {
			case !ok:
				t.Errorf("%s %q: not in the golden file", o.ID, m.Name)
			case w == m.Measured:
			case exact || math.Abs(w-m.Measured) > 1e-9*math.Max(math.Abs(w), math.Abs(m.Measured)):
				t.Errorf("%s %q: golden %v, got %v", o.ID, m.Name, w, m.Measured)
			}
		}
	}
}
