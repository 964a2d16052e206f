package chaos

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"

	"mntp/internal/population"
)

// requireReplay holds a promoted scenario to its bytes, the way
// population's TestSimScenariosReplay holds herd and falseticker: two
// runs marshal alike, and to the report in testdata/ that the commit
// before the options census produced. Regenerate a file from a
// failing run's output only after an intended change of behaviour.
func requireReplay(t *testing.T, file string, run func() (*population.Report, error)) *population.Report {
	t.Helper()
	var r *population.Report
	marshal := func() []byte {
		var err error
		if r, err = run(); err != nil {
			t.Fatal(err)
		}
		out, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return append(out, '\n')
	}
	first, again := marshal(), marshal()
	if !bytes.Equal(first, again) {
		t.Errorf("two runs differ:\n%s\n%s", first, again)
	}
	want, err := os.ReadFile("testdata/" + file)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, want) {
		t.Errorf("report differs from testdata/%s:\n got %s\nwant %s", file, first, want)
	}
	return r
}

// TestPopulationBlackout promotes the single-client blackout scenario
// to a 2k-client fleet: everyone loses the network for 3 poll rounds
// and everyone must be served and re-converged by the horizon.
func TestPopulationBlackout(t *testing.T) {
	r := requireReplay(t, "population_blackout_seed9.json", func() (*population.Report, error) {
		return PopulationBlackout(2000, 9,
			Window{From: 5 * 64 * time.Second, To: 8 * 64 * time.Second},
			14*64*time.Second)
	})
	if !r.Pass {
		t.Fatalf("population blackout violations: %v", r.Violations)
	}
	if r.Fails == 0 {
		t.Fatal("report lost the failure count")
	}
}

// TestPopulationFalsetickerFlip promotes the falseticker scenario: an
// honest upstream lies by 400ms for 3 rounds; its captives show in
// the population tail mid-window, the median never moves, and the
// fleet re-converges after the flip-back.
func TestPopulationFalsetickerFlip(t *testing.T) {
	r := requireReplay(t, "population_falseticker_flip_seed9.json", func() (*population.Report, error) {
		return PopulationFalsetickerFlip(4000, 9,
			Window{From: 5 * 64 * time.Second, To: 8 * 64 * time.Second},
			14*64*time.Second)
	})
	if !r.Pass {
		t.Fatalf("population falseticker-flip violations: %v", r.Violations)
	}
}
