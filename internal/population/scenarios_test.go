package population

import (
	"testing"
)

func requirePass(t *testing.T, r *Report, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s: n=%d sent=%d served=%d rated=%d fails=%d servedClients=%d maxDry=%d "+
		"peakLocked=%.1f peakJit=%.1f median=%.2fms p99=%.2fms frac>100ms=%.3f",
		r.Scenario, r.N, r.Sent, r.Served, r.Rated, r.Fails, r.ServedClients, r.MaxDryStreak,
		r.PeakToMeanLocked, r.PeakToMeanJittered, r.MedianOffsetMS, r.P99OffsetMS,
		r.FracAbove100MS)
	if !r.Pass {
		t.Fatalf("scenario %s violations: %v", r.Scenario, r.Violations)
	}
}

// TestHerdScenario: poll-interval phase-locking forms a thundering
// herd; the seeded jitter satellite breaks it.
func TestHerdScenario(t *testing.T) {
	if raceEnabled {
		t.Skip("herd scenario skipped under -race (TestSimScenariosReplay keeps the small rows)")
	}
	r, err := Run(ScenarioHerd, 0, 1)
	requirePass(t, r, err)
}

// TestFalsetickerScenario: a 400ms liar visible to 20% of the
// population (with only one honest peer beside it) wrecks its
// captives but cannot move the population median.
func TestFalsetickerScenario(t *testing.T) {
	if raceEnabled {
		t.Skip("falseticker scenario skipped under -race (TestSimScenariosReplay keeps the small rows)")
	}
	r, err := Run(ScenarioFalseticker, 0, 1)
	requirePass(t, r, err)
}
