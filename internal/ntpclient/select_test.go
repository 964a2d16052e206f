package ntpclient

import (
	"testing"
	"time"

	"mntp/internal/exchange"
)

// cand builds a candidate with the given offset and root-distance
// contributions (delay only; root fields zero).
func cand(server string, offsetMs, delayMs float64) candidate {
	return candidate{
		Server: server,
		Sample: exchange.Sample{
			Server: server,
			Offset: time.Duration(offsetMs * float64(time.Millisecond)),
			Delay:  time.Duration(delayMs * float64(time.Millisecond)),
		},
		Jitter: time.Millisecond,
	}
}

func names(cs []candidate) map[string]bool {
	m := make(map[string]bool, len(cs))
	for _, c := range cs {
		m[c.Server] = true
	}
	return m
}

func TestSelectEmptyAndSingle(t *testing.T) {
	if got := selectSurvivors(nil); got != nil {
		t.Errorf("empty select = %v", got)
	}
	one := []candidate{cand("a", 5, 10)}
	if got := selectSurvivors(one); len(got) != 1 || got[0].Server != "a" {
		t.Errorf("single select = %v", got)
	}
}

func TestSelectRejectsFalseTicker(t *testing.T) {
	// Three servers agree near 0; one is 500 ms off with a tight
	// interval: a classic falseticker.
	cands := []candidate{
		cand("good1", 1, 20),
		cand("good2", -2, 24),
		cand("good3", 3, 30),
		cand("false", 500, 10),
	}
	surv := selectSurvivors(cands)
	got := names(surv)
	if !got["good1"] || !got["good2"] || !got["good3"] {
		t.Errorf("good servers pruned: %v", got)
	}
	if got["false"] {
		t.Error("falseticker survived selection")
	}
}

func TestSelectAllAgreeing(t *testing.T) {
	cands := []candidate{
		cand("a", 1, 20), cand("b", 2, 20), cand("c", 0, 20),
	}
	if surv := selectSurvivors(cands); len(surv) != 3 {
		t.Errorf("survivors = %d, want 3", len(surv))
	}
}

func TestSelectNoConsensus(t *testing.T) {
	// Two servers, disjoint tight intervals, mutually exclusive: no
	// majority clique of size 2; with m=2 only allow=0 is tried.
	cands := []candidate{
		cand("a", 0, 2),
		cand("b", 1000, 2),
	}
	if surv := selectSurvivors(cands); surv != nil {
		t.Errorf("disjoint pair produced survivors: %v", names(surv))
	}
}

func TestSelectMajorityOfFive(t *testing.T) {
	cands := []candidate{
		cand("g1", 0, 30), cand("g2", 5, 30), cand("g3", -5, 30),
		cand("f1", 800, 6), cand("f2", -900, 6),
	}
	surv := selectSurvivors(cands)
	got := names(surv)
	if len(surv) != 3 || !got["g1"] || !got["g2"] || !got["g3"] {
		t.Errorf("survivors = %v, want the three agreeing servers", got)
	}
}

func TestClusterPrunesOutlier(t *testing.T) {
	// Four survivors; one offset is much farther from the rest than
	// the peers' own jitter → pruned to NMIN.
	surv := []candidate{
		cand("a", 0, 20), cand("b", 1, 20), cand("c", -1, 20), cand("d", 40, 20),
	}
	out := cluster(surv)
	if len(out) != 3 {
		t.Fatalf("clustered to %d, want 3", len(out))
	}
	if names(out)["d"] {
		t.Error("outlier survived clustering")
	}
}

func TestClusterKeepsTightGroup(t *testing.T) {
	// All offsets within peer jitter: nothing pruned even above NMIN.
	surv := []candidate{
		{Server: "a", Sample: exchange.Sample{Offset: 0, Delay: 20 * time.Millisecond}, Jitter: 10 * time.Millisecond},
		{Server: "b", Sample: exchange.Sample{Offset: time.Millisecond, Delay: 20 * time.Millisecond}, Jitter: 10 * time.Millisecond},
		{Server: "c", Sample: exchange.Sample{Offset: -time.Millisecond, Delay: 20 * time.Millisecond}, Jitter: 10 * time.Millisecond},
		{Server: "d", Sample: exchange.Sample{Offset: 2 * time.Millisecond, Delay: 20 * time.Millisecond}, Jitter: 10 * time.Millisecond},
	}
	if out := cluster(surv); len(out) != 4 {
		t.Errorf("tight group pruned to %d", len(out))
	}
}

func TestCombineWeightsByRootDistance(t *testing.T) {
	// A low-distance (good) server should dominate the combination.
	surv := []candidate{
		cand("good", 0, 2),     // root distance ~1 ms (floored)
		cand("poor", 100, 400), // root distance 200 ms
	}
	off, ok := combine(surv)
	if !ok {
		t.Fatal("combine failed")
	}
	if off > 10*time.Millisecond {
		t.Errorf("combined offset %v dominated by poor server", off)
	}
}

func TestCombineEmpty(t *testing.T) {
	if _, ok := combine(nil); ok {
		t.Error("combine of nothing succeeded")
	}
}

func TestPeerFilterPicksMinDelay(t *testing.T) {
	var f peerFilter
	f.add(exchange.Sample{Offset: 100 * time.Millisecond, Delay: 80 * time.Millisecond})
	f.add(exchange.Sample{Offset: 5 * time.Millisecond, Delay: 12 * time.Millisecond})
	f.add(exchange.Sample{Offset: 60 * time.Millisecond, Delay: 45 * time.Millisecond})
	best, jitter, ok := f.best()
	if !ok {
		t.Fatal("empty best")
	}
	if best.Delay != 12*time.Millisecond {
		t.Errorf("best delay = %v", best.Delay)
	}
	if jitter == 0 {
		t.Error("jitter should be non-zero for spread offsets")
	}
}

func TestPeerFilterShiftRegisterEvicts(t *testing.T) {
	var f peerFilter
	// Fill with 8 high-delay samples, then push a low-delay one; then
	// push 8 more high-delay samples to evict it.
	for i := 0; i < filterStages; i++ {
		f.add(exchange.Sample{Offset: 0, Delay: 100 * time.Millisecond})
	}
	f.add(exchange.Sample{Offset: 0, Delay: time.Millisecond})
	if best, _, _ := f.best(); best.Delay != time.Millisecond {
		t.Fatalf("low-delay sample not selected: %v", best.Delay)
	}
	for i := 0; i < filterStages; i++ {
		f.add(exchange.Sample{Offset: 0, Delay: 50 * time.Millisecond})
	}
	if best, _, _ := f.best(); best.Delay != 50*time.Millisecond {
		t.Errorf("evicted sample still selected: %v", best.Delay)
	}
	if f.len() != filterStages {
		t.Errorf("register length = %d", f.len())
	}
}

func TestPeerFilterEmpty(t *testing.T) {
	var f peerFilter
	if _, _, ok := f.best(); ok {
		t.Error("empty filter returned a sample")
	}
}

func TestRootDistanceFloor(t *testing.T) {
	if d := rootDistance(exchange.Sample{}); d < time.Millisecond {
		t.Errorf("root distance %v below MINDISP floor", d)
	}
	s := exchange.Sample{Delay: 100 * time.Millisecond, RootDelay: 20 * time.Millisecond, RootDisp: 5 * time.Millisecond}
	if got, want := rootDistance(s), 65*time.Millisecond; got != want {
		t.Errorf("root distance = %v, want %v", got, want)
	}
}
