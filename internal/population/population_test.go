package population

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"
)

func simConfig(n int, seed int64) Config {
	return Config{
		N:           n,
		Seed:        seed,
		Mode:        ModeSim,
		Upstreams:   goodPool(),
		PollBase:    64 * time.Second,
		PollJitter:  0.1,
		StartSpread: 30 * time.Second,
	}
}

// TestEngineConvergence: a cold population with seconds of initial
// clock error must converge to the honest pool's few-ms error band
// after a handful of rounds.
func TestEngineConvergence(t *testing.T) {
	e, err := New(simConfig(2000, 11))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(8 * 64 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := e.Stats(100 * time.Millisecond)
	if st.Median > 20*time.Millisecond {
		t.Fatalf("population median offset %v after 8 rounds, want ≤ 20ms", st.Median)
	}
	if e.ServedClients() < 1990 {
		t.Fatalf("only %d/2000 clients ever served", e.ServedClients())
	}
	tot := e.Totals()
	if tot.OK == 0 || tot.Sent == 0 {
		t.Fatalf("no traffic: %+v", tot)
	}
	if _, ok := e.RTT().Quantile(0.5); !ok {
		t.Fatal("RTT histogram empty")
	}
}

// TestEngineDeterminism: same seed → identical counters and stats;
// different seed → different traffic trace.
func TestEngineDeterminism(t *testing.T) {
	run := func(seed int64) (Totals, OffsetStats) {
		e, err := New(simConfig(500, seed))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(5 * 64 * time.Second); err != nil {
			t.Fatal(err)
		}
		return e.Totals(), e.Stats(0)
	}
	t1, s1 := run(7)
	t2, s2 := run(7)
	if t1 != t2 || s1 != s2 {
		t.Fatalf("same seed diverged:\n%+v %+v\n%+v %+v", t1, s1, t2, s2)
	}
	t3, _ := run(8)
	if t1 == t3 {
		t.Fatalf("different seeds produced identical totals %+v", t1)
	}
}

// TestEngineOutageHook: setOutage via at must fail all polls during
// the window and the fleet must recover afterwards.
func TestEngineOutageHook(t *testing.T) {
	cfg := simConfig(800, 5)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.at(3*64*time.Second, func() { e.setOutage(true) })
	e.at(6*64*time.Second, func() { e.setOutage(false) })
	if err := e.Run(12 * 64 * time.Second); err != nil {
		t.Fatal(err)
	}
	tot := e.Totals()
	if tot.Fails == 0 {
		t.Fatal("outage window produced no failures")
	}
	if d := e.maxDryStreak(); d < 2 {
		t.Fatalf("outage never built a dry streak (max %d)", d)
	}
	// Recovery: the final state must still be a converged population.
	if st := e.Stats(0); st.Median > 20*time.Millisecond {
		t.Fatalf("median %v after recovery, want ≤ 20ms", st.Median)
	}
}

// TestEvHeapOrder pins the hand-rolled heap: pops come out sorted.
func TestEvHeapOrder(t *testing.T) {
	var h evHeap
	st := uint64(9)
	for i := 0; i < 5000; i++ {
		h.push(ev{at: int64(splitmix(&st) % 1000000), id: int32(i)})
	}
	prev := int64(-1)
	for len(h) > 0 {
		e := h.pop()
		if e.at < prev {
			t.Fatalf("heap order violated: %d after %d", e.at, prev)
		}
		prev = e.at
	}
}

// refPop is the textbook top-down sift the engine popped with before
// the bottom-up one: the last element goes to the root and sinks while
// a child is strictly earlier, the left child winning ties.
func refPop(h *evHeap) ev {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && old[l].at < old[m].at {
			m = l
		}
		if r < n && old[r].at < old[m].at {
			m = r
		}
		if m == i {
			break
		}
		old[i], old[m] = old[m], old[i]
		i = m
	}
	return top
}

// TestPopMatchesReference: pop leaves the array element for element as
// refPop does, not merely a valid heap. Which of two events on one
// instant fires first is decided by where earlier pops left them, and
// they draw from shared server and channel rngs, so a pop that orders
// ties differently changes every seeded output. 300 seeded mixes of
// pushes and pops, keys drawn from 1 to 50 values so that ties are the
// rule (one value: the synchronized cold start), compared after every
// operation.
func TestPopMatchesReference(t *testing.T) {
	for mix := 0; mix < 300; mix++ {
		st := uint64(mix) + 1
		keys := 1 + randInt(&st, 50)
		var got, want evHeap
		check := func(op int, what string) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("mix %d op %d (%s): %d entries, reference has %d", mix, op, what, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("mix %d op %d (%s), %d keys: slot %d of %d holds %+v, reference %+v",
						mix, op, what, keys, i, len(got), got[i], want[i])
				}
			}
		}
		const ops = 600
		for op := 0; op < ops; op++ {
			// Grow for the first half, drain over the second.
			pushOdds := uint64(7)
			if op >= ops/2 {
				pushOdds = 3
			}
			if len(got) == 0 || splitmix(&st)%10 < pushOdds {
				e := ev{at: randInt(&st, keys), id: int32(op)}
				got.push(e)
				want.push(e)
				check(op, "push")
				continue
			}
			if a, b := got.pop(), refPop(&want); a != b {
				t.Fatalf("mix %d op %d: popped %+v, reference %+v", mix, op, a, b)
			}
			check(op, "pop")
		}
	}
}

// TestAtRunsEqualInstantsInCallOrder: control actions scheduled for one
// instant run in the order at was called, however many there are (an
// unstable sort keeps that order only up to its insertion-sort cutoff),
// and instants still run in time order whatever the call order.
func TestAtRunsEqualInstantsInCallOrder(t *testing.T) {
	e, err := New(simConfig(10, 1))
	if err != nil {
		t.Fatal(err)
	}
	type mark struct {
		at  time.Duration
		seq int
	}
	var ran []mark
	instants := []time.Duration{20 * time.Second, 10 * time.Second, 30 * time.Second}
	const perInstant = 40
	for seq := 0; seq < perInstant; seq++ {
		for _, at := range instants {
			m := mark{at, seq}
			e.at(at, func() { ran = append(ran, m) })
		}
	}
	if err := e.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	var want []mark
	for _, at := range []time.Duration{10 * time.Second, 20 * time.Second, 30 * time.Second} {
		for seq := 0; seq < perInstant; seq++ {
			want = append(want, mark{at, seq})
		}
	}
	if !slices.Equal(ran, want) {
		t.Fatalf("actions ran in the order\n%+v\nwant\n%+v", ran, want)
	}
}

// TestWarmupMoreThanEightProbes: WarmupProbes is clamped only to the
// visible count (up to 64); a warm-up over nine servers used to index
// past an 8-entry sample array.
func TestWarmupMoreThanEightProbes(t *testing.T) {
	cfg := simConfig(300, 4)
	cfg.Upstreams = nil
	for i := 0; i < 9; i++ {
		cfg.Upstreams = append(cfg.Upstreams, Upstream{Name: fmt.Sprintf("s%d", i), Err: time.Duration(i-4) * time.Millisecond})
	}
	cfg.WarmupProbes = 9
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(cfg.PollBase); err != nil {
		t.Fatal(err)
	}
	if got := e.ServedClients(); got < 290 {
		t.Fatalf("nine-probe warm-up served %d/300 clients", got)
	}
	// The median of nine samples a millisecond apart is the middle
	// server's, give or take path asymmetry.
	if st := e.Stats(0); st.Median > 20*time.Millisecond {
		t.Fatalf("median offset %v after a nine-probe warm-up, want ≤ 20ms", st.Median)
	}
}

// heapInUse runs a full GC and returns live heap bytes.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// warmupHeap builds an n-client engine, completes one warm-up round,
// and returns the live heap while the engine is still reachable.
func warmupHeap(t *testing.T, n int) uint64 {
	t.Helper()
	before := heapInUse()
	cfg := simConfig(n, 21)
	cfg.StartSpread = 10 * time.Second
	cfg.PollBase = time.Hour // one round only
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(11 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := e.ServedClients(); got < n*9/10 {
		t.Fatalf("warm-up round served only %d/%d clients", got, n)
	}
	after := heapInUse()
	runtime.KeepAlive(e)
	if after <= before {
		return 1
	}
	return after - before
}

// TestMillionClientMemory is the flat-memory acceptance test: one
// million simulated clients complete a warm-up round with a bounded,
// struct-of-arrays heap — ≤ 160 bytes per client, and ≤ ~linear
// growth from the 100k baseline (fixed costs — channel pool, bins,
// RTT histogram — must not scale with N).
func TestMillionClientMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-client memory test skipped in -short")
	}
	if raceEnabled {
		t.Skip("1M-client memory test skipped under -race (shadow memory)")
	}
	base := warmupHeap(t, 100_000)
	big := warmupHeap(t, 1_000_000)
	t.Logf("heap: 100k=%dKB 1M=%dKB (%.1fB/client)", base/1024, big/1024, float64(big)/1e6)
	if per := float64(big) / 1e6; per > 160 {
		t.Fatalf("1M clients use %.1f B/client, want ≤ 160 (SoA regressed)", per)
	}
	if big > 10*base+(8<<20) {
		t.Fatalf("heap grew superlinearly: 100k→%dB, 1M→%dB", base, big)
	}
}
