package sources

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"mntp/internal/clock"
	"mntp/internal/exchange"
	"mntp/internal/ntppkt"
)

// refRanked is rankedLocked as it was: the comparator recomputes both
// scores on every call and sort.SliceStable does the ordering.
func refRanked(p *Pool, now time.Time) []int {
	elig := p.eligibleIdx(now, nil)
	sort.SliceStable(elig, func(a, b int) bool {
		return p.srcs[elig[a]].score(now) > p.srcs[elig[b]].score(now)
	})
	return elig
}

// refMarzullo is Marzullo as it was, on sort.Slice and fresh slices.
func refMarzullo(ivals []Interval) []int {
	m := len(ivals)
	if m == 0 {
		return nil
	}
	if m == 1 {
		return []int{0}
	}
	type edge struct {
		val float64
		typ int
	}
	edges := make([]edge, 0, 3*m)
	for _, iv := range ivals {
		edges = append(edges, edge{iv.Lo, +1}, edge{iv.Mid, 0}, edge{iv.Hi, -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].val != edges[j].val {
			return edges[i].val < edges[j].val
		}
		return edges[i].typ > edges[j].typ
	})
	var low, high float64
	found := false
	for allow := 0; 2*allow < m; allow++ {
		chime := 0
		low, high = math.Inf(1), math.Inf(-1)
		for _, e := range edges {
			chime += e.typ
			if chime >= m-allow {
				low = e.val
				break
			}
		}
		chime = 0
		for i := len(edges) - 1; i >= 0; i-- {
			chime -= edges[i].typ
			if chime >= m-allow {
				high = edges[i].val
				break
			}
		}
		if low <= high {
			outside := 0
			for _, iv := range ivals {
				if iv.Mid < low || iv.Mid > high {
					outside++
				}
			}
			if outside <= allow {
				found = true
				break
			}
		}
	}
	if !found {
		return nil
	}
	var survivors []int
	for i, iv := range ivals {
		if iv.Hi >= low && iv.Lo <= high {
			survivors = append(survivors, i)
		}
	}
	return survivors
}

func TestReachWeightsArePowersOfTwo(t *testing.T) {
	for i, w := range reachWeight {
		if want := math.Pow(2, -float64(i)); w != want {
			t.Errorf("reachWeight[%d] = %v, want %v", i, w, want)
		}
	}
}

// TestRankedMatchesComparatorSort puts pools of 1–12 sources (past the
// on-stack scratch) into random health states with many tied scores and
// requires the score-once insertion sort to order them exactly as the
// comparator-driven stable sort did.
func TestRankedMatchesComparatorSort(t *testing.T) {
	now := time.Date(2016, 11, 14, 0, 0, 0, 0, time.UTC)
	for seed := int64(0); seed < 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := New(nil, nil, Config{Servers: make([]string, 1+rng.Intn(12))})
		for _, s := range p.srcs {
			switch rng.Intn(4) {
			case 0: // never polled: the shared neutral prior
			case 1: // held down
				s.exchanges, s.kodUntil = 1, now.Add(time.Hour)
			default:
				s.exchanges = 1 + rng.Intn(9)
				s.reach = uint8(rng.Intn(4)) * 0x55 // few distinct values: ties
				s.delay = float64(rng.Intn(3)) * 0.020
				s.jitter = float64(rng.Intn(2)) * 0.005
				s.falseticker = float64(rng.Intn(3)) / 2
			}
		}
		if got, want := p.rankedLocked(now, nil), refRanked(p, now); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: ranked %v, comparator sort %v", seed, got, want)
		}
	}
}

func TestMarzulloMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 2000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ivals := make([]Interval, rng.Intn(13))
		for i := range ivals {
			// A coarse grid makes touching and identical edges common.
			mid := float64(rng.Intn(9)) * 0.010
			if rng.Intn(5) == 0 {
				mid += 0.5
			}
			h := float64(1+rng.Intn(3)) * 0.005
			ivals[i] = Interval{Lo: mid - h, Mid: mid, Hi: mid + h}
		}
		if got, want := Marzullo(ivals), refMarzullo(ivals); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: %v\nMarzullo %v, reference %v", seed, ivals, got, want)
		}
	}
}

// TestSelectionAllocations: a round's selection allocates only what it
// returns.
func TestSelectionAllocations(t *testing.T) {
	p := New(newManualClock(), nil, Config{Servers: []string{"a", "b", "c", "d"}})
	samples := []exchange.Sample{
		mkSample(2*time.Millisecond, 20*time.Millisecond),
		mkSample(-time.Millisecond, 24*time.Millisecond),
		mkSample(400*time.Millisecond, 22*time.Millisecond),
		mkSample(time.Millisecond, 30*time.Millisecond),
	}
	idxs := []int{0, 1, 2, 3}
	for i, s := range samples {
		p.reportSuccess(i, s)
	}
	sel := p.SelectCombine(samples, idxs)
	if !sel.OK || len(sel.Survivors) != 3 || len(sel.Falsetickers) != 1 {
		t.Fatalf("selection %+v, want three survivors and one falseticker", sel)
	}
	if n := testing.AllocsPerRun(200, func() { p.SelectCombine(samples, idxs) }); n > 2 {
		t.Errorf("SelectCombine: %v allocs, want ≤ 2 (Survivors, Falsetickers)", n)
	}
	if n := testing.AllocsPerRun(200, func() { p.Ranked() }); n > 1 {
		t.Errorf("Ranked: %v allocs, want ≤ 1 (the result)", n)
	}
	ivals := []Interval{{-1, 0, 1}, {-0.5, 0.5, 1.5}, {4, 5, 6}}
	if n := testing.AllocsPerRun(200, func() { Marzullo(ivals) }); n > 1 {
		t.Errorf("Marzullo: %v allocs, want ≤ 1 (the result)", n)
	}
}

// TestAbandonedMeasureKeepsItsRequest: an exchange the pool gave up on
// (ExchangeTimeout) still holds its request packet while its transport
// call is out, however many later exchanges recycle theirs. Run under
// -race, a request handed to a second exchange too early is also a
// reported data race.
func TestAbandonedMeasureKeepsItsRequest(t *testing.T) {
	clk := clock.System{}
	release := make(chan struct{})
	verdict := make(chan bool, 1)
	entered := make(chan struct{})
	first := true
	tr := exchange.TransportFunc(func(server string, req *ntppkt.Packet) (*ntppkt.Packet, time.Time, error) {
		if first { // calls are serial until the first one is abandoned
			first = false
			before := *req
			close(entered)
			<-release
			verdict <- reflect.DeepEqual(before, *req)
		}
		return memServer(clk, clk, 0, time.Millisecond)(server, req)
	})
	p := New(clk, tr, Config{Servers: []string{"s"}, ExchangeTimeout: 20 * time.Millisecond})
	if res := p.Round(); res.Outcomes[0].Err != ErrDeadline {
		t.Fatalf("first exchange: %+v, want ErrDeadline", res.Outcomes[0])
	}
	<-entered
	for i := 0; i < 200; i++ {
		if res := p.Round(); !res.Outcomes[0].OK {
			t.Fatalf("exchange %d: %v", i, res.Outcomes[0].Err)
		}
	}
	close(release)
	if !<-verdict {
		t.Error("the abandoned exchange's request was rewritten while its transport call was out")
	}
}
