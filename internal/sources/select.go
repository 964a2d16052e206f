package sources

import (
	"cmp"
	"math"
	"slices"
	"time"

	"mntp/internal/exchange"
)

// Interval is one source's correctness interval entering selection:
// the true offset is believed to lie in [Lo, Hi], with Mid the point
// estimate. Units are seconds.
type Interval struct {
	Lo, Mid, Hi float64
}

// Marzullo runs the intersection (Marzullo-derived) algorithm of RFC
// 5905 §11.2.1 over the intervals: it finds the largest set whose
// correctness intervals share an intersection containing a majority
// of midpoints and returns the indexes of those truechimers, in input
// order. Indexes outside the result are falsetickers. A nil result
// means no majority clique exists.
func Marzullo(ivals []Interval) []int {
	m := len(ivals)
	if m == 0 {
		return nil
	}
	if m == 1 {
		return []int{0}
	}

	type edge struct {
		val float64
		typ int // +1 = lower bound, 0 = midpoint, -1 = upper bound
	}
	var buf [3 * maxStackSlots]edge
	edges := buf[:0]
	for _, iv := range ivals {
		edges = append(edges,
			edge{iv.Lo, +1}, edge{iv.Mid, 0}, edge{iv.Hi, -1})
	}
	// Edges that compare equal are identical, so any sort gives this
	// sequence; the generic one builds no reflection swapper.
	slices.SortFunc(edges, func(a, b edge) int {
		// Lower bounds first, then midpoints, then upper bounds, so
		// touching intervals count as overlapping.
		return cmp.Or(cmp.Compare(a.val, b.val), b.typ-a.typ)
	})

	var low, high float64
	found := false
	for allow := 0; 2*allow < m; allow++ {
		// Scan up for the low endpoint: the point where at least
		// m−allow intervals are simultaneously active.
		chime := 0
		low, high = math.Inf(1), math.Inf(-1)
		for _, e := range edges {
			chime += e.typ
			if chime >= m-allow {
				low = e.val
				break
			}
		}
		// Scan down for the high endpoint.
		chime = 0
		for i := len(edges) - 1; i >= 0; i-- {
			chime -= edges[i].typ
			if chime >= m-allow {
				high = edges[i].val
				break
			}
		}
		if low <= high {
			// Require that no more than allow midpoints fall outside
			// [low, high] (the falseticker budget).
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

	survivors := make([]int, 0, m)
	for i, iv := range ivals {
		if iv.Hi >= low && iv.Lo <= high {
			survivors = append(survivors, i)
		}
	}
	return survivors
}

// ClusterPrune prunes a survivor set by select jitter per RFC 5905
// §11.2.2: while more than nmin survive, the entry whose midpoint is
// most distant from the others (largest RMS distance) is discarded if
// its select jitter exceeds the smallest per-source jitter — pruning
// stops once the spread between survivors is within the noise of the
// best source. mids and jitters are parallel slices (seconds); the
// returned kept indexes index into them, in input order.
func ClusterPrune(mids, jitters []float64, nmin int) []int {
	kept := make([]int, len(mids))
	for i := range kept {
		kept[i] = i
	}
	return clusterPrune(kept, mids, jitters, nmin)
}

// clusterPrune prunes kept, indexes into mids and jitters, in place.
func clusterPrune(kept []int, mids, jitters []float64, nmin int) []int {
	for len(kept) > nmin {
		worst, worstJit := -1, -1.0
		minSrcJit := math.Inf(1)
		for a, i := range kept {
			var sum float64
			for b, j := range kept {
				if a == b {
					continue
				}
				diff := mids[i] - mids[j]
				sum += diff * diff
			}
			selJit := math.Sqrt(sum / float64(len(kept)-1))
			if selJit > worstJit {
				worstJit, worst = selJit, a
			}
			if jitters[i] < minSrcJit {
				minSrcJit = jitters[i]
			}
		}
		if worstJit <= minSrcJit {
			break
		}
		kept = append(kept[:worst], kept[worst+1:]...)
	}
	return kept
}

// minClusterSurvivors is NMIN: cluster pruning stops at this many
// survivors.
const minClusterSurvivors = 3

// Selection is the outcome of SelectCombine.
type Selection struct {
	// Offset is the combined offset estimate, valid when OK.
	Offset time.Duration
	OK     bool
	// Survivors and Falsetickers index into the samples passed to
	// SelectCombine. Sources pruned by clustering appear in neither.
	Survivors    []int
	Falsetickers []int
	// NoConsensus reports that Marzullo found no majority clique; the
	// result then either fell back to the dominant-score source
	// (OK true, one survivor) or gave up (OK false).
	NoConsensus bool
}

// halfwidth is the correctness-interval halfwidth of a sample: half
// the round-trip delay (the four-timestamp offset error bound) plus
// the server's root distance contribution, floored at minHalfwidth.
func (p *Pool) halfwidth(s exchange.Sample) float64 {
	h := s.Delay.Seconds()/2 + s.RootDelay.Seconds()/2 + s.RootDisp.Seconds()
	if min := minHalfwidth.Seconds(); h < min {
		h = min
	}
	return h
}

// SelectCombine runs Marzullo intersection plus cluster pruning over
// the samples (sample i came from pool slot srcIdx[i]) and combines
// the surviving offsets into one estimate, weighted by inverse
// interval halfwidth. Flagged falsetickers accumulate score demotion
// in the pool; survivors decay theirs.
//
// When no majority clique exists the result depends on the pool's
// memory: if the top-scoring sampled source dominates the runner-up
// by fallbackMargin (earned in earlier majority rounds), its sample
// alone is used — this is what lets a client keep synchronizing when
// a pool degrades to one good source plus one falseticker. Otherwise
// the round is ambiguous and OK is false: no offset is offered rather
// than a poisoned average. Fallback rounds never mark falsetickers —
// there is no majority evidence.
func (p *Pool) SelectCombine(samples []exchange.Sample, srcIdx []int) Selection {
	if len(samples) == 0 {
		return Selection{}
	}
	var ivBuf [maxStackSlots]Interval
	ivals := ivBuf[:0]
	for _, s := range samples {
		h := p.halfwidth(s)
		mid := s.Offset.Seconds()
		ivals = append(ivals, Interval{Lo: mid - h, Mid: mid, Hi: mid + h})
	}
	surv := Marzullo(ivals)
	if surv == nil {
		return p.fallbackSelection(samples, srcIdx)
	}

	sel := Selection{OK: true}
	k := 0 // surv is in sample order: one walk finds who is missing
	for i := range samples {
		if k < len(surv) && surv[k] == i {
			k++
			continue
		}
		sel.Falsetickers = append(sel.Falsetickers, i)
		p.markFalseticker(srcIdx[i])
	}
	for _, i := range surv {
		p.markSurvivor(srcIdx[i])
	}

	// Cluster pruning over the survivors, using each source's smoothed
	// jitter (falling back to the interval halfwidth for sources
	// without history).
	var midBuf, jitBuf [maxStackSlots]float64
	mids, jits := midBuf[:0], jitBuf[:0]
	p.mu.Lock()
	for i, s := range samples {
		jit := p.srcs[srcIdx[i]].jitter
		if jit == 0 {
			jit = p.halfwidth(s)
		}
		mids, jits = append(mids, ivals[i].Mid), append(jits, jit)
	}
	p.mu.Unlock()
	// Marzullo's result, pruned in place, becomes Survivors.
	kept := clusterPrune(surv, mids, jits, minClusterSurvivors)
	sel.Survivors = kept

	// Combine: weighted average by inverse halfwidth (the tighter the
	// correctness interval, the more the sample counts).
	var num, den float64
	for _, i := range kept {
		w := 1 / p.halfwidth(samples[i])
		num += w * ivals[i].Mid
		den += w
	}
	sel.Offset = time.Duration(num / den * float64(time.Second))
	return sel
}

// fallbackSelection resolves a no-majority round using accumulated
// source scores.
func (p *Pool) fallbackSelection(samples []exchange.Sample, srcIdx []int) Selection {
	now := p.now()
	p.mu.Lock()
	best, bestScore, runnerUp := -1, 0.0, 0.0
	for i := range samples {
		sc := p.srcs[srcIdx[i]].score(now)
		if best < 0 || sc > bestScore {
			if best >= 0 && bestScore > runnerUp {
				runnerUp = bestScore
			}
			best, bestScore = i, sc
		} else if sc > runnerUp {
			runnerUp = sc
		}
	}
	p.mu.Unlock()
	if best < 0 || bestScore < runnerUp*fallbackMargin || bestScore == 0 {
		return Selection{NoConsensus: true}
	}
	return Selection{
		OK:          true,
		NoConsensus: true,
		Offset:      samples[best].Offset,
		Survivors:   []int{best},
	}
}
