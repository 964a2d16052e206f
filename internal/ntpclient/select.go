package ntpclient

import (
	"time"

	"mntp/internal/exchange"
	"mntp/internal/sources"
)

// candidate is one peer's filtered estimate entering selection.
type candidate struct {
	Server string
	Sample exchange.Sample
	Jitter time.Duration
}

// correctness interval bounds.
func (c candidate) lo() float64 {
	return c.Sample.Offset.Seconds() - rootDistance(c.Sample).Seconds()
}
func (c candidate) hi() float64 {
	return c.Sample.Offset.Seconds() + rootDistance(c.Sample).Seconds()
}
func (c candidate) mid() float64 { return c.Sample.Offset.Seconds() }

// selectSurvivors runs the intersection (Marzullo-derived) algorithm of RFC
// 5905 §11.2.1 over the candidates' correctness intervals and returns
// the truechimers. Candidates outside the intersection are
// falsetickers. An empty result means no majority clique exists. The
// algorithm itself lives in internal/sources (the standalone
// selection layer shared with the source pool); this adapter builds
// the intervals from root distance.
func selectSurvivors(cands []candidate) []candidate {
	ivals := make([]sources.Interval, len(cands))
	for i, c := range cands {
		ivals[i] = sources.Interval{Lo: c.lo(), Mid: c.mid(), Hi: c.hi()}
	}
	keep := sources.Marzullo(ivals)
	if keep == nil {
		return nil
	}
	survivors := make([]candidate, len(keep))
	for k, i := range keep {
		survivors[k] = cands[i]
	}
	return survivors
}

// minClusterSurvivors is NMIN: cluster pruning stops at this many
// survivors.
const minClusterSurvivors = 3

// cluster prunes the survivor list by select jitter per RFC 5905
// §11.2.2, delegating to the shared pruning in internal/sources:
// pruning stops once the spread between survivors is within the noise
// of the best peer.
func cluster(surv []candidate) []candidate {
	mids := make([]float64, len(surv))
	jits := make([]float64, len(surv))
	for i, c := range surv {
		mids[i] = c.mid()
		jits[i] = c.Jitter.Seconds()
	}
	keep := sources.ClusterPrune(mids, jits, minClusterSurvivors)
	out := make([]candidate, len(keep))
	for k, i := range keep {
		out[k] = surv[i]
	}
	return out
}

// combine computes the final offset estimate as the weighted average
// of the survivors' offsets, weighted by inverse root distance (RFC
// 5905 §11.2.3).
func combine(surv []candidate) (time.Duration, bool) {
	if len(surv) == 0 {
		return 0, false
	}
	var num, den float64
	for _, c := range surv {
		w := 1 / rootDistance(c.Sample).Seconds()
		num += w * c.Sample.Offset.Seconds()
		den += w
	}
	return time.Duration(num / den * float64(time.Second)), true
}
