// Package tuner implements the MNTP tuner of §5.3: a trace-driven
// harness for exploring MNTP's four timing parameters. It has the
// paper's three components — a logger that records SNTP offsets from
// multiple reference clocks every few seconds together with the
// wireless hints; an emulator that replays the MNTP algorithm over a
// recorded trace under a given parameter configuration; and a
// searcher that sweeps parameter combinations, scoring each by the
// RMSE of the emulated MNTP offsets against a perfectly synchronized
// clock (offset 0) and by the number of requests generated.
package tuner

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"mntp/internal/core"
	"mntp/internal/exchange"
	"mntp/internal/hints"
	"mntp/internal/netsim"
	"mntp/internal/sntp"
	"mntp/internal/stats"
	"mntp/internal/testbed"
	"mntp/internal/trend"
)

// OffsetObs is one source's response within a logging round.
type OffsetObs struct {
	OK     bool          `json:"ok"`
	Offset time.Duration `json:"offset"`
	// Delay is the measured round-trip delay; the emulator applies
	// the same delay sanity gate as the live client. Zero (old
	// traces) disables the gate for that observation.
	Delay time.Duration `json:"delay,omitempty"`
}

// Record is one logging round: hints plus the offsets reported by
// each reference clock.
type Record struct {
	Elapsed time.Duration `json:"elapsed"`
	Hints   hints.Hints   `json:"hints"`
	Offsets []OffsetObs   `json:"offsets"`
}

// Trace is a recorded log suitable for emulation.
type Trace struct {
	// Interval is the logging cadence (the paper logs every 5 s).
	Interval time.Duration `json:"interval"`
	Records  []Record      `json:"records"`
}

// Write serializes the trace as JSON.
func (t *Trace) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(t)
}

// ReadTrace deserializes a trace.
func ReadTrace(r io.Reader) (*Trace, error) {
	var t Trace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("tuner: decode trace: %w", err)
	}
	if t.Interval <= 0 {
		return nil, fmt.Errorf("tuner: trace has non-positive interval")
	}
	return &t, nil
}

// Collect runs the logger on a testbed: every interval it reads the
// channel hints and queries each source once, for the given duration.
// The TN clock is left free-running (the §5.2 long-experiment
// setting). The testbed's monitor loop is started if configured.
func Collect(tb *testbed.Testbed, sources []string, interval, duration time.Duration) *Trace {
	tr := &Trace{Interval: interval}
	tb.Sched.Go(func(p *netsim.Proc) {
		xp := &netsim.Transport{Net: tb.Net, Proc: p, Clock: tb.TNClock}
		cl := sntp.New(tb.TNClock, xp, p, sntp.Config{})
		for p.Now() < duration {
			rec := Record{Elapsed: p.Now(), Hints: tb.Hints.Hints(), Offsets: make([]OffsetObs, 0, len(sources))}
			for _, src := range sources {
				cl.Config.Server = src
				s, err := cl.Query()
				if err != nil {
					rec.Offsets = append(rec.Offsets, OffsetObs{})
				} else {
					rec.Offsets = append(rec.Offsets, OffsetObs{OK: true, Offset: s.Offset, Delay: s.Delay})
				}
			}
			tr.Records = append(tr.Records, rec)
			// Align to the cadence even though queries consumed time.
			next := rec.Elapsed + interval
			if now := p.Now(); next > now {
				p.Sleep(next - now)
			}
		}
	})
	// Drive the monitor if the testbed has one configured.
	tb.Sched.Run()
	return tr
}

// Result is one emulated configuration's outcome.
type Result struct {
	Params core.Params
	// RMSE is the root mean squared error (ms) of the emulated MNTP
	// offsets — drift-corrected against the trend line — relative to
	// a perfectly synchronized clock.
	RMSE float64
	// Requests is the number of SNTP requests MNTP emitted.
	Requests int
	// Accepted and Rejected count filter decisions; Deferred counts
	// gating deferrals.
	Accepted, Rejected, Deferred int
}

// Emulate replays MNTP (Algorithm 1) over the trace under the given
// parameters. Warm-up rounds consume all sources of a record (with
// false-ticker rejection); regular rounds consume the first
// responsive source. Clock corrections are emulated analytically: the
// reported value scored against zero is the trend-corrected offset.
func Emulate(tr *Trace, p core.Params) Result {
	res := Result{Params: p}
	if len(tr.Records) == 0 {
		return res
	}
	th := hints.Default()
	// Delay sanity gate, mirroring the live client: adaptive to the
	// smallest delay seen in the cycle. minDelay is reset per cycle
	// below.
	var minDelay time.Duration
	delayOK := func(o OffsetObs) bool {
		if o.Delay == 0 {
			return true // old trace without delays
		}
		if minDelay == 0 || o.Delay < minDelay {
			minDelay = o.Delay
			return true
		}
		return o.Delay <= 3*minDelay+30*time.Millisecond
	}

	// A record yields at most one corrected offset and samples is one
	// round's scratch: a replay allocates per cycle, not per record.
	i := 0
	n := len(tr.Records)
	corrected := make([]float64, 0, n)
	var samples []exchange.Sample
	advance := func(d time.Duration) {
		// Without an interval (a hand-built trace) a wait is one record.
		steps := 1
		if tr.Interval > 0 {
			steps = max(1, int(d/tr.Interval))
		}
		i += steps
	}

	for i < n {
		cycleStart := tr.Records[i].Elapsed
		filter := core.NewFilterKind(p.Estimator, p.EstimatorWindow, core.ResidualFloor, core.MinTrendSamples)
		minDelay = 0

		// Warm-up phase.
		for i < n && tr.Records[i].Elapsed-cycleStart < p.WarmupPeriod {
			rec := tr.Records[i]
			if !p.DisableGating && !th.Favorable(rec.Hints) {
				res.Deferred++
				i++ // re-check at the next logging instant
				continue
			}
			samples = samples[:0]
			for _, o := range rec.Offsets {
				res.Requests++
				if o.OK && delayOK(o) {
					samples = append(samples, exchange.Sample{Offset: o.Offset})
				} else if o.OK {
					res.Rejected++
				}
			}
			if len(samples) > 0 {
				kept := samples
				if !p.DisableFalseTickerRejection {
					kept, _ = core.RejectFalseTickers(samples)
				}
				offset := core.CombineOffsets(kept)
				acc, pred, predOK := filter.Offer(rec.Elapsed-cycleStart, offset)
				if acc {
					res.Accepted++
					if predOK {
						corrected = append(corrected, (offset-pred).Seconds()*1000)
					} else {
						corrected = append(corrected, offset.Seconds()*1000)
					}
				} else {
					res.Rejected++
				}
			}
			advance(p.WarmupWaitTime)
		}

		// Regular phase.
		for i < n && tr.Records[i].Elapsed-cycleStart < p.ResetPeriod {
			rec := tr.Records[i]
			if !p.DisableGating && !th.Favorable(rec.Hints) {
				res.Deferred++
				i++
				continue
			}
			res.Requests++
			var got *OffsetObs
			for k := range rec.Offsets {
				if rec.Offsets[k].OK && delayOK(rec.Offsets[k]) {
					got = &rec.Offsets[k]
					break
				}
			}
			if got != nil {
				acc, pred, predOK := filter.Offer(rec.Elapsed-cycleStart, got.Offset)
				if acc {
					res.Accepted++
					if predOK {
						corrected = append(corrected, (got.Offset-pred).Seconds()*1000)
					} else {
						corrected = append(corrected, got.Offset.Seconds()*1000)
					}
				} else {
					res.Rejected++
				}
			}
			advance(p.RegularWaitTime)
		}
	}

	res.RMSE = stats.RMSE(corrected, 0)
	return res
}

// Config is a named parameter combination, in the paper's Table 2
// units (minutes), plus the trend estimator choice the search can
// sweep alongside the timing parameters.
type Config struct {
	Name                     string
	WarmupMin, WarmupWaitMin float64
	RegularWaitMin, ResetMin float64
	// Estimator selects the filter's trend estimator; empty means the
	// paper's least squares.
	Estimator trend.Kind
}

// Params converts the minute-based configuration to core.Params.
func (c Config) Params() core.Params {
	toDur := func(min float64) time.Duration {
		return time.Duration(min * float64(time.Minute))
	}
	return core.Params{
		WarmupPeriod:    toDur(c.WarmupMin),
		WarmupWaitTime:  toDur(c.WarmupWaitMin),
		RegularWaitTime: toDur(c.RegularWaitMin),
		ResetPeriod:     toDur(c.ResetMin),
		Estimator:       c.Estimator,
	}
}

// Table2Configs are the six sample configurations of Table 2.
func Table2Configs() []Config {
	return []Config{
		{Name: "1", WarmupMin: 30, WarmupWaitMin: 0.25, RegularWaitMin: 15, ResetMin: 240},
		{Name: "2", WarmupMin: 40, WarmupWaitMin: 0.25, RegularWaitMin: 15, ResetMin: 240},
		{Name: "3", WarmupMin: 50, WarmupWaitMin: 0.25, RegularWaitMin: 15, ResetMin: 240},
		{Name: "4", WarmupMin: 70, WarmupWaitMin: 0.25, RegularWaitMin: 30, ResetMin: 240},
		{Name: "5", WarmupMin: 90, WarmupWaitMin: 0.084, RegularWaitMin: 15, ResetMin: 240},
		{Name: "6", WarmupMin: 240, WarmupWaitMin: 0.084, RegularWaitMin: 15, ResetMin: 240},
	}
}

// SearchSpace bounds the searcher's grid. An empty Estimators slice
// searches only the paper's least squares.
type SearchSpace struct {
	WarmupMin      []float64
	WarmupWaitMin  []float64
	RegularWaitMin []float64
	ResetMin       []float64
	Estimators     []trend.Kind
}

// Search evaluates every combination in the space against the trace
// and returns results sorted by ascending RMSE (ties broken by fewer
// requests).
func Search(tr *Trace, space SearchSpace) []Result {
	ests := space.Estimators
	if len(ests) == 0 {
		ests = []trend.Kind{trend.KindLeastSquares}
	}
	var out []Result
	for _, w := range space.WarmupMin {
		for _, ww := range space.WarmupWaitMin {
			for _, rw := range space.RegularWaitMin {
				for _, rp := range space.ResetMin {
					for _, est := range ests {
						cfg := Config{
							WarmupMin: w, WarmupWaitMin: ww,
							RegularWaitMin: rw, ResetMin: rp,
							Estimator: est,
						}
						out = append(out, Emulate(tr, cfg.Params()))
					}
				}
			}
		}
	}
	sortResults(out)
	return out
}

func sortResults(rs []Result) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && less(rs[j], rs[j-1]); j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

func less(a, b Result) bool {
	if a.RMSE != b.RMSE {
		return a.RMSE < b.RMSE
	}
	return a.Requests < b.Requests
}
