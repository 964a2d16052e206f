package sources

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"mntp/internal/exchange"
	"mntp/internal/ntppkt"
)

// ErrAllSourcesFailed is returned (wrapped around the last per-source
// error) when MeasureBest sent requests but every attempt failed —
// distinct from ErrNoEligibleSource, where nothing was sent at all.
// Callers watching for total blackout match it with errors.Is.
var ErrAllSourcesFailed = errors.New("sources: every attempted source failed")

// Outcome is the result of querying (or skipping) one source slot
// during a fan-out round or a MeasureBest attempt.
type Outcome struct {
	Source string
	Index  int // slot index into the pool
	// Skipped: the source was inside its KoD hold-down and no request
	// was sent.
	Skipped bool
	// OK: a valid reply arrived; Sample holds the measurement.
	OK     bool
	Sample exchange.Sample
	// KoD: the reply was a kiss-of-death; the source entered (or
	// extended) its hold-down.
	KoD bool
	Err error
}

// RoundResult is the outcome of one fan-out round.
type RoundResult struct {
	// Outcomes has one entry per source slot, in slot order,
	// regardless of the concurrent completion order.
	Outcomes []Outcome
	// Exchanges is the number of requests actually sent this round
	// (skipped slots send nothing) — the billing unit for clients
	// that track message counts.
	Exchanges int
}

// Round queries every eligible source, fanning out with the
// configured parallelism, and updates per-source health from each
// outcome. With Parallelism 1 (the default) the round runs inline and
// serially in slot order, which keeps it usable on virtual-time
// transports that are bound to a single simulated process.
func (p *Pool) Round() RoundResult {
	now := p.now()
	var buf [maxStackSlots]int
	p.mu.Lock()
	elig := p.eligibleIdx(now, buf[:0])
	p.mu.Unlock()

	res := RoundResult{Outcomes: make([]Outcome, len(p.srcs))}
	for i, s := range p.srcs {
		res.Outcomes[i] = Outcome{Source: s.name, Index: i, Skipped: true}
	}
	if p.cfg.Parallelism <= 1 || len(elig) <= 1 {
		for _, i := range elig {
			res.Outcomes[i] = p.query(i)
		}
	} else {
		sem := make(chan struct{}, p.cfg.Parallelism)
		var wg sync.WaitGroup
		for _, i := range elig {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				res.Outcomes[i] = p.query(i)
				<-sem
			}(i)
		}
		wg.Wait()
	}
	res.Exchanges = len(elig)
	return res
}

// MeasureBest queries the top-ranked eligible source and, on failure,
// fails over to the next-ranked for up to FailoverTries additional
// attempts. It returns the first successful sample together with the
// outcome of every attempt (for event emission and message-count
// billing: each non-skipped outcome consumed one request). When every
// source is held down it returns ErrNoEligibleSource with no
// outcomes — no request was sent.
func (p *Pool) MeasureBest() (exchange.Sample, []Outcome, error) {
	now := p.now()
	var buf [maxStackSlots]int
	p.mu.Lock()
	ranked := p.rankedLocked(now, buf[:0])
	p.mu.Unlock()
	if len(ranked) == 0 {
		return exchange.Sample{}, nil, ErrNoEligibleSource
	}
	tries := p.cfg.FailoverTries + 1
	if tries > len(ranked) {
		tries = len(ranked)
	}
	outs := make([]Outcome, 0, tries)
	var lastErr error
	for _, i := range ranked[:tries] {
		o := p.query(i)
		outs = append(outs, o)
		if o.OK {
			return o.Sample, outs, nil
		}
		lastErr = o.Err
	}
	return exchange.Sample{}, outs, fmt.Errorf("%w: %w", ErrAllSourcesFailed, lastErr)
}

// query performs one exchange with slot i and updates its health.
func (p *Pool) query(i int) Outcome {
	name := p.srcs[i].name
	o := Outcome{Source: name, Index: i}
	s, err := p.measure(name)
	if err != nil {
		o.Err = err
		if errors.Is(err, ntppkt.ErrKissOfDeath) {
			o.KoD = true
			p.reportKoD(i, p.now(), err)
		} else {
			p.reportFailure(i, err)
		}
		return o
	}
	p.reportSuccess(i, s)
	o.OK = true
	o.Sample = s
	return o
}

// measure runs one exchange, racing it against the pool's wall-clock
// deadline when one is configured. A timed-out exchange's goroutine
// is abandoned to the transport's own timeout; its late result is
// discarded.
func (p *Pool) measure(server string) (exchange.Sample, error) {
	if p.cfg.ExchangeTimeout <= 0 {
		return exchange.Measure(p.clk, p.tr, server, ntppkt.Version4, !p.cfg.FullNTP)
	}
	type result struct {
		s   exchange.Sample
		err error
	}
	ch := make(chan result, 1)
	go func() {
		s, err := exchange.Measure(p.clk, p.tr, server, ntppkt.Version4, !p.cfg.FullNTP)
		ch <- result{s, err}
	}()
	timer := time.NewTimer(p.cfg.ExchangeTimeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.s, r.err
	case <-timer.C:
		return exchange.Sample{}, ErrDeadline
	}
}
