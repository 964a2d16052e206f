// Package sources implements the multi-source upstream pool shared by
// every synchronization client in this repository. A Pool owns a set
// of upstream servers and keeps per-source health state — an 8-bit
// reachability shift register (the NTP "reach" register of RFC 5905
// §9.2), exponentially smoothed delay and jitter, a kiss-of-death
// backoff flag with exponential hold-down, and a score that ranks the
// sources. Queries fan out concurrently with bounded parallelism and
// optional per-exchange deadlines; combined results go through
// Marzullo's intersection algorithm plus cluster pruning (select.go)
// to drop falsetickers before an offset is offered to a filter.
//
// The pool replaces the single-server assumption of the original
// MNTP Algorithm 1 reproduction: the warm-up phase fans out through
// Round, the regular phase takes the top-ranked healthy source via
// MeasureBest and fails over when it degrades, and the full NTP
// client drives the same health state through the Report methods
// while keeping its own per-peer sample filters.
package sources

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"mntp/internal/clock"
	"mntp/internal/exchange"
	"mntp/internal/ntppkt"
)

// Config parameterizes a Pool.
type Config struct {
	// Servers are the upstream references. Duplicate names are kept as
	// distinct slots (querying a pool name twice reaches two random
	// members), each with its own health state.
	Servers []string
	// Parallelism bounds the concurrent exchanges of a fan-out round.
	// The default 1 runs the round inline and serially, which is
	// required when the transport is bound to a virtual-time process
	// (netsim); real-UDP deployments raise it.
	Parallelism int
	// ExchangeTimeout is a wall-clock deadline per exchange, enforced
	// by the pool on top of whatever timeout the transport itself
	// applies. Zero relies on the transport alone. Leave zero in
	// virtual-time simulations: the deadline timer runs in wall time.
	ExchangeTimeout time.Duration
	// FullNTP sends full client-shaped requests instead of minimal
	// SNTP-shaped ones.
	FullNTP bool
	// KoDBaseHold is the hold-down applied to a source after its first
	// kiss-of-death reply (default 1 h, ntpd-style demobilization).
	// Repeated KoDs double the hold-down up to kodMaxHold.
	KoDBaseHold time.Duration
	// FailoverTries is how many additional ranked sources MeasureBest
	// may try after a failed exchange within one call (default 0:
	// failover then happens across rounds through re-ranking).
	FailoverTries int
}

const (
	// kodMaxHold caps the exponential KoD hold-down.
	kodMaxHold = 8 * time.Hour
	// minHalfwidth floors the correctness-interval halfwidth used by
	// selection, so zero-delay in-memory exchanges still form
	// intervals that can intersect.
	minHalfwidth = time.Millisecond
)

func (c *Config) applyDefaults() {
	if c.Parallelism < 1 {
		c.Parallelism = 1
	}
	if c.KoDBaseHold == 0 {
		c.KoDBaseHold = time.Hour
	}
}

// Scoring constants. The score of a healthy source is its recency-
// weighted reachability divided by a quality term that grows with
// smoothed delay and jitter, then halved per accumulated falseticker
// demotion; a source inside its KoD hold-down scores zero. See
// DESIGN.md for the formula and its rationale.
const (
	// delayScale and jitterScale normalize the quality denominator: a
	// source at 100 ms smoothed delay or 25 ms jitter loses half its
	// reach-score relative to an instantaneous one.
	delayScale  = 0.100 // seconds
	jitterScale = 0.025 // seconds
	// unpolledScore is the neutral prior of a source that has never
	// been queried: below a proven-good source, above a flaky one.
	unpolledScore = 0.4
	// maxFalsetickerWeight caps the exponential demotion so a
	// rehabilitated source can climb back within a few clean rounds.
	maxFalsetickerWeight = 6
	// fallbackMargin is the score ratio the top-ranked source must
	// hold over the runner-up before a no-consensus round is resolved
	// in its favor (SelectCombine fallback).
	fallbackMargin = 1.5
)

// source is the health state of one upstream slot. All fields are
// guarded by the pool mutex.
type source struct {
	name string
	// reach is the reachability shift register: bit 0 is the most
	// recent exchange, 1 = a valid reply arrived.
	reach uint8
	// delay and jitter are RFC 5905-style exponential averages
	// (gain 1/8) of the round-trip delay and its variation, seconds.
	delay, jitter float64
	haveDelay     bool
	// kodUntil is the end of the current KoD hold-down; kodStreak
	// counts consecutive KoDs and drives the exponential back-off.
	kodUntil  time.Time
	kodStreak int
	// falseticker is the decaying demotion weight: +1 per round the
	// source was flagged a falseticker, halved per round it survived.
	falseticker float64
	// Lifetime counters for observability.
	exchanges, kods, failures int
	lastOffset                time.Duration
	lastErr                   string
}

func (s *source) score(now time.Time) float64 {
	if !s.kodUntil.IsZero() && now.Before(s.kodUntil) {
		return 0
	}
	if s.exchanges == 0 {
		return unpolledScore
	}
	q := 1 + s.delay/delayScale + s.jitter/jitterScale
	return weightedReach(s.reach) / q / math.Pow(2, s.falseticker)
}

// weightedReach collapses the shift register into [0, 1], weighting
// recent exchanges geometrically (bit i counts 2^-i) so one fresh
// failure hurts more than an old one.
func weightedReach(reach uint8) float64 {
	var sum, norm float64
	for i, w := range reachWeight {
		norm += w
		if reach&(1<<uint(i)) != 0 {
			sum += w
		}
	}
	return sum / norm
}

// reachWeight[i] is 2^-i, exactly.
var reachWeight = [8]float64{1, 1. / 2, 1. / 4, 1. / 8, 1. / 16, 1. / 32, 1. / 64, 1. / 128}

// Pool owns the upstream sources and their health state. All methods
// are safe for concurrent use.
type Pool struct {
	cfg Config
	clk clock.Clock
	tr  exchange.Transport

	mu   sync.Mutex
	srcs []*source
}

// New creates a pool over the given clock and transport. Both may be
// nil for pools that never query on their own behalf (the full NTP
// client measures itself and feeds the pool through the Report
// methods) — but then Round and MeasureBest must not be called.
func New(clk clock.Clock, tr exchange.Transport, cfg Config) *Pool {
	cfg.applyDefaults()
	p := &Pool{cfg: cfg, clk: clk, tr: tr}
	for _, name := range cfg.Servers {
		p.srcs = append(p.srcs, &source{name: name})
	}
	return p
}

// now reads the pool clock, tolerating a nil clock for pools that are
// driven externally through the Report methods.
func (p *Pool) now() time.Time {
	if p.clk == nil {
		return time.Time{}
	}
	return p.clk.Now()
}

// errNoEligibleSource is returned when every source is inside its KoD
// hold-down.
var errNoEligibleSource = errors.New("sources: no eligible source (all held down)")

// errDeadline is returned when an exchange exceeded the pool's
// per-exchange wall-clock deadline.
var errDeadline = errors.New("sources: exchange deadline exceeded")

// maxStackSlots sizes a round's on-stack scratch (slots, scores,
// intervals); a pool with more sources spills it to the heap.
const maxStackSlots = 8

// eligibleIdx appends to dst the slots not currently in KoD hold-down,
// in slot order. Caller must hold p.mu.
func (p *Pool) eligibleIdx(now time.Time, dst []int) []int {
	for i, s := range p.srcs {
		if s.kodUntil.IsZero() || !now.Before(s.kodUntil) {
			dst = append(dst, i)
		}
	}
	return dst
}

// EligibleNames returns the names of the sources not currently held
// down, in configuration order. External drivers iterate this and
// report outcomes back through ReportSample/ReportError.
func (p *Pool) EligibleNames() []string {
	now := p.now()
	p.mu.Lock()
	defer p.mu.Unlock()
	var buf [maxStackSlots]int
	var out []string
	for _, i := range p.eligibleIdx(now, buf[:0]) {
		out = append(out, p.srcs[i].name)
	}
	return out
}

// rankedLocked appends the ranking to dst: each source is scored once
// and the handful of slots insertion-sorted, ties keeping slot order.
func (p *Pool) rankedLocked(now time.Time, dst []int) []int {
	elig := p.eligibleIdx(now, dst)
	var buf [maxStackSlots]float64
	scores := buf[:0]
	for _, i := range elig {
		scores = append(scores, p.srcs[i].score(now))
	}
	for a := 1; a < len(elig); a++ {
		for b := a; b > 0 && scores[b] > scores[b-1]; b-- {
			elig[b], elig[b-1] = elig[b-1], elig[b]
			scores[b], scores[b-1] = scores[b-1], scores[b]
		}
	}
	return elig
}

// ---- health accounting ----

func (p *Pool) reportSuccess(i int, s exchange.Sample) {
	p.mu.Lock()
	defer p.mu.Unlock()
	src := p.srcs[i]
	src.exchanges++
	src.reach = src.reach<<1 | 1
	src.kodStreak = 0
	src.kodUntil = time.Time{}
	d := s.Delay.Seconds()
	if !src.haveDelay {
		src.delay, src.haveDelay = d, true
	} else {
		diff := math.Abs(d - src.delay)
		src.delay += (d - src.delay) / 8
		src.jitter += (diff - src.jitter) / 8
	}
	src.lastOffset = s.Offset
	src.lastErr = ""
}

func (p *Pool) reportKoD(i int, now time.Time, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	src := p.srcs[i]
	src.exchanges++
	src.kods++
	src.reach <<= 1
	src.kodStreak++
	hold := p.cfg.KoDBaseHold << uint(src.kodStreak-1)
	if hold > kodMaxHold || hold <= 0 {
		hold = kodMaxHold
	}
	src.kodUntil = now.Add(hold)
	src.lastErr = err.Error()
}

func (p *Pool) reportFailure(i int, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	src := p.srcs[i]
	src.exchanges++
	src.failures++
	src.reach <<= 1
	src.lastErr = err.Error()
}

func (p *Pool) markFalseticker(i int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	src := p.srcs[i]
	src.falseticker++
	if src.falseticker > maxFalsetickerWeight {
		src.falseticker = maxFalsetickerWeight
	}
}

func (p *Pool) markSurvivor(i int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.srcs[i].falseticker /= 2
}

// indexOf returns the first slot with the given name. Caller must
// hold p.mu.
func (p *Pool) indexOf(name string) int {
	for i, s := range p.srcs {
		if s.name == name {
			return i
		}
	}
	return -1
}

// ReportSample records a successful exchange for the named source
// (first slot with that name): reach, delay and jitter are updated
// and any KoD streak is cleared. External drivers that perform their
// own exchanges use this.
func (p *Pool) ReportSample(name string, s exchange.Sample) {
	p.mu.Lock()
	i := p.indexOf(name)
	p.mu.Unlock()
	if i >= 0 {
		p.reportSuccess(i, s)
	}
}

// ReportError records a failed exchange for the named source. A
// kiss-of-death error puts the source into exponential hold-down;
// anything else just clears the reach bit.
func (p *Pool) ReportError(name string, err error) {
	now := p.now()
	p.mu.Lock()
	i := p.indexOf(name)
	p.mu.Unlock()
	if i < 0 {
		return
	}
	if errors.Is(err, ntppkt.ErrKissOfDeath) {
		p.reportKoD(i, now, err)
	} else {
		p.reportFailure(i, err)
	}
}

// ResetHealth clears the path-dependent health state of every source:
// the reach register and the smoothed delay/jitter, all of which
// describe the network path that just changed, are dropped; lifetime
// counters, falseticker demotion (a property of the server's truth,
// not of the path) and KoD hold-downs (rate-limiting abuse protection
// owed to the server regardless of where we roam) survive. Clients
// call this from their NetworkChanged hook so the pool re-learns the
// new path instead of ranking sources by stale measurements.
func (p *Pool) ResetHealth() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range p.srcs {
		s.reach = 0
		s.delay, s.jitter = 0, 0
		s.haveDelay = false
		s.lastErr = ""
	}
}

// MarkResult records a selection outcome computed outside the pool:
// survivors have their falseticker weight decayed, flagged sources
// accumulate demotion.
func (p *Pool) MarkResult(survivors, falsetickers []string) {
	for _, n := range survivors {
		p.mu.Lock()
		i := p.indexOf(n)
		p.mu.Unlock()
		if i >= 0 {
			p.markSurvivor(i)
		}
	}
	for _, n := range falsetickers {
		p.mu.Lock()
		i := p.indexOf(n)
		p.mu.Unlock()
		if i >= 0 {
			p.markFalseticker(i)
		}
	}
}

// ---- status ----

// SourceStatus is an observable snapshot of one source slot.
type SourceStatus struct {
	Name        string
	Reach       uint8
	Score       float64
	Delay       time.Duration
	Jitter      time.Duration
	KoD         bool // currently inside the hold-down
	KoDUntil    time.Time
	KoDStreak   int
	Falseticker float64 // demotion weight (0 = trusted)
	Exchanges   int
	KoDs        int
	Failures    int
	LastOffset  time.Duration
	LastErr     string
}

// Status returns a snapshot of every source slot, in slot order.
func (p *Pool) Status() []SourceStatus {
	now := p.now()
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]SourceStatus, len(p.srcs))
	for i, s := range p.srcs {
		out[i] = SourceStatus{
			Name:        s.name,
			Reach:       s.reach,
			Score:       s.score(now),
			Delay:       time.Duration(s.delay * float64(time.Second)),
			Jitter:      time.Duration(s.jitter * float64(time.Second)),
			KoD:         !s.kodUntil.IsZero() && now.Before(s.kodUntil),
			KoDUntil:    s.kodUntil,
			KoDStreak:   s.kodStreak,
			Falseticker: s.falseticker,
			Exchanges:   s.exchanges,
			KoDs:        s.kods,
			Failures:    s.failures,
			LastOffset:  s.lastOffset,
			LastErr:     s.lastErr,
		}
	}
	return out
}

// FormatStatus renders a status snapshot as an aligned table for CLI
// dumps.
func FormatStatus(sts []SourceStatus) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %-8s %6s %9s %9s %5s %4s %5s %5s %s\n",
		"source", "reach", "score", "delay", "jitter", "ftick", "kods", "fails", "exch", "state")
	for _, st := range sts {
		state := "ok"
		switch {
		case st.KoD:
			state = fmt.Sprintf("kod-holddown(x%d)", st.KoDStreak)
		case st.Falseticker >= 1:
			state = "falseticker"
		case st.Exchanges == 0:
			state = "unpolled"
		}
		fmt.Fprintf(&b, "%-24s %08b %6.3f %8.2fms %8.2fms %5.1f %4d %5d %5d %s\n",
			st.Name, st.Reach, st.Score,
			st.Delay.Seconds()*1000, st.Jitter.Seconds()*1000,
			st.Falseticker, st.KoDs, st.Failures, st.Exchanges, state)
	}
	return b.String()
}
