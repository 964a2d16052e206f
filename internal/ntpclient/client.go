package ntpclient

import (
	"errors"
	"math/rand"
	"time"

	"mntp/internal/clock"
	"mntp/internal/discipline"
	"mntp/internal/exchange"
	"mntp/internal/ntppkt"
	"mntp/internal/sources"
	"mntp/internal/sysclock"
)

// Config parameterizes the full NTP client.
type Config struct {
	// Servers are the references to poll (ntpd typically uses 3–4).
	Servers []string
	// MaxPoll is the upper bound of the adaptive poll interval
	// (default 1024 s); the lower bound is minPoll.
	MaxPoll time.Duration
	// InitialFreq seeds the frequency correction (seconds per
	// second), like ntpd's drift file: a host that has run NTP before
	// starts with its oscillator error mostly pre-compensated.
	InitialFreq float64
}

const (
	// minPoll is the lower bound of the adaptive poll interval.
	minPoll = 16 * time.Second
	// panicThreshold refuses offsets beyond it once the clock has been
	// disciplined (ntpd's PANICT — but instead of exiting like ntpd,
	// the round reports Update.Panicked and the clock is left alone).
	// The step threshold and the frequency clamp are the discipline's
	// own (128 ms and ±500 ppm, ntpd's STEPT and maximum).
	panicThreshold = 1000 * time.Second
	// pollJitter randomizes Update.Poll by ± this fraction so a fleet
	// of clients sharing a cold-start instant cannot phase-lock on the
	// pool (ntpd's poll randomization serves the same purpose).
	// pollInterval() stays exact — the jitter is applied to each
	// round's returned wait, not to the adaptive interval state.
	pollJitter = 0.1
	// jitterSeed seeds the poll-jitter randomness, so simulations stay
	// reproducible.
	jitterSeed = 0x6e747063
)

// Update is the outcome of one poll round.
type Update struct {
	// Offset is the combined clock offset estimate.
	Offset time.Duration
	// Survivors and Falsetickers count the selection outcome.
	Survivors, Falsetickers int
	// Applied reports whether the discipline adjusted the clock.
	Applied bool
	// Stepped reports whether the adjustment was a step (vs slew).
	Stepped bool
	// Panicked reports that the offset exceeded the panic threshold
	// and the discipline refused to apply it.
	Panicked bool
	// Poll is the interval until the next round.
	Poll time.Duration
}

// errNoConsensus is returned when selection finds no majority clique
// of agreeing servers.
var errNoConsensus = errors.New("ntpclient: no server consensus")

// Client is a full NTP client disciplining an adjustable clock.
type Client struct {
	Clock     clock.Adjustable
	Transport exchange.Transport
	Config    Config

	peers map[string]*peerFilter
	// pool tracks per-server health: the reachability register,
	// smoothed delay/jitter, kiss-of-death hold-downs (replacing the
	// old fixed demobilization map) and falseticker demotions from
	// selection. The client performs its own exchanges — the pool is
	// fed through its Report methods.
	pool *sources.Pool
	// disc gates every clock correction: step-vs-slew (slew gain 1/2
	// emulates the old half-offset nudge), the panic threshold and
	// the shared frequency clamp.
	disc *discipline.Discipline
	// discipline state
	freq     float64 // accumulated frequency correction (s/s)
	pollExp  int     // current poll interval = minPoll << pollExp
	lastTime time.Time
	haveLast bool
	// jrng draws the per-round poll jitter.
	jrng *rand.Rand
}

// New creates a client with defaults applied.
func New(clk clock.Adjustable, tr exchange.Transport, cfg Config) *Client {
	if cfg.MaxPoll == 0 {
		cfg.MaxPoll = 1024 * time.Second
	}
	c := &Client{
		Clock: clk, Transport: tr, Config: cfg,
		peers: make(map[string]*peerFilter),
		pool: sources.New(clk, nil, sources.Config{
			Servers:     cfg.Servers,
			FullNTP:     true,
			KoDBaseHold: demobilizePeriod,
		}),
	}
	c.jrng = rand.New(rand.NewSource(jitterSeed))
	c.disc = discipline.New(sysclock.SimAdjuster{Clock: clk}, discipline.Config{
		PanicThreshold: panicThreshold,
		SlewGain:       0.5,
	})
	if cfg.InitialFreq != 0 {
		// Through the gate, so a corrupt drift-file value is clamped
		// to the shared ±500 ppm bound before touching the clock.
		c.freq, _ = c.disc.SetFreq(cfg.InitialFreq)
	}
	for _, s := range cfg.Servers {
		c.peers[s] = &peerFilter{}
	}
	return c
}

// pollInterval returns the current adaptive poll interval.
func (c *Client) pollInterval() time.Duration {
	iv := minPoll << uint(c.pollExp)
	if iv > c.Config.MaxPoll {
		iv = c.Config.MaxPoll
	}
	return iv
}

// nextPoll returns the adaptive interval randomized by ±pollJitter —
// the wait Update.Poll reports, de-phasing fleets of clients.
func (c *Client) nextPoll() time.Duration {
	iv := c.pollInterval()
	span := time.Duration(float64(iv) * pollJitter)
	return iv - span + time.Duration(c.jrng.Int63n(int64(2*span)+1))
}

// demobilizePeriod is the base hold-down for a server answering with
// kiss-of-death (RFC 5905 requires demobilization); repeated KoDs
// extend it exponentially via the source pool.
const demobilizePeriod = 1 * time.Hour

// Poll performs one round: query every server the pool deems
// eligible, filter, select, cluster, combine and discipline the
// clock. Individual server failures are tolerated and recorded in
// the pool's health state; a kiss-of-death reply puts the peer into
// exponential hold-down. The round fails only if no server answers
// or selection finds no consensus.
func (c *Client) Poll() (Update, error) {
	var cands []candidate
	for _, server := range c.pool.EligibleNames() {
		s, err := exchange.Measure(c.Clock, c.Transport, server, ntppkt.Version4, false)
		if err != nil {
			c.pool.ReportError(server, err)
			continue
		}
		c.pool.ReportSample(server, s)
		pf := c.peers[server]
		pf.add(s)
		best, jitter, ok := pf.best()
		if !ok {
			continue
		}
		best = agedSample(best, c.Clock.Now())
		cands = append(cands, candidate{Server: server, Sample: best, Jitter: jitter})
	}
	if len(cands) == 0 {
		return Update{Poll: c.nextPoll()}, errors.New("ntpclient: all servers unreachable")
	}

	surv := selectSurvivors(cands)
	if len(surv) == 0 {
		return Update{Poll: c.nextPoll()}, errNoConsensus
	}
	c.markSelection(cands, surv)
	surv = cluster(surv)
	offset, _ := combine(surv)

	u := Update{
		Offset:       offset,
		Survivors:    len(surv),
		Falsetickers: len(cands) - len(surv),
	}
	c.discipline(offset, &u)
	c.adaptPoll(offset, surv)
	u.Poll = c.nextPoll()
	return u, nil
}

// markSelection feeds the selection outcome back into the pool's
// health state: survivors decay their falseticker demotion, flagged
// candidates accumulate it (and sink in the ranking).
func (c *Client) markSelection(cands, surv []candidate) {
	inSurv := make(map[string]bool, len(surv))
	survNames := make([]string, 0, len(surv))
	for _, s := range surv {
		inSurv[s.Server] = true
		survNames = append(survNames, s.Server)
	}
	var falseNames []string
	for _, cd := range cands {
		if !inSurv[cd.Server] {
			falseNames = append(falseNames, cd.Server)
		}
	}
	c.pool.MarkResult(survNames, falseNames)
}

// discipline applies the offset to the clock through the discipline
// gate: a step beyond the step threshold, a refusal beyond the panic
// threshold, otherwise a phase nudge (half the offset, via the gate's
// slew gain) plus an integral frequency correction (a first-order
// PLL).
func (c *Client) discipline(offset time.Duration, u *Update) {
	now := c.Clock.Now()
	res := c.disc.Apply(offset, now)
	switch res.Action {
	case discipline.ActionPanic:
		// An implausible jump after the clock has been disciplined:
		// refuse it and keep the filter history — if it is real, it
		// will persist and the caller can decide to restart.
		u.Panicked = true
		return
	case discipline.ActionStepped:
		// A step invalidates phase history and every sample in the
		// peer filters (their offsets were measured against the
		// pre-step clock); ntpd likewise clears its registers.
		c.haveLast = false
		for _, pf := range c.peers {
			*pf = peerFilter{}
		}
		u.Applied, u.Stepped = true, true
		return
	}
	// Slewed: half the measured offset was applied immediately (the
	// remainder is absorbed by subsequent rounds, emulating ntpd's
	// gradual slew without sub-second simulation ticks). The filter
	// registers are re-expressed against the adjusted clock so the
	// same error is never corrected twice.
	for _, pf := range c.peers {
		pf.shiftOffsets(res.Applied)
	}
	// Frequency: PLL integral term, freq += θ·μ/(4·τ²) with the time
	// constant τ floored at 64 s so measurement noise at short poll
	// intervals does not random-walk the frequency (RFC 5905 §11.3).
	// The gate clamps the accumulated value to the shared ±500 ppm.
	if c.haveLast {
		dt := now.Sub(c.lastTime).Seconds()
		if dt > 0 {
			tc := dt
			if tc < 64 {
				tc = 64
			}
			c.freq += offset.Seconds() * dt / (4 * tc * tc)
			c.freq, _ = c.disc.SetFreq(c.freq)
		}
	}
	c.lastTime = now
	c.haveLast = true
	u.Applied = true
}

// adaptPoll widens the poll interval while the loop is quiet and
// narrows it when offsets grow relative to the survivors' jitter.
func (c *Client) adaptPoll(offset time.Duration, surv []candidate) {
	var maxJitter time.Duration
	for _, s := range surv {
		if s.Jitter > maxJitter {
			maxJitter = s.Jitter
		}
	}
	if maxJitter < time.Millisecond {
		maxJitter = time.Millisecond
	}
	abs := offset
	if abs < 0 {
		abs = -abs
	}
	maxExp := 0
	for iv := minPoll; iv < c.Config.MaxPoll; iv <<= 1 {
		maxExp++
	}
	if abs < 4*maxJitter {
		if c.pollExp < maxExp {
			c.pollExp++
		}
	} else if c.pollExp > 0 {
		c.pollExp--
	}
}
