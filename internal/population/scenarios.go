// Population-scale scenarios: first-class, seeded, assertable
// programs over the engine. Each returns a Report whose Violations
// list is empty iff the scenario's invariants held — the same
// contract as the chaos harness, so CI and cmd/ntppop consume them
// uniformly.
package population

import (
	"fmt"
	"time"

	"mntp/internal/ntpnet"
)

// Report is one scenario's JSON-serializable outcome.
type Report struct {
	Scenario       string  `json:"scenario"`
	N              int     `json:"n"`
	Seed           int64   `json:"seed"`
	Mode           string  `json:"mode"`
	VirtualSeconds float64 `json:"virtual_seconds"`

	Sent   uint64 `json:"sent"`
	Served uint64 `json:"served"`
	Rated  uint64 `json:"rated"`
	Fails  uint64 `json:"fails"`

	ServedClients int `json:"served_clients"`
	RatedClients  int `json:"rated_clients,omitempty"`
	MaxDryStreak  int `json:"max_dry_streak"`

	PeakToMeanLocked   float64 `json:"peak_to_mean_locked,omitempty"`
	PeakToMeanJittered float64 `json:"peak_to_mean_jittered,omitempty"`

	MedianOffsetMS float64 `json:"median_offset_ms,omitempty"`
	P99OffsetMS    float64 `json:"p99_offset_ms,omitempty"`
	FracAbove100MS float64 `json:"frac_above_100ms,omitempty"`

	RTTP50MS float64 `json:"rtt_p50_ms,omitempty"`
	RTTP99MS float64 `json:"rtt_p99_ms,omitempty"`

	Violations []string `json:"violations"`
	Pass       bool     `json:"pass"`
}

func (r *Report) Violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

func (r *Report) Finish(e *Engine, horizon time.Duration) {
	t := e.Totals()
	r.Sent, r.Served, r.Rated, r.Fails = t.Sent, t.OK, t.Rated, t.Fails
	r.ServedClients = e.ServedClients()
	r.RatedClients = e.RatedClients()
	r.MaxDryStreak = e.MaxDryStreak()
	r.VirtualSeconds = horizon.Seconds()
	if q, ok := e.RTT().Quantile(0.5); ok {
		r.RTTP50MS = float64(q) / 1e6
	}
	if q, ok := e.RTT().Quantile(0.99); ok {
		r.RTTP99MS = float64(q) / 1e6
	}
	r.Pass = len(r.Violations) == 0
	if r.Violations == nil {
		r.Violations = []string{}
	}
}

// Scenario names accepted by Run and cmd/ntppop. The two chaos-
// prefixed ones replay a single-client chaos scenario's fault window
// over a fleet.
const (
	ScenarioHerd            = "herd"
	ScenarioNAT             = "nat"
	ScenarioFalseticker     = "falseticker"
	scenarioBlackout        = "chaos-blackout"
	scenarioFalsetickerFlip = "chaos-falseticker-flip"
)

// catalog is every scenario in presentation order with its default
// population size.
var catalog = []struct {
	name string
	n    int
	run  func(n int, seed int64) (*Report, error)
}{
	{ScenarioHerd, 5000, ThunderingHerd},
	{ScenarioNAT, 10000, NATCollision},
	{ScenarioFalseticker, 20000, PartialFalseticker},
	{scenarioBlackout, 2000, blackout},
	{scenarioFalsetickerFlip, 4000, falsetickerFlip},
}

// Scenarios lists the catalog in presentation order.
func Scenarios() []string {
	names := make([]string, len(catalog))
	for i, s := range catalog {
		names[i] = s.name
	}
	return names
}

// Run runs a scenario by name, at its default population size when n
// is 0.
func Run(name string, n int, seed int64) (*Report, error) {
	for _, s := range catalog {
		if s.name == name {
			if n == 0 {
				n = s.n
			}
			return s.run(n, seed)
		}
	}
	return nil, fmt.Errorf("population: unknown scenario %q (have %v)", name, Scenarios())
}

// goodPool is the default honest four-server pool for sim scenarios.
func goodPool() []Upstream {
	return []Upstream{
		{Name: "s0", Err: 1 * time.Millisecond, Stratum: 2},
		{Name: "s1", Err: -2 * time.Millisecond, Stratum: 2},
		{Name: "s2", Err: 2 * time.Millisecond, Stratum: 2},
		{Name: "s3", Err: -1 * time.Millisecond, Stratum: 3},
	}
}

// ThunderingHerd runs the same synchronized cold start twice — once
// with poll jitter disabled (the phase-locked fleet) and once with
// the default 10% jitter — and compares arrival burstiness. The
// assertion is the satellite fix's contract: jitter breaks the lock.
func ThunderingHerd(n int, seed int64) (*Report, error) {
	const (
		poll    = 64 * time.Second
		rounds  = 16
		horizon = time.Duration(rounds) * poll
	)
	run := func(jitter float64) (*Engine, error) {
		e, err := New(Config{
			N:         n,
			Seed:      seed,
			Mode:      ModeSim,
			Upstreams: goodPool(),
			PollBase:  poll,
			// StartSpread 0: every device wakes at the same instant —
			// the post-outage regional power-restore shape.
			PollJitter: jitter,
		})
		if err != nil {
			return nil, err
		}
		return e, e.Run(horizon)
	}

	locked, err := run(0)
	if err != nil {
		return nil, err
	}
	jittered, err := run(0.1)
	if err != nil {
		return nil, err
	}

	r := &Report{Scenario: ScenarioHerd, N: n, Seed: seed, Mode: "sim"}
	// Skip the synchronized cold-start bin — identical for both
	// fleets by construction; the herd is about every round after.
	r.PeakToMeanLocked = locked.Bins().PeakToMean(1)
	r.PeakToMeanJittered = jittered.Bins().PeakToMean(1)
	if r.PeakToMeanLocked < 20 {
		r.Violate("locked fleet peak/mean %.1f < 20: the herd never formed (harness broken)", r.PeakToMeanLocked)
	}
	if r.PeakToMeanJittered > 15 {
		r.Violate("jittered fleet peak/mean %.1f > 15: jitter failed to break the phase lock", r.PeakToMeanJittered)
	}
	if r.PeakToMeanLocked < 3*r.PeakToMeanJittered {
		r.Violate("locked/jittered burstiness ratio %.1f < 3", r.PeakToMeanLocked/r.PeakToMeanJittered)
	}
	r.Finish(jittered, horizon)
	return r, nil
}

// PartialFalseticker puts a 400ms liar in the pool that only a
// fraction of the population can see — and the affected clients can
// see just one honest server beside it, so the warm-up median has no
// rejection power for them (two samples average instead of vote).
// The assertion is the population-scale contract: a partial liar may
// wreck its captives' tails, but the population median stays sane.
func PartialFalseticker(n int, seed int64) (*Report, error) {
	const (
		liarErr        = 400 * time.Millisecond
		affectedFrac   = 0.2
		poll           = 64 * time.Second
		horizon        = 8 * poll
		liarIdx        = 4
		goodVisibility = 0b1111
	)
	ups := append(goodPool(), Upstream{Name: "liar", Err: liarErr, Stratum: 2})
	e, err := New(Config{
		N:         n,
		Seed:      seed,
		Mode:      ModeSim,
		Upstreams: ups,
		PollBase:  poll,
		// De-phase starts so warm-ups don't collide in one instant.
		StartSpread: poll,
		PollJitter:  0.1,
		VisibilityFn: func(id int, rng *uint64) uint64 {
			if RandFloat(rng) < affectedFrac {
				// Captive client: the liar plus one honest server.
				return 1<<liarIdx | 1<<(Rand(rng)%4)
			}
			return goodVisibility
		},
	})
	if err != nil {
		return nil, err
	}
	if err := e.Run(horizon); err != nil {
		return nil, err
	}

	r := &Report{Scenario: ScenarioFalseticker, N: n, Seed: seed, Mode: "sim"}
	st := e.Stats(100 * time.Millisecond)
	r.MedianOffsetMS = float64(st.Median) / 1e6
	r.P99OffsetMS = float64(st.P99) / 1e6
	r.FracAbove100MS = st.FracAbove
	if st.Median > 25*time.Millisecond {
		r.Violate("population median offset %v > 25ms: the liar moved the median", st.Median)
	}
	if st.FracAbove > 0.18 {
		r.Violate("%.1f%% of clients beyond 100ms > 18%%: liar captured more than its visibility share", 100*st.FracAbove)
	}
	if st.FracAbove < 0.02 {
		r.Violate("only %.1f%% of clients beyond 100ms < 2%%: the liar did no damage (harness broken)", 100*st.FracAbove)
	}
	r.Finish(e, horizon)
	return r, nil
}

// The chaos promotions' timeline in 64 s poll rounds: the fault holds
// over rounds 5–8 and the fleet is judged at round 14.
const (
	chaosPoll      = 64 * time.Second
	chaosFrom      = 5 * chaosPoll
	chaosTo        = 8 * chaosPoll
	chaosHorizon   = 14 * chaosPoll
	chaosLiarError = 400 * time.Millisecond
)

// chaosFleet is the honest fleet both chaos promotions start from.
func chaosFleet(n int, seed int64) (*Engine, error) {
	return New(Config{
		N:           n,
		Seed:        seed,
		Mode:        ModeSim,
		Upstreams:   goodPool(),
		PollBase:    chaosPoll,
		PollJitter:  0.1,
		StartSpread: 30 * time.Second,
	})
}

// blackout promotes chaos' total-blackout scenario: a network outage
// over the window hits every client, and after restoration the whole
// fleet must be served and re-converged by the horizon.
func blackout(n int, seed int64) (*Report, error) {
	e, err := chaosFleet(n, seed)
	if err != nil {
		return nil, err
	}
	e.At(chaosFrom, func() { e.SetOutage(true) })
	e.At(chaosTo, func() { e.SetOutage(false) })
	if err := e.Run(chaosHorizon); err != nil {
		return nil, err
	}

	r := &Report{Scenario: scenarioBlackout, N: n, Seed: seed, Mode: "sim"}
	if e.Totals().Fails == 0 {
		r.Violate("blackout window produced no failed polls (harness broken)")
	}
	if got := e.ServedClients(); got < n {
		r.Violate("%d of %d clients never served after the blackout lifted", n-got, n)
	}
	if st := e.Stats(0); st.Median > 20*time.Millisecond {
		r.Violate("population median %v after recovery, want ≤ 20ms", st.Median)
	}
	r.Finish(e, chaosHorizon)
	return r, nil
}

// falsetickerFlip promotes chaos' falseticker scenario: an honest
// upstream turns into a 400ms liar for the window, dragging the
// clients locked to it, then recants. Mid-window the lie must show in
// the population tail; by the horizon the fleet must have re-converged
// and the median must never have moved.
func falsetickerFlip(n int, seed int64) (*Report, error) {
	e, err := chaosFleet(n, seed)
	if err != nil {
		return nil, err
	}
	var mid OffsetStats
	e.At(chaosFrom, func() { e.SetUpstreamErr(0, chaosLiarError) })
	e.At(chaosTo-time.Second, func() { mid = e.Stats(100 * time.Millisecond) })
	e.At(chaosTo, func() { e.SetUpstreamErr(0, 1*time.Millisecond) })
	if err := e.Run(chaosHorizon); err != nil {
		return nil, err
	}

	r := &Report{Scenario: scenarioFalsetickerFlip, N: n, Seed: seed, Mode: "sim"}
	if mid.FracAbove < 0.02 {
		r.Violate("mid-window only %.1f%% of clients beyond 100ms: the flipped server captured nobody (harness broken)", 100*mid.FracAbove)
	}
	if mid.Median > 25*time.Millisecond {
		r.Violate("mid-window population median %v > 25ms: one liar moved the median", mid.Median)
	}
	st := e.Stats(100 * time.Millisecond)
	if st.Median > 20*time.Millisecond {
		r.Violate("population median %v after the flip-back, want ≤ 20ms", st.Median)
	}
	if st.FracAbove > 0.01 {
		r.Violate("%.1f%% of clients still beyond 100ms after the flip-back", 100*st.FracAbove)
	}
	r.Finish(e, chaosHorizon)
	return r, nil
}

// NATCollision drives n clients that all share one source IP into
// the real server's per-IP rate-limit table. The first synchronized
// window blows the budget — thousands of RATE kisses — and the
// assertion is the starvation bound: backoff plus jitter must get
// every single client served within the horizon, with a small worst
// dry streak.
func NATCollision(n int, seed int64) (*Report, error) {
	const (
		poll       = 60 * time.Second
		horizon    = 300 * time.Second
		rateWindow = 10 * time.Second
		rateLimit  = 5000
	)
	srv := ntpnet.NewServer(nil, 2) // New gives it the engine's clock
	srv.RateLimit = rateLimit
	srv.RateWindow = rateWindow
	e, err := New(Config{
		N:           n,
		Seed:        seed,
		Mode:        ModeServer,
		Server:      srv,
		PollBase:    poll,
		PollJitter:  0.1,
		StartSpread: 5 * time.Second,
		// Cap KoD backoff at 2× the base poll: with half the
		// population RATE'd in the first shared window, a deeper
		// exponential would push twice-kissed clients past any
		// reasonable horizon — the starvation the scenario polices.
		MaxBackoffShift: 1,
	})
	if err != nil {
		return nil, err
	}
	if err := e.Run(horizon); err != nil {
		return nil, err
	}

	r := &Report{Scenario: ScenarioNAT, N: n, Seed: seed, Mode: "server"}
	if e.ServedClients() < n {
		r.Violate("%d of %d clients never served: the rate limiter starved the NAT population", n-e.ServedClients(), n)
	}
	if e.RatedClients() < n/4 {
		r.Violate("only %d clients saw RATE (< n/4): the collision never happened (harness broken)", e.RatedClients())
	}
	if d := e.MaxDryStreak(); d > 3 {
		r.Violate("worst dry streak %d > 3 polls", d)
	}
	r.Finish(e, horizon)
	return r, nil
}
