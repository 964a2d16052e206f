// Package population is a discrete-event fleet simulator: N mobile
// NTP clients — each with a seeded wireless channel, an oscillator
// clock (offset + skew, the internal/clock model) and a randomized
// poll interval — driven in virtual time
// against either the simulated internal/netsim server pool or the
// real internal/ntpnet server's request path, called in process.
//
// The engine is built for a million clients on one box, so the design
// is flat and pooled throughout, and one regular-phase
// ModeSim exchange allocates nothing and touches no atomic:
//
//   - no per-client goroutine: a client is one 32-byte row of a flat
//     slice, plus a 16-byte pending event in a sharded binary heap
//     keyed on virtual nanoseconds, laid out so a sift level costs one
//     cache line, with each shard's earliest instant cached;
//   - no per-client rng or channel object: each client carries one
//     8-byte splitmix64 state, and wireless channels (≈ KBs each,
//     rand.Rand inside) come from a small shared pool indexed by
//     client id — heterogeneous conditions without per-client cost;
//   - nothing stored that the seed already fixes: a client's skew is a
//     draw of its stream, re-derived where it is read;
//   - client clocks are integrated lazily: a row's offset advances by
//     skew·dt only when its event fires, so idle clients cost nothing.
//
// Aggregate recording uses the shared log-bucketed hist buckets for
// exchange RTTs and fixed-width traffic bins for arrival shaping —
// both O(1) in N.
//
// Both modes run on one goroutine through one loop and replay from
// their seed. modeServer hands each poll, at the client's virtual
// instant and without a network path, to a real ntpnet.Server whose
// clock is the engine's: its rate-limit windows follow virtual time.
// Every client shares one source address, which is exactly the
// NAT-collision population the rate limiter must not starve.
package population

import (
	"fmt"
	"math"
	"net/netip"
	"sort"
	"time"

	"mntp/internal/clock"
	"mntp/internal/hist"
	"mntp/internal/netsim"
	"mntp/internal/ntpnet"
	"mntp/internal/ntppkt"
	"mntp/internal/ntptime"
	"mntp/internal/wireless"
)

// epoch anchors virtual time, matching the chaos harness' testbed
// epoch so traces line up across harnesses.
var epoch = time.Date(2016, 11, 14, 0, 0, 0, 0, time.UTC)

// Mode selects what the population polls.
type Mode int

const (
	// ModeSim exchanges with simulated netsim servers through pooled
	// wireless channels.
	ModeSim Mode = iota
	// modeServer exchanges with Config.Server's request path in
	// process, from one shared source address, with no network path:
	// a poll is served, told RATE, or fails.
	modeServer
)

// natSource is the one address every modeServer client sends from.
var natSource = netip.AddrFrom4([4]byte{198, 51, 100, 1})

// Upstream describes one simulated server of the pool (ModeSim).
type Upstream struct {
	Name string
	// Err is the server clock's error versus true time: a few ms for
	// an honest stratum server, hundreds of ms for a falseticker.
	Err     time.Duration
	Stratum uint8
}

// Config parameterizes an Engine. Zero values select the defaults
// noted per field.
type Config struct {
	N    int
	Seed int64
	Mode Mode

	// Upstreams is the simulated server pool (ModeSim; required there).
	Upstreams []Upstream
	// VisibilityFn, if non-nil, returns the visibility bitmask (bit i
	// = Upstreams[i]) for one client, drawing any randomness from rng
	// via splitmix/splitmixFloat; nil lets every client see every upstream.
	// Partial visibility is the falseticker scenario's key ingredient.
	VisibilityFn func(id int, rng *uint64) uint64

	// PollBase is the regular poll interval (default 64s).
	PollBase time.Duration
	// PollJitter is the poll randomization fraction (uniform in
	// ±PollJitter·PollBase; 0 keeps the fleet phase-locked — the
	// thundering-herd failure mode; negative also disables).
	PollJitter float64
	// StartSpread spreads first polls uniformly over [0, StartSpread)
	// (default 0: a synchronized cold start).
	StartSpread time.Duration
	// WarmupProbes is how many distinct visible servers a cold client
	// samples before applying the median (default 3, the MNTP
	// warm-up's falseticker defense; clamped to the visible count).
	// No scenario sets it: TestWarmupMoreThanEightProbes raises it to
	// guard the probe scratch against the visible count, not a fixed 8.
	WarmupProbes int
	// MaxBackoffShift caps the poll backoff after RATE/timeouts at
	// PollBase << shift (default 2).
	MaxBackoffShift uint8

	// Server is the real server the fleet polls (modeServer; required
	// there). New sets its Clock to the engine's virtual time and takes
	// its Responder, so it must not also Listen.
	Server *ntpnet.Server
}

const (
	// skewPPM bounds the per-client oscillator skew, drawn uniformly
	// in ±skewPPM (the clock package's default part). Typed, so the
	// draw multiplies in the order it would with a variable.
	skewPPM float64 = 18
	// initialOffsetMax bounds the per-client cold-start clock error,
	// uniform in ±.
	initialOffsetMax = 2 * time.Second
	// maxChannels is the wireless channel pool size (fewer when N is
	// smaller): distinct seeds, shared by N/maxChannels clients each.
	maxChannels = 256
	// binWidth is the traffic-bin width for arrival shaping.
	binWidth = time.Second
)

func (c *Config) applyDefaults() error {
	if c.N <= 0 {
		return fmt.Errorf("population: N must be positive, got %d", c.N)
	}
	if c.PollBase <= 0 {
		c.PollBase = 64 * time.Second
	}
	if c.WarmupProbes <= 0 {
		c.WarmupProbes = 3
	}
	if c.MaxBackoffShift == 0 {
		c.MaxBackoffShift = 2
	}
	switch c.Mode {
	case ModeSim:
		if len(c.Upstreams) == 0 {
			return fmt.Errorf("population: ModeSim needs at least one upstream")
		}
		if len(c.Upstreams) > 64 {
			return fmt.Errorf("population: at most 64 upstreams (visibility bitmask), got %d", len(c.Upstreams))
		}
	case modeServer:
		if c.Server == nil {
			return fmt.Errorf("population: modeServer needs a Server")
		}
	default:
		return fmt.Errorf("population: unknown mode %d", c.Mode)
	}
	return nil
}

// row is one client's state: only what cannot be recomputed, 30 bytes
// padded to 32, so a poll touches one cache line of it and two rows
// share a line. Pointer-free, so a million clients are one flat
// allocation the GC never walks. A client's skew is Engine.skew(id), its
// pooled channel id&(maxChannels-1) and its visibility Engine.visMask.
type row struct {
	offset float64 // clock error vs true time, seconds
	last   int64   // virtual ns of the last offset integration
	rng    uint64  // splitmix64 state
	srvIdx int16   // regular server (ModeSim); -1 while cold
	served bool    // served at least once
	rated  bool    // told RATE at least once (modeServer)
	dry    uint8   // consecutive polls without success (sat. 255)
	maxDry uint8   // worst dry streak
	boff   uint8   // current backoff shift
}

// splitmix advances a splitmix64 state and returns 64 fresh bits. It is
// the engine's only rng primitive: 8 bytes per client instead of the
// ~5KB of a math/rand.Rand.
func splitmix(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// splitmixFloat returns a uniform float64 in [0, 1).
func splitmixFloat(s *uint64) float64 { return float64(splitmix(s)>>11) / (1 << 53) }

func randInt(s *uint64, n int64) int64 {
	if n <= 0 {
		return 0
	}
	return int64(splitmix(s) % uint64(n))
}

// ev is one scheduled client poll. Value-typed and 16 bytes, so heap
// shards are flat []ev slices and four events fill a cache line.
type ev struct {
	at int64 // virtual ns
	id int32
}

// evHeap is a binary min-heap on at, 1-based: slot 0 is unused and the
// children of k are 2k and 2k+1. On a 64-byte-aligned array (Go
// page-aligns every allocation above 32 KB) each sibling pair, and each
// k's four grandchildren, then share one cache line, so a level of a
// sift costs at most one miss. Hand-rolled instead of container/heap to
// keep entries value-typed (no interface boxing on a million pushes).
type evHeap []ev

// newEvHeap returns an empty heap with room for capacity events.
func newEvHeap(capacity int) evHeap { return make(evHeap, 1, capacity+1) }

// min is the earliest pending instant, math.MaxInt64 when empty.
func (h evHeap) min() int64 {
	if len(h) < 2 {
		return math.MaxInt64
	}
	return h[1].at
}

// push sifts x up from a new last slot, past parents strictly later.
func (h *evHeap) push(x ev) {
	*h = append(*h, x)
	a := *h
	i := len(a) - 1
	for i > 1 {
		p := i / 2
		if a[p].at <= x.at {
			break
		}
		a[i] = a[p]
		i = p
	}
	a[i] = x
}

// pop is Floyd's bottom-up sift: the hole at the root sinks to a leaf
// along the smaller children (one comparison a level), then the
// displaced last element rises from there. The right child only wins
// when strictly earlier and the rise passes equal keys: that leaves the
// array exactly as the textbook top-down sift would, ties included, and
// tie order is visible in seeded outputs (TestPopMatchesReference).
func (h *evHeap) pop() ev {
	a := *h
	top := a[1]
	n := len(a) - 1 // slots 1..n-1 stay occupied
	x := a[n]
	*h = a[:n]
	i := 1
	for c := 2; c < n; c = 2 * i {
		if r := c + 1; r < n && a[r].at < a[c].at {
			c = r
		}
		a[i] = a[c]
		i = c
	}
	for i > 1 {
		p := i / 2
		if a[p].at < x.at {
			break
		}
		a[i] = a[p]
		i = p
	}
	a[i] = x
	return top
}

// nShards splits the event heap so no single slice holds N entries:
// pushes touch a 1/nShards-sized heap (shorter sift chains, better
// locality) and the next-event scan is a 16-way head comparison.
const nShards = 16

// ctrlEv is a scheduled control action (outage toggles, liar flips —
// the scenario/chaos hook side of the engine).
type ctrlEv struct {
	at int64
	fn func()
}

type simServer struct {
	srv *netsim.Server
	err time.Duration
}

// Engine drives one population. Construct with New, schedule control
// actions with at, then Run. Not safe for concurrent use.
type Engine struct {
	cfg      Config
	seed     uint64 // Config.Seed, 0 mapped to "mntp": the client streams' base
	rows     []row
	visMask  []uint64        // visible-upstream bitmask, only with a VisibilityFn
	heaps    [nShards]evHeap // each sized once: a client has one pending event
	heads    [nShards]int64  // heaps[s].min(), kept by push and pop
	ctrl     []ctrlEv        // sorted ascending by at
	channels []*wireless.Channel
	servers  []simServer
	vt       int64 // current virtual ns
	down     bool  // regional outage: every exchange fails

	// modeServer: the server's request path, the request's wire image
	// and the decoded reply, reused poll to poll.
	respond func(pkt []byte, src netip.Addr) []byte
	reqBuf  []byte
	rep     ntppkt.Packet

	bins  *bins
	rtt   hist.Snapshot // one goroutine records, so no atomics
	sent  uint64
	ok    uint64
	rated uint64
	fails uint64
}

// New builds the fleet, channel pool and event heaps. Memory is
// O(N·48B + maxChannels·channel + bins): a 32-byte row and a 16-byte
// event per client, plus 8 bytes with a VisibilityFn.
func New(cfg Config) (*Engine, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:  cfg,
		seed: uint64(cfg.Seed),
		rows: make([]row, cfg.N),
		bins: newBins(int64(binWidth)),
	}
	if e.seed == 0 {
		e.seed = 0x6d6e7470 // "mntp"
	}
	if cfg.Mode == ModeSim && cfg.VisibilityFn != nil {
		e.visMask = make([]uint64, cfg.N)
	}
	perShard := (cfg.N + nShards - 1) / nShards
	for s := range e.heaps {
		e.heaps[s] = newEvHeap(perShard)
		e.heads[s] = math.MaxInt64
	}

	// Pooled heterogeneous wireless channels.
	e.channels = make([]*wireless.Channel, min(maxChannels, cfg.N))
	now := func() time.Duration { return time.Duration(e.vt) }
	for i := range e.channels {
		e.channels[i] = wireless.NewChannel(wireless.Params{Seed: cfg.Seed*1_000_003 + int64(i)}, now)
	}

	ec := &engineClock{e: e}
	if cfg.Mode == ModeSim {
		e.servers = make([]simServer, len(cfg.Upstreams))
		for i, u := range cfg.Upstreams {
			s := netsim.NewServer(u.Name, &clock.Fixed{Base: ec, Error: u.Err}, u.Stratum, cfg.Seed*31+int64(i))
			if u.Stratum == 0 {
				s.Stratum = 2
			}
			e.servers[i] = simServer{srv: s, err: u.Err}
		}
	} else {
		cfg.Server.Clock = ec
		e.respond = cfg.Server.Responder()
	}

	for i := range e.rows {
		r := &e.rows[i]
		st := e.stream(i)
		r.offset = (2*splitmixFloat(&st) - 1) * initialOffsetMax.Seconds()
		splitmix(&st) // the skew draw, which skew(i) re-derives
		r.rng = st
		r.srvIdx = -1
		if e.visMask != nil {
			m := cfg.VisibilityFn(i, &r.rng)
			if m == 0 {
				m = 1
			}
			e.visMask[i] = m
		}
		first := int64(0)
		if cfg.StartSpread > 0 {
			first = randInt(&r.rng, int64(cfg.StartSpread))
		}
		e.push(ev{at: first, id: int32(i)})
	}
	return e, nil
}

// stream is client id's splitmix64 state before its first draw. The
// draws that follow are its cold-start offset, its skew, then whatever
// New and the run draw from rows[id].rng.
func (e *Engine) stream(id int) uint64 {
	st := e.seed + uint64(id)*0x9e3779b97f4a7c15
	splitmix(&st) // decorrelate adjacent ids
	return st
}

// skew is client id's oscillator skew in s/s, uniform in ±skewPPM: the
// second draw of its stream, re-derived instead of stored.
func (e *Engine) skew(id int) float64 {
	st := e.stream(id)
	splitmix(&st) // the cold-start offset
	return (2*splitmixFloat(&st) - 1) * skewPPM * 1e-6
}

// visibility is client id's visible-upstream bitmask: VisibilityFn's
// draw, kept from New, or every upstream.
func (e *Engine) visibility(id int) uint64 {
	if e.visMask != nil {
		return e.visMask[id]
	}
	return ^uint64(0) >> (64 - len(e.cfg.Upstreams))
}

// engineClock exposes the engine's virtual true time as a
// clock.Clock, so simulated upstreams are ordinary netsim servers
// with clock.Fixed error clocks.
type engineClock struct{ e *Engine }

func (c *engineClock) Now() time.Time { return epoch.Add(time.Duration(c.e.vt)) }

// at schedules fn to run at virtual time d — the scenario/chaos hook
// for outages, liar flips, visibility changes. Must be called before
// Run or from within a prior control action; actions on one instant
// run in call order.
func (e *Engine) at(d time.Duration, fn func()) {
	i := len(e.ctrl)
	e.ctrl = append(e.ctrl, ctrlEv{})
	for ; i > 0 && e.ctrl[i-1].at > int64(d); i-- {
		e.ctrl[i] = e.ctrl[i-1]
	}
	e.ctrl[i] = ctrlEv{at: int64(d), fn: fn}
}

// setOutage toggles a regional outage: while down, every exchange
// fails.
func (e *Engine) setOutage(down bool) { e.down = down }

// setUpstreamErr retargets a simulated upstream's clock error mid-run
// — the falseticker-flip hook (ModeSim).
func (e *Engine) setUpstreamErr(idx int, err time.Duration) {
	s := &e.servers[idx]
	s.err = err
	s.srv.Clock = &clock.Fixed{Base: &engineClock{e: e}, Error: err}
}

// Run advances the population to the virtual horizon.
func (e *Engine) Run(horizon time.Duration) error {
	h := int64(horizon)
	for {
		at, shard, ok := e.nextClient()
		// Control actions run before any client event at the same or
		// later instant.
		for len(e.ctrl) > 0 && e.ctrl[0].at <= h && (!ok || e.ctrl[0].at <= at) {
			c := e.ctrl[0]
			e.ctrl = e.ctrl[1:]
			if c.at > e.vt {
				e.vt = c.at
			}
			c.fn()
		}
		if !ok || at > h {
			break
		}
		evt := e.pop(shard)
		e.vt = evt.at
		e.step(int(evt.id))
	}
	if e.vt < h {
		e.vt = h
	}
	return nil
}

// push schedules x on its client's shard, keeping the shard's head.
func (e *Engine) push(x ev) {
	s := x.id & (nShards - 1)
	e.heaps[s].push(x)
	if x.at < e.heads[s] {
		e.heads[s] = x.at
	}
}

// pop takes shard s's earliest event and re-reads the shard's head.
func (e *Engine) pop(s int) ev {
	x := e.heaps[s].pop()
	e.heads[s] = e.heaps[s].min()
	return x
}

// nextClient scans the shard heads for the earliest pending poll; on a
// tie the lowest shard wins.
func (e *Engine) nextClient() (at int64, shard int, ok bool) {
	at, shard = e.heads[0], 0
	for s := 1; s < nShards; s++ {
		if e.heads[s] < at {
			at, shard = e.heads[s], s
		}
	}
	return at, shard, at != math.MaxInt64
}

// integrate advances client id's oscillator, row r, to the current
// instant: the lazy form of clock.Sim's skew model.
func (e *Engine) integrate(r *row, id int) {
	dt := e.vt - r.last
	if dt > 0 {
		r.offset += e.skew(id) * float64(dt) * 1e-9
		r.last = e.vt
	}
}

// What one poll came to.
const (
	pollFailed = iota
	pollServed
	pollRated // told RATE: backs off like a failure, counted apart
)

// step runs one poll round for one client.
func (e *Engine) step(id int) {
	r := &e.rows[id]
	e.integrate(r, id)

	e.sent++
	e.bins.sentAt(e.vt)

	res := pollFailed
	switch {
	case e.down:
	case e.respond != nil:
		res = e.ask(r)
	case r.srvIdx < 0:
		if e.warmup(r, id) {
			res = pollServed
		}
	default:
		if th, _, ok := e.exchange(id, r.offset, int(r.srvIdx)); ok {
			r.offset += th
			res = pollServed
		}
	}

	switch res {
	case pollServed:
		e.ok++
		r.served = true
		r.dry = 0
		r.boff = 0
	case pollRated:
		e.rated++
		r.rated = true
		e.bump(r)
	default:
		e.fails++
		e.bump(r)
	}
	e.push(ev{at: e.vt + int64(e.pollDelay(r)), id: int32(id)})
}

// ntpAt is the NTP timestamp of the instant ns nanoseconds after the
// Unix epoch.
func ntpAt(ns int64) ntptime.Timestamp { return ntptime.FromTime(time.Unix(0, ns)) }

// epochNs is epoch in Unix nanoseconds: a virtual instant vt is the
// wall instant epochNs+vt.
var epochNs = epoch.UnixNano()

// ask is modeServer's exchange: a request stamped by the client's
// clock, decided by the real server at this virtual instant. A reply
// that does not echo the request's transmit stamp, a kiss other than
// RATE and an invalid reply fail the poll, as silence does.
func (e *Engine) ask(r *row) int {
	req := ntppkt.NewClient(4, ntpAt(epochNs+e.vt+int64(r.offset*1e9)))
	e.reqBuf = req.Encode(e.reqBuf[:0])
	out := e.respond(e.reqBuf, natSource)
	if out == nil || e.rep.DecodeInto(out) != nil || e.rep.Origin != req.Transmit {
		return pollFailed
	}
	if code, ok := e.rep.KissCode(); ok {
		if code == "RATE" {
			return pollRated
		}
		return pollFailed
	}
	if e.rep.ValidateServerReply(req.Transmit) != nil {
		return pollFailed
	}
	return pollServed
}

// warmup samples up to WarmupProbes distinct visible servers and
// applies the median correction — MNTP's warm-up median, which a lone
// falseticker cannot move once three sources are visible. The regular
// server is the median sample's source when ≥3 samples exist;
// with fewer there is no rejection power, so it falls back to a
// random visible server (pool semantics), which is precisely why
// partial visibility hurts.
func (e *Engine) warmup(r *row, id int) bool {
	var vis [64]int16
	nv := 0
	m := e.visibility(id)
	for i := 0; i < len(e.servers) && m != 0; i++ {
		if m&1 != 0 {
			vis[nv] = int16(i)
			nv++
		}
		m >>= 1
	}
	if nv == 0 {
		return false
	}
	// Partial Fisher-Yates: pick k distinct visible servers.
	k := e.cfg.WarmupProbes
	if k > nv {
		k = nv
	}
	for i := 0; i < k; i++ {
		j := i + int(randInt(&r.rng, int64(nv-i)))
		vis[i], vis[j] = vis[j], vis[i]
	}

	type sample struct {
		th  float64
		srv int16
	}
	var samples [len(vis)]sample // sorted by th as they arrive
	ns := 0
	for i := 0; i < k; i++ {
		if th, _, ok := e.exchange(id, r.offset, int(vis[i])); ok {
			j := ns
			for ; j > 0 && th < samples[j-1].th; j-- {
				samples[j] = samples[j-1]
			}
			samples[j] = sample{th, vis[i]}
			ns++
		}
	}
	if ns == 0 {
		return false
	}
	sub := samples[:ns]
	var med float64
	if ns%2 == 1 {
		med = sub[ns/2].th
	} else {
		med = (sub[ns/2-1].th + sub[ns/2].th) / 2
	}
	r.offset += med
	if ns >= 3 {
		r.srvIdx = sub[ns/2].srv
	} else {
		r.srvIdx = vis[int(randInt(&r.rng, int64(nv)))]
	}
	return true
}

// exchange performs one simulated exchange between client id, whose
// clock is offset seconds off, and server sidx through the client's
// pooled wireless channel, full packet semantics included: the returned
// θ is computed from the reply's NTP timestamps, so the engine inherits
// ntppkt/ntptime rounding behavior for free. The four stamps are
// integer nanoseconds after the Unix epoch.
func (e *Engine) exchange(id int, offset float64, sidx int) (theta float64, rtt time.Duration, ok bool) {
	// id % min(maxChannels, N), as a mask: when N < maxChannels, id < N.
	ch := e.channels[id&(maxChannels-1)]
	now := time.Duration(e.vt)
	up, lost := ch.SampleOneWay(now, netsim.Uplink)
	if lost {
		return 0, 0, false
	}
	srv := e.servers[sidx]
	proc := srv.srv.ProcessingDelay()
	down, lost := ch.SampleOneWay(now+up+proc, netsim.Downlink)
	if lost {
		return 0, 0, false
	}

	base := epochNs + e.vt
	off := int64(offset * 1e9)
	t1 := base + off
	recv := base + int64(up) + int64(srv.err)
	xmit := recv + int64(proc)
	t4 := base + int64(up+proc+down) + off

	req := ntppkt.NewClient(4, ntpAt(t1))
	var rep ntppkt.Packet
	srv.srv.Respond(&rep, req, time.Unix(0, recv), time.Unix(0, xmit))
	if err := rep.ValidateServerReply(req.Transmit); err != nil {
		return 0, 0, false
	}
	d := rep.Receive.Sub(req.Transmit) + rep.Transmit.Sub(ntpAt(t4))
	rtt = up + proc + down
	e.rtt.Record(rtt)
	return (time.Duration(d) / 2).Seconds(), rtt, true
}

// bump records a failed poll: dry-streak accounting plus poll backoff.
func (e *Engine) bump(r *row) {
	if r.dry < 255 {
		r.dry++
	}
	if r.dry > r.maxDry {
		r.maxDry = r.dry
	}
	if r.boff < e.cfg.MaxBackoffShift {
		r.boff++
	}
}

// pollDelay is the next poll interval: backoff-shifted base with the
// fleet-de-phasing jitter (the satellite fix the herd scenario
// exercises).
func (e *Engine) pollDelay(r *row) time.Duration {
	d := e.cfg.PollBase << r.boff
	j := e.cfg.PollJitter
	if j > 0 {
		span := float64(d) * j
		d += time.Duration((2*splitmixFloat(&r.rng) - 1) * span)
	}
	if d <= 0 {
		d = time.Millisecond
	}
	return d
}

// Totals are the engine-wide exchange counters.
type Totals struct {
	Sent, OK, Rated, Fails uint64
}

// Totals returns the aggregate exchange counters.
func (e *Engine) Totals() Totals {
	return Totals{Sent: e.sent, OK: e.ok, Rated: e.rated, Fails: e.fails}
}

// RTT returns the exchange round-trip distribution recorded so far
// (ModeSim: a modeServer poll has no network path to time).
func (e *Engine) RTT() *hist.Snapshot {
	s := e.rtt
	return &s
}

// ServedClients counts clients with at least one successful exchange.
func (e *Engine) ServedClients() int {
	n := 0
	for i := range e.rows {
		if e.rows[i].served {
			n++
		}
	}
	return n
}

// maxDryStreak is the worst consecutive-failure streak any client hit.
func (e *Engine) maxDryStreak() int {
	worst := uint8(0)
	for i := range e.rows {
		worst = max(worst, e.rows[i].maxDry)
	}
	return int(worst)
}

// ratedClients counts clients that received at least one RATE kiss.
func (e *Engine) ratedClients() int {
	n := 0
	for i := range e.rows {
		if e.rows[i].rated {
			n++
		}
	}
	return n
}

// OffsetStats summarizes the population clock error at the current
// virtual instant.
type OffsetStats struct {
	Median, P90, P99, MaxAbs time.Duration
	// FracAbove is the fraction of (sampled) clients whose |offset|
	// exceeds the threshold passed to Stats.
	FracAbove float64
}

// Stats integrates every client to the current instant and summarizes
// |offset| quantiles over the population: every client up to 65 536 of
// them, above that every ⌊N/65536⌋-th by id (no rng: between 65 536 and
// 131 071 clients read) — bounded extra memory whatever N is.
func (e *Engine) Stats(absThresh time.Duration) OffsetStats {
	n := e.cfg.N
	const sampleCap = 1 << 16
	stride := 1
	if n > sampleCap {
		stride = n / sampleCap
	}
	abs := make([]float64, 0, (n+stride-1)/stride)
	above := 0
	th := absThresh.Seconds()
	for i := 0; i < n; i += stride {
		r := &e.rows[i]
		o := r.offset + e.skew(i)*float64(e.vt-r.last)*1e-9
		a := math.Abs(o)
		abs = append(abs, a)
		if th > 0 && a > th {
			above++
		}
	}
	sort.Float64s(abs)
	q := func(p float64) time.Duration {
		if len(abs) == 0 {
			return 0
		}
		i := int(p * float64(len(abs)-1))
		return time.Duration(abs[i] * 1e9)
	}
	st := OffsetStats{Median: q(0.5), P90: q(0.9), P99: q(0.99)}
	if len(abs) > 0 {
		st.MaxAbs = time.Duration(abs[len(abs)-1] * 1e9)
		st.FracAbove = float64(above) / float64(len(abs))
	}
	return st
}

// bins are fixed-width virtual-time traffic counters — the arrival
// shape the herd scenario asserts on. Memory is
// bounded by maxBins; later traffic folds into the last bin.
type bins struct {
	width int64
	sent  []uint64
}

const maxBins = 1 << 20

func newBins(width int64) *bins { return &bins{width: width} }

func (b *bins) idx(vt int64) int {
	i := int(vt / b.width)
	if i >= maxBins {
		i = maxBins - 1
	}
	return i
}

func (b *bins) grow(i int) {
	for len(b.sent) <= i {
		b.sent = append(b.sent, 0)
	}
}

func (b *bins) sentAt(vt int64) {
	i := b.idx(vt)
	b.grow(i)
	b.sent[i]++
}

// peakToMean is the arrival burstiness: max bin over mean bin of
// sent requests, ignoring the first skipBins bins (a synchronized
// cold start spikes bin 0 identically for any fleet; burstiness is
// about what the schedule does afterwards). A phase-locked fleet
// pins this at ~horizon/rounds; jitter pulls it toward 1.
func (b *bins) peakToMean(skipBins int) float64 {
	if len(b.sent) <= skipBins {
		return 0
	}
	var peak, total uint64
	for _, s := range b.sent[skipBins:] {
		total += s
		if s > peak {
			peak = s
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(b.sent)-skipBins)
	return float64(peak) / mean
}
