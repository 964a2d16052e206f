// Package loadgen is an open-loop NTP load generator and capacity
// meter for the real-UDP serving path.
//
// Open-loop means arrivals are scheduled by the generator's own
// arrival process (Poisson or fixed-interval), never by the server's
// responses: when the server slows down, a closed-loop generator
// silently backs off and hides the capacity cliff, while an open-loop
// one keeps offering load and exposes it as queueing delay and loss —
// the standard methodology for tail-latency measurement. Requests
// are tracked against a per-request reply deadline; replies are
// matched by their echoed transmit timestamp (tagged with a sequence
// counter so every outstanding request has a unique key), latencies
// land in the shared log-bucketed hist.Histogram, and kiss-of-death
// replies are counted separately from served time. A simulated
// spoofed-source population (distinct 127/8 source addresses, where
// the platform allows binding them) exercises a server's per-client
// rate-limit table the way a real scattered client population would.
//
// Run drives a complete measurement and returns a Report with
// offered vs achieved rate, loss, KoD counts, latency quantiles
// (p50/p90/p99/p99.9) and periodic interval snapshots; cmd/ntpload
// is the command-line front end.
package loadgen

import (
	"crypto/tls"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mntp/internal/hist"
	"mntp/internal/ntppkt"
	"mntp/internal/ntptime"
	"mntp/internal/nts"
	"mntp/internal/ntske"
)

// Arrival selects the inter-request arrival process of each sender.
type Arrival string

const (
	// ArrivalPoisson draws exponential inter-arrival times: bursty,
	// memoryless traffic like an aggregate of independent clients.
	ArrivalPoisson Arrival = "poisson"
	// ArrivalFixed paces requests at a constant interval.
	ArrivalFixed Arrival = "fixed"
)

// maxPopulation bounds the simulated source population: each source
// is one bound socket with a receiver goroutine.
const maxPopulation = 4096

// Config parameterizes one load-generation run.
type Config struct {
	// Target is the server address (host:port). Required.
	Target string
	// Rate is the offered request rate in requests/second across all
	// senders. Required.
	Rate float64
	// Duration is the send phase length. Required. (The run then
	// lingers up to Timeout collecting in-flight replies.)
	Duration time.Duration
	// Senders is the number of sender goroutines (default 4). Each
	// paces an independent arrival stream at Rate/Senders.
	Senders int
	// Arrival is the arrival process (default ArrivalPoisson).
	Arrival Arrival
	// Timeout is the per-request reply deadline (default 1s); a
	// request unanswered within it counts as lost.
	Timeout time.Duration
	// Population, if positive, simulates a spoofed-source client
	// population: requests are spread across max(Population, Senders)
	// sockets bound to distinct 127/8 addresses, so a rate-limiting
	// server sees that many distinct clients. Loopback targets only;
	// where the platform refuses the bind, sockets fall back to the
	// default source address (Report.PopulationBound tells how many
	// distinct addresses were actually bound).
	Population int
	// SnapshotEvery, if positive, appends an interval row (rates,
	// loss, interval quantiles) to the report every such period.
	SnapshotEvery time.Duration
	// Version is the NTP version of the requests (default 4).
	Version uint8
	// Seed drives the arrival randomness (senders are decorrelated
	// deterministically from it).
	Seed int64
	// NTS, if non-nil, authenticates the generated load: sessions are
	// pre-established over NTS-KE before the send phase, every
	// request carries NTS extension fields (per-request AEAD), and
	// replies are verified. NTS NAKs and verification failures are
	// classified distinctly in the report.
	NTS *NTSConfig
	// Interrupt, if non-nil, aborts the send phase when it becomes
	// readable (typically closed on SIGINT/SIGTERM): senders stop at
	// their next arrival, the linger phase is skipped, and Run returns
	// a partial report with Truncated set — an interrupted capacity
	// run keeps the measurements it paid for.
	Interrupt <-chan struct{}
}

// NTSConfig parameterizes authenticated load generation.
type NTSConfig struct {
	// KEAddr is the NTS-KE server (host:port, port defaulting to
	// 4460). The NTP target remains Config.Target: capacity runs aim
	// load at a known socket, so the generator deliberately ignores
	// the KE server's NTP address negotiation.
	KEAddr string
	// TLSConfig is used for the KE dials (nil: system roots).
	TLSConfig *tls.Config
	// Sessions is how many independent KE sessions to establish,
	// assigned to source sockets round-robin (default Senders). Each
	// session holds its own cookie jar and keys.
	Sessions int
	// KETimeout bounds each key establishment (default 5s).
	KETimeout time.Duration
}

// ctrMask is the slice of transmit-timestamp fraction bits replaced
// by the request sequence counter: 2^20 in-flight tags at ~244 µs
// timestamp granularity cost, making every outstanding request's
// echoed origin unique.
const ctrMask = 0xFFFFF

// pacingSlack is the shortest wait worth sleeping for; anything
// closer is sent immediately (overdue arrivals go back-to-back), so
// timer granularity turns into small bursts instead of lost offered
// load — the open-loop schedule is kept on average.
const pacingSlack = 500 * time.Microsecond

// sock is one source socket: a connected UDP socket plus the table
// of its in-flight requests, keyed by tagged transmit timestamp.
type sock struct {
	conn *net.UDPConn
	// sess protects this socket's requests when NTS mode is on;
	// sessions are shared round-robin across sockets (nts.Session is
	// concurrency-safe).
	sess *nts.Session

	mu      sync.Mutex
	pending map[uint64]pendingReq // tagged transmit -> request state
}

// pendingReq is one in-flight request: when it went out and, in NTS
// mode, the state needed to verify its reply.
type pendingReq struct {
	sent time.Time
	st   *nts.RequestState
}

// Recorder is the latency recorder the engine fills: the shared
// log-bucketed histogram.
type Recorder = hist.Histogram

type engine struct {
	cfg     Config
	timeout time.Duration
	socks   []*sock
	start   time.Time

	ctr         atomic.Uint64
	sent        atomic.Uint64
	received    atomic.Uint64
	kod         atomic.Uint64
	kodRate     atomic.Uint64
	kodNTS      atomic.Uint64
	ntsAuthFail atomic.Uint64
	ntsProtErrs atomic.Uint64
	expired     atomic.Uint64
	late        atomic.Uint64
	stray       atomic.Uint64
	sendErrs    atomic.Uint64
	recvErrs    atomic.Uint64
	rec         Recorder

	ntsSessions int

	closing atomic.Bool
	stop    chan struct{} // stops reaper + snapshotter
	sendWG  sync.WaitGroup
	recvWG  sync.WaitGroup
	auxWG   sync.WaitGroup

	intervalMu sync.Mutex
	intervals  []Interval

	kodMu    sync.Mutex
	kodCodes map[string]uint64

	populationBound int
}

// ReplyClass tells what a matched, in-deadline reply actually was:
// genuine served time, a deliberate RATE refusal (a rate limit or an
// overload shed), or another kiss-of-death. Classifying keeps "loss"
// meaning what it should — no answer at all — instead of lumping a
// server's explicit refusals in with drops.
type ReplyClass int

const (
	// ReplyServed is a mode-4/5 reply carrying time.
	ReplyServed ReplyClass = iota
	// ReplyKoDRate is a RATE kiss-of-death: the server answered but
	// deliberately refused time (rate limiting or load shedding).
	ReplyKoDRate
	// ReplyKoDNTS is an NTS NAK: the server saw NTS fields it could
	// not authenticate and told the client to re-run key exchange.
	// Distinct from RATE/other because it signals a key/cookie
	// problem, not load.
	ReplyKoDNTS
	// ReplyKoDOther is any other kiss-of-death (DENY, RSTR, ...).
	ReplyKoDOther
)

// ClassifyReply classifies a decoded server reply by its kiss code.
// The string is the kiss code for the KoD classes, "" for served
// time.
func ClassifyReply(p *ntppkt.Packet) (ReplyClass, string) {
	code, ok := p.KissCode()
	if !ok {
		return ReplyServed, ""
	}
	switch code {
	case "RATE":
		return ReplyKoDRate, code
	case "NTSN":
		return ReplyKoDNTS, code
	}
	return ReplyKoDOther, code
}

// countKoD tallies one kiss-of-death reply by class and code.
func (e *engine) countKoD(class ReplyClass, code string) {
	e.kod.Add(1)
	switch class {
	case ReplyKoDRate:
		e.kodRate.Add(1)
	case ReplyKoDNTS:
		e.kodNTS.Add(1)
	}
	e.kodMu.Lock()
	e.kodCodes[code]++
	e.kodMu.Unlock()
}

// Run executes one load-generation run and returns its report.
func Run(cfg Config) (*Report, error) {
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	defer e.close()

	for _, sk := range e.socks {
		e.recvWG.Add(1)
		go e.receive(sk)
	}
	e.auxWG.Add(1)
	go e.reap()
	if e.cfg.SnapshotEvery > 0 {
		e.auxWG.Add(1)
		go e.snapshotIntervals()
	}

	e.start = time.Now()
	for i := 0; i < e.cfg.Senders; i++ {
		e.sendWG.Add(1)
		go e.send(i)
	}
	e.sendWG.Wait()
	sendDur := time.Since(e.start)
	truncated := e.interrupted()

	if !truncated {
		// Linger for in-flight replies: until every request is resolved
		// or the last one's deadline has passed. An interrupted run
		// skips this — the operator wants the report now.
		drainDeadline := time.Now().Add(e.timeout + 50*time.Millisecond)
		for time.Now().Before(drainDeadline) && e.pendingTotal() > 0 {
			time.Sleep(10 * time.Millisecond)
		}
	}

	close(e.stop)
	e.close() // unblocks receivers
	e.recvWG.Wait()
	e.auxWG.Wait()

	// Whatever is still unresolved is lost.
	for _, sk := range e.socks {
		sk.mu.Lock()
		e.expired.Add(uint64(len(sk.pending)))
		sk.pending = nil
		sk.mu.Unlock()
	}
	rep := e.report(sendDur)
	rep.Truncated = truncated
	return rep, nil
}

// interrupted reports whether the Interrupt channel has fired.
func (e *engine) interrupted() bool {
	if e.cfg.Interrupt == nil {
		return false
	}
	select {
	case <-e.cfg.Interrupt:
		return true
	default:
		return false
	}
}

func newEngine(cfg Config) (*engine, error) {
	if cfg.Target == "" {
		return nil, errors.New("loadgen: Target required")
	}
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("loadgen: Rate %v must be positive", cfg.Rate)
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: Duration %v must be positive", cfg.Duration)
	}
	if cfg.Senders <= 0 {
		cfg.Senders = 4
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = time.Second
	}
	switch cfg.Arrival {
	case "":
		cfg.Arrival = ArrivalPoisson
	case ArrivalPoisson, ArrivalFixed:
	default:
		return nil, fmt.Errorf("loadgen: unknown arrival process %q", cfg.Arrival)
	}
	if cfg.Version == 0 {
		cfg.Version = ntppkt.Version4
	}
	if cfg.Population > maxPopulation {
		return nil, fmt.Errorf("loadgen: Population %d exceeds %d", cfg.Population, maxPopulation)
	}
	raddr, err := net.ResolveUDPAddr("udp", cfg.Target)
	if err != nil {
		return nil, fmt.Errorf("loadgen: resolve %q: %w", cfg.Target, err)
	}

	e := &engine{cfg: cfg, timeout: cfg.Timeout, stop: make(chan struct{}), kodCodes: make(map[string]uint64)}
	nsocks := cfg.Senders
	if cfg.Population > nsocks {
		nsocks = cfg.Population
	}
	// Size pending for the worst honest case: everything in one
	// deadline window unanswered.
	pendingCap := int(cfg.Rate*cfg.Timeout.Seconds())/nsocks + 16
	for i := 0; i < nsocks; i++ {
		var laddr *net.UDPAddr
		if cfg.Population > 0 {
			laddr = &net.UDPAddr{IP: spoofIP(i)}
		}
		conn, err := net.DialUDP("udp", laddr, raddr)
		if err != nil && laddr != nil {
			// Platform refuses 127/8 aliases: plain source address.
			conn, err = net.DialUDP("udp", nil, raddr)
		} else if laddr != nil && err == nil {
			e.populationBound++
		}
		if err != nil {
			e.close()
			return nil, fmt.Errorf("loadgen: dial %q: %w", cfg.Target, err)
		}
		// A deep receive buffer so reply bursts are not dropped on
		// our own doorstep; silently capped by the kernel limit.
		conn.SetReadBuffer(1 << 20)
		e.socks = append(e.socks, &sock{
			conn:    conn,
			pending: make(map[uint64]pendingReq, pendingCap),
		})
	}
	if cfg.NTS != nil {
		if err := e.establishNTS(); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// establishNTS pre-establishes the KE sessions and assigns them to
// the source sockets round-robin. Sessions reuse their last cookie
// when the jar runs dry: an open-loop generator cannot let re-supply
// gate its schedule (shed replies burn cookies without replacing
// them), and linkability is irrelevant to a load test.
func (e *engine) establishNTS() error {
	n := e.cfg.NTS.Sessions
	if n <= 0 {
		n = e.cfg.Senders
	}
	if n > len(e.socks) {
		n = len(e.socks)
	}
	timeout := e.cfg.NTS.KETimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	sessions := make([]*nts.Session, n)
	for i := range sessions {
		sess, err := ntske.KeyExchange(e.cfg.NTS.KEAddr, e.cfg.NTS.TLSConfig, timeout)
		if err != nil {
			return fmt.Errorf("loadgen: NTS-KE session %d: %w", i, err)
		}
		sess.ReuseWhenDry = true
		sessions[i] = sess
	}
	for i, sk := range e.socks {
		sk.sess = sessions[i%n]
	}
	e.ntsSessions = n
	return nil
}

// spoofIP returns the i-th simulated source address, inside 127/8 so
// the host accepts the bind without configuration (Linux routes the
// whole block to loopback).
func spoofIP(i int) net.IP {
	n := i + 1
	return net.IPv4(127, byte(66+(n>>16)), byte(n>>8), byte(n))
}

func (e *engine) close() {
	e.closing.Store(true)
	for _, sk := range e.socks {
		sk.conn.Close()
	}
}

func (e *engine) pendingTotal() int {
	n := 0
	for _, sk := range e.socks {
		sk.mu.Lock()
		n += len(sk.pending)
		sk.mu.Unlock()
	}
	return n
}

// send is one sender goroutine: an independent open-loop arrival
// stream at Rate/Senders over its own partition of the sockets
// (sender i owns sockets i, i+Senders, …, so senders never contend
// on a pending-table lock).
func (e *engine) send(id int) {
	defer e.sendWG.Done()
	rng := rand.New(rand.NewSource(e.cfg.Seed + int64(id)*7919))
	mean := time.Duration(float64(time.Second) * float64(e.cfg.Senders) / e.cfg.Rate)
	if mean <= 0 {
		mean = 1
	}
	poisson := e.cfg.Arrival == ArrivalPoisson

	var socks []*sock
	for i := id; i < len(e.socks); i += e.cfg.Senders {
		socks = append(socks, e.socks[i])
	}
	if len(socks) == 0 {
		return
	}
	req := ntppkt.Packet{Leap: ntppkt.LeapNotSync, Version: e.cfg.Version, Mode: ntppkt.ModeClient}
	buf := make([]byte, 0, 2048)

	end := e.start.Add(e.cfg.Duration)
	// Desynchronized first arrivals, so senders don't start in phase.
	next := e.start.Add(time.Duration(rng.Int63n(int64(mean) + 1)))
	si := 0
	for next.Before(end) {
		if wait := next.Sub(time.Now()); wait > pacingSlack {
			// Interruptible pacing: a SIGINT mid-sleep stops the
			// sender at this arrival instead of after it.
			if e.cfg.Interrupt != nil {
				t := time.NewTimer(wait)
				select {
				case <-e.cfg.Interrupt:
					t.Stop()
					return
				case <-t.C:
				}
			} else {
				time.Sleep(wait)
			}
			continue
		}
		if e.interrupted() {
			return
		}
		// Due (or overdue — then requests go back-to-back until the
		// schedule is caught up; open loop never drops offered load).
		sk := socks[si]
		si++
		if si == len(socks) {
			si = 0
		}
		buf = e.sendOne(sk, &req, buf)
		if poisson {
			next = next.Add(time.Duration(rng.ExpFloat64() * float64(mean)))
		} else {
			next = next.Add(mean)
		}
	}
}

func (e *engine) sendOne(sk *sock, req *ntppkt.Packet, buf []byte) []byte {
	ctr := e.ctr.Add(1)
	sent := time.Now()
	ts := ntptime.FromTime(sent)
	ts = ts&^ctrMask | ntptime.Timestamp(ctr&ctrMask)
	req.Transmit = ts
	var st *nts.RequestState
	if sk.sess != nil {
		// Per-request AEAD: fresh unique ID, a cookie from the jar
		// and the authenticator over the final header image.
		req.Ext = req.Ext[:0]
		var err error
		if st, err = sk.sess.ProtectRequest(req); err != nil {
			e.ntsProtErrs.Add(1)
			return buf
		}
	}
	buf = req.Encode(buf[:0])
	key := uint64(ts)
	sk.mu.Lock()
	sk.pending[key] = pendingReq{sent: sent, st: st}
	sk.mu.Unlock()
	if _, err := sk.conn.Write(buf); err != nil {
		e.sendErrs.Add(1)
		sk.mu.Lock()
		delete(sk.pending, key)
		sk.mu.Unlock()
		return buf
	}
	e.sent.Add(1)
	return buf
}

// receive matches replies on one socket against its pending table by
// the echoed origin timestamp.
func (e *engine) receive(sk *sock) {
	defer e.recvWG.Done()
	buf := make([]byte, 2048) // room for NTS replies, not just headers
	var p ntppkt.Packet
	for {
		n, err := sk.conn.Read(buf)
		if err != nil {
			if e.closing.Load() {
				return
			}
			// Transient (e.g. ICMP-induced ECONNREFUSED on a connected
			// socket): count it and keep receiving.
			e.recvErrs.Add(1)
			time.Sleep(time.Millisecond)
			continue
		}
		t := time.Now()
		if p.DecodeInto(buf[:n]) != nil ||
			(p.Mode != ntppkt.ModeServer && p.Mode != ntppkt.ModeBroadcast) {
			e.stray.Add(1)
			continue
		}
		key := uint64(p.Origin)
		sk.mu.Lock()
		pr, ok := sk.pending[key]
		if ok {
			delete(sk.pending, key)
		}
		sk.mu.Unlock()
		if !ok {
			e.stray.Add(1) // duplicate, expired-and-reaped, or spoofed
			continue
		}
		d := t.Sub(pr.sent)
		if d > e.timeout {
			e.late.Add(1) // reply exists but missed its deadline: lost
			continue
		}
		if class, code := ClassifyReply(&p); class != ReplyServed {
			e.countKoD(class, code)
			continue
		}
		if sk.sess != nil && pr.st != nil {
			// Verify the authenticator (and harvest re-supplied
			// cookies); an unverifiable reply is not served time.
			if err := sk.sess.VerifyReply(&p, pr.st); err != nil {
				e.ntsAuthFail.Add(1)
				continue
			}
		}
		e.received.Add(1)
		e.rec.Record(d)
	}
}

// reap expires requests whose deadline passed without a reply.
func (e *engine) reap() {
	defer e.auxWG.Done()
	period := e.timeout / 2
	if period > 100*time.Millisecond {
		period = 100 * time.Millisecond
	}
	if period < 5*time.Millisecond {
		period = 5 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-e.stop:
			return
		case now := <-tick.C:
			for _, sk := range e.socks {
				sk.mu.Lock()
				for key, pr := range sk.pending {
					if now.Sub(pr.sent) > e.timeout {
						delete(sk.pending, key)
						e.expired.Add(1)
					}
				}
				sk.mu.Unlock()
			}
		}
	}
}

// snapshotIntervals appends one interval row per SnapshotEvery.
func (e *engine) snapshotIntervals() {
	defer e.auxWG.Done()
	tick := time.NewTicker(e.cfg.SnapshotEvery)
	defer tick.Stop()
	var prevSent, prevRecv, prevKoD, prevLost uint64
	prev := e.rec.Snapshot()
	for {
		select {
		case <-e.stop:
			return
		case <-tick.C:
			sent, recv := e.sent.Load(), e.received.Load()
			kod := e.kod.Load()
			lost := e.expired.Load() + e.late.Load()
			cur := e.rec.Snapshot()
			delta := cur.Sub(&prev)
			iv := Interval{
				ElapsedSec: time.Since(e.start).Seconds(),
				Sent:       sent - prevSent,
				Received:   recv - prevRecv,
				KoD:        kod - prevKoD,
				Lost:       lost - prevLost,
				SendRate:   float64(sent-prevSent) / e.cfg.SnapshotEvery.Seconds(),
			}
			if p, ok := delta.Quantile(0.50); ok {
				iv.P50Us = us(p)
			}
			if p, ok := delta.Quantile(0.99); ok {
				iv.P99Us = us(p)
			}
			prevSent, prevRecv, prevKoD, prevLost = sent, recv, kod, lost
			prev = cur
			e.intervalMu.Lock()
			e.intervals = append(e.intervals, iv)
			e.intervalMu.Unlock()
		}
	}
}
