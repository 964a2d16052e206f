package ntpnet

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mntp/internal/clock"
	"mntp/internal/ntppkt"
	"mntp/internal/ntptime"
	"mntp/internal/nts"
	"mntp/internal/overload"
)

// Server is a UDP NTP server. It answers client (mode 3) requests with
// timestamps from its clock; malformed packets are dropped. An
// optional per-client rate limit answers abusive clients with a
// RATE kiss-of-death packet, as pool servers do.
//
// The listen path is sharded: Shards sockets are bound to the same
// address with SO_REUSEPORT, so the kernel spreads inbound datagrams
// across independent receive queues and the shards never contend on
// one socket lock. Each shard runs its own pool of Workers goroutines
// and counts into its own shard-local metrics; Snapshot() merges them
// into the aggregate view. Shards > 1 needs SO_REUSEPORT (Linux): the
// whole group binds or Listen fails. The rate-limit table is shared
// across shards (a client's budget is global, whichever queue its
// packets hash to) and bounded (MaxClients) with window-stamped
// eviction plus periodic idle-entry sweeping.
//
// The server self-heals: every worker runs under a panic recovery
// that counts the fault and respawns the worker, and a watchdog
// restarts the worker pool of any shard holding work in flight
// without completing it while its siblings make progress. With
// Overload set, an admission controller sheds load before queueing
// delay can poison the served timestamps (see package overload).
type Server struct {
	Clock   clock.Clock
	Stratum uint8
	RefID   [4]byte
	// RateLimit, if positive, is the maximum requests per client
	// address per RateWindow (default 1 minute) before RATE KoD
	// responses are sent.
	RateLimit  int
	RateWindow time.Duration
	// MaxClients bounds the rate-limit table (default
	// DefaultMaxClients). When full, expired buckets are evicted
	// first, then the oldest window.
	MaxClients int
	// Workers is the number of serve goroutines per shard (default
	// GOMAXPROCS/Shards, at least 1).
	Workers int
	// Shards is the number of listening sockets bound to the address
	// via SO_REUSEPORT (default 1). All fields must be set before
	// Listen.
	Shards int
	// Overload, if non-nil, enables admission control (package
	// overload): in Degraded the server sheds new/unseen flows with
	// RATE kiss-of-death replies (flows already holding rate-limit
	// state keep their budget; with rate limiting off every flow
	// counts as new), in Overloaded it drops datagrams before parsing,
	// admitting 1-in-N probes. On Linux the sojourn signal uses kernel
	// receive timestamps, so it includes socket-queue wait. Whether
	// there is a controller is fixed at Listen; Reload only retunes it.
	Overload *overload.Config
	// WatchdogInterval is the housekeeping period: the watchdog scans
	// for wedged shards, sweeps expired rate-limit entries and feeds
	// slow signals to the overload controller. 0 selects the default
	// (1s); negative disables housekeeping entirely.
	WatchdogInterval time.Duration
	// NTS, if non-nil, enables RFC 8915 authenticated serving:
	// requests carrying NTS extension fields are verified against
	// this key ring (shared with the NTS-KE server that minted the
	// cookies). Verified requests get protected replies with cookie
	// re-supply; failed verification gets an NTS NAK. Authenticated
	// requests bypass the Degraded shed ramp — they are exactly the
	// traffic the shed exists to protect, since a spoofed source
	// cannot produce a valid authenticator — but still pay the
	// per-client rate limit, and the Overloaded pre-parse drop
	// (which by design runs before anything is decoded) applies to
	// them like everyone else. Sampled AEAD cost is fed to the
	// overload controller so crypto work counts against the sojourn
	// target.
	NTS *nts.KeyRing
	// FaultHook, if non-nil, is called with the shard index for every
	// admitted datagram, before parsing. It exists for server-side
	// fault injection, and only tests set it: a hook that panics
	// exercises worker respawn, one that blocks exercises the watchdog
	// or holds requests in flight. A blocked hook must be released
	// before Close, which waits for every worker.
	FaultHook func(shard int)

	conns           []*net.UDPConn
	shards          []*shard
	workersPerShard int
	ctrl            *overload.Controller
	// stratum and limiter are the live-reloadable serving parameters:
	// the hot path reads them atomically so Reload can swap them under
	// full load without a lock or a socket drop.
	stratum  atomic.Uint32
	limiter  atomic.Pointer[rateLimiter]
	restarts atomic.Uint64
	stopHk   chan struct{}
	hkWG     sync.WaitGroup
	wg       sync.WaitGroup

	mu     sync.Mutex // guards closed vs. worker spawning
	closed bool
}

// shard is one slice of the serving fast path: its own socket and the
// metrics its workers count into. Shard-local counters keep the hot
// path free of cross-shard cache-line bouncing; readers merge them on
// demand.
type shard struct {
	idx  int
	conn *net.UDPConn
	// rxts: kernel receive timestamps enabled on conn (overload only).
	rxts bool
	// epoch versions the worker pool: the watchdog bumps it to tell
	// stuck workers (wherever they unblock) that a fresh complement
	// has replaced them and they should exit.
	epoch atomic.Uint64
	// inFlight counts datagrams currently mid-handling; completed
	// counts handled ones. Together they are the watchdog's progress
	// signal: in-flight work held across a whole interval with no
	// completions means the pool is wedged, not idle.
	inFlight  atomic.Int64
	completed atomic.Uint64
	metrics   metrics
}

// NewServer creates a server with the given clock and stratum.
func NewServer(clk clock.Clock, stratum uint8) *Server {
	return &Server{Clock: clk, Stratum: stratum, RefID: [4]byte{'L', 'O', 'C', 'L'}}
}

// Listen binds the server to addr (e.g. "127.0.0.1:0") and starts the
// serve pools. It returns the bound address.
func (s *Server) Listen(addr string) (*net.UDPAddr, error) {
	nshards := s.Shards
	if nshards <= 0 {
		nshards = 1
	}
	conns, err := listenShards(addr, nshards)
	if err != nil {
		return nil, err
	}
	s.conns = conns
	s.configure(true)
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0) / nshards
		if workers < 1 {
			workers = 1
		}
	}
	s.workersPerShard = workers
	s.shards = make([]*shard, nshards)
	for i := range s.shards {
		sh := &shard{idx: i, conn: conns[i]}
		if s.ctrl != nil {
			sh.rxts = enableRxTimestamps(sh.conn) == nil
		}
		s.shards[i] = sh
		for w := 0; w < workers; w++ {
			s.spawnWorker(sh, 0)
		}
	}
	wd := s.WatchdogInterval
	if wd == 0 {
		wd = time.Second
	}
	if wd > 0 {
		s.stopHk = make(chan struct{})
		s.hkWG.Add(1)
		go s.housekeep(wd)
	}
	return conns[0].LocalAddr().(*net.UDPAddr), nil
}

// configure installs the serving parameters decide reads — stratum,
// rate limiter, admission controller — from the reloadable fields.
// Listen and Responder call it starting, before anything serves: the
// admission controller is made then and kept for life. Reload calls it
// on the running server, where a live limiter keeps its buckets — a
// reload under flood must not readmit every abuser for a fresh burst —
// and a live controller keeps what it has learned.
func (s *Server) configure(starting bool) {
	s.stratum.Store(uint32(s.Stratum))
	window, maxClients := s.RateWindow, s.MaxClients
	if window <= 0 {
		window = time.Minute
	}
	if maxClients <= 0 {
		maxClients = DefaultMaxClients
	}
	switch lim := s.limiter.Load(); {
	case s.RateLimit <= 0:
		s.limiter.Store(nil)
	case lim != nil:
		lim.reconfigure(s.RateLimit, window, maxClients)
	default:
		s.limiter.Store(newRateLimiter(s.RateLimit, window, maxClients))
	}
	switch {
	case s.Overload == nil:
	case starting:
		s.ctrl = overload.New(*s.Overload)
	case s.ctrl != nil:
		s.ctrl.Reconfigure(*s.Overload)
	}
}

// Responder is the request path without a socket, for a caller that
// owns time: each call of the returned function decides one datagram
// from src at the server clock's current instant and returns the
// reply's wire image, valid until the next call, or nil when the
// outcome sends nothing. It configures the server as Listen does, so a
// server gets one or the other, once. The function is for one
// goroutine; it counts nothing, feeds the admission controller no
// sojourn and runs no housekeeping.
func (s *Server) Responder() func(pkt []byte, src netip.Addr) []byte {
	s.configure(true)
	w := new(worker)
	return func(pkt []byte, src netip.Addr) []byte {
		v := s.decide(0, pkt, w.source(src), w)
		if !v.outcome.replies() {
			return nil
		}
		w.out = w.resp.Encode(w.out[:0])
		return w.out
	}
}

// listenShards binds n sockets to addr: one plain socket, or for n > 1
// an SO_REUSEPORT group, whole or not at all — whatever bound before a
// refusal is closed, so a server never serves from fewer queues than
// it was asked for. With a wildcard port the first bind picks it and
// the rest join that port.
func listenShards(addr string, n int) ([]*net.UDPConn, error) {
	var lc net.ListenConfig
	if n > 1 {
		lc.Control = reusePortControl
	}
	conns := make([]*net.UDPConn, 0, n)
	laddr := addr
	for i := 0; i < n; i++ {
		pc, err := lc.ListenPacket(context.Background(), "udp", laddr)
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return nil, fmt.Errorf("ntpnet: bind socket %d of %d on %q: %w", i+1, n, addr, err)
		}
		uc := pc.(*net.UDPConn)
		conns = append(conns, uc)
		if i == 0 {
			laddr = uc.LocalAddr().String() // pin the kernel-chosen port
		}
	}
	return conns, nil
}

// Shutdown gracefully drains the server: it stops admitting new
// datagrams, lets every in-flight handler finish and write its reply,
// waits for the housekeeping/watchdog loop, and only then closes the
// sockets — a restart under live load answers everything it had
// already accepted instead of abandoning requests mid-quantum.
//
// The mechanism: every socket gets an already-expired read deadline,
// so a worker blocked in a read wakes with a timeout and exits without
// admitting anything, while a worker mid-handle finishes the request,
// writes the reply, and exits on its next read (the deadline is
// sticky). Datagrams still queued in the kernel are never admitted.
//
// If ctx expires before the drain completes, Shutdown degrades to
// Close's behavior — the sockets are closed under whatever is still in
// flight — and returns ctx.Err(). Calling Shutdown on a closed server
// returns nil; Close after Shutdown is a no-op.
func (s *Server) Shutdown(ctx context.Context) error { return s.stop(ctx, true) }

// Close stops the server, undrained, and waits for every serve goroutine.
func (s *Server) Close() error { return s.stop(context.Background(), false) }

// stop is the one way down: mark closed, drain until ctx expires if
// asked to, stop housekeeping, close the sockets, wait.
func (s *Server) stop(ctx context.Context, drain bool) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true // stops worker respawns; makes a second stop a no-op
	s.mu.Unlock()
	var cut error
	if drain {
		now := time.Now()
		for _, c := range s.conns {
			_ = c.SetReadDeadline(now)
		}
		drained := make(chan struct{})
		go func() {
			s.wg.Wait()
			close(drained)
		}()
		select {
		case <-drained:
		case <-ctx.Done():
			cut = ctx.Err()
		}
	}
	if s.stopHk != nil {
		close(s.stopHk)
	}
	var first error
	for _, c := range s.conns {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.hkWG.Wait()
	if cut != nil {
		return cut // drain cut short: stragglers exit on their closed sockets
	}
	s.wg.Wait()
	return first
}

// Reload applies the reloadable fields — Stratum, RateLimit,
// RateWindow, MaxClients and Overload's parameters — to the running
// server, as Listen applied them at start: no socket is dropped, no
// worker stops, and in-flight requests are answered under whichever
// parameters they loaded. Established clients keep their rate-limit
// budgets and the admission controller its health state and EWMAs
// (see overload.Controller.Reconfigure). Set the fields and call
// Reload from one goroutine. This is the SIGHUP path: cmd/ntpserver
// sets the fields from its config file and calls Reload, then Recycle.
func (s *Server) Reload() { s.configure(false) }

// Recycle rotates every shard's worker pool, one shard at a time,
// reusing the watchdog's epoch-bump machinery: each shard's old
// complement is told to exit (wherever its workers next unblock) while
// a fresh complement starts against the same socket, so the sockets —
// and the SO_REUSEPORT group — never drop and the other shards keep
// serving throughout. The admission controller is paused for the
// duration so the recycle's transient churn is not mistaken for
// overload. Pool rotations are counted in Snapshot().Restarts, same
// as watchdog-initiated ones.
func (s *Server) Recycle() {
	if s.ctrl != nil {
		s.ctrl.Pause()
		defer s.ctrl.Resume()
	}
	for _, sh := range s.shards {
		s.restartShard(sh)
	}
}

// Snapshot merges the shard-local metrics into the aggregate view.
// Counters are read atomically per shard; the merge is not one atomic
// transaction, which is fine for monitoring.
func (s *Server) Snapshot() *Snapshot {
	out := new(Snapshot)
	for _, sh := range s.shards {
		out.merge(sh.metrics.snapshot())
	}
	out.Restarts = s.restarts.Load()
	out.Health = s.Health()
	return out
}

// NumShards returns the number of serving shards (0 before Listen).
func (s *Server) NumShards() int { return len(s.shards) }

// Health returns the admission controller's state (Healthy when
// overload control is off).
func (s *Server) Health() overload.State {
	if s.ctrl == nil {
		return overload.Healthy
	}
	return s.ctrl.State()
}

// OverloadStats returns the admission controller's snapshot (state,
// effective sojourn, crypto-cost EWMA); the zero Stats when overload
// control is off.
func (s *Server) OverloadStats() overload.Stats {
	if s.ctrl == nil {
		return overload.Stats{}
	}
	return s.ctrl.Stats()
}

// RateTableSize returns the current rate-limit table population
// (0 when rate limiting is off).
func (s *Server) RateTableSize() int {
	lim := s.limiter.Load()
	if lim == nil {
		return 0
	}
	return lim.size()
}

// spawnWorker starts one serve goroutine for sh's epoch-th pool,
// unless the server has been closed (the check and the WaitGroup add
// share the mutex Close takes, so a respawn can never race past
// Close's final Wait).
func (s *Server) spawnWorker(sh *shard, epoch uint64) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.wg.Add(1)
	s.mu.Unlock()
	go s.serve(sh, epoch)
}

// serve is one worker of a shard's pool. Each worker owns its
// buffers; *net.UDPConn reads and writes are safe for concurrent use.
// A panic anywhere in handling is contained here: the fault is
// counted and the worker respawned, so one poisoned packet (or bug)
// costs a single request, never the server.
func (s *Server) serve(sh *shard, epoch uint64) {
	defer func() {
		if r := recover(); r != nil {
			sh.metrics.Panics.Add(1)
			// Respawn unless the watchdog has since rotated the pool —
			// the new epoch already runs a full complement.
			if sh.epoch.Load() == epoch {
				s.spawnWorker(sh, epoch)
			}
		}
		s.wg.Done()
	}()
	w := new(worker)
	for sh.epoch.Load() == epoch {
		if err := s.serveOne(sh, w); err != nil {
			return // closed
		}
	}
}

// serveOne reads one datagram off the shard's socket and handles it.
// The AddrPort socket calls pass the peer by value: no allocation here.
func (s *Server) serveOne(sh *shard, w *worker) error {
	var n, oobn int
	var peer netip.AddrPort
	var err error
	if sh.rxts {
		n, oobn, _, peer, err = sh.conn.ReadMsgUDPAddrPort(w.buf[:], w.oob[:])
	} else {
		n, peer, err = sh.conn.ReadFromUDPAddrPort(w.buf[:])
	}
	if err == nil {
		s.handle(sh, w, w.buf[:n], peer, w.oob[:oobn])
	}
	return err
}

// worker is what one serve goroutine reuses from datagram to datagram:
// the read and control buffers, the source address as decide takes it,
// the decoded request, the reply under construction, the NTS state
// that carries a request's keys and AEAD working memory from verify
// to seal, the reply's wire image, and the measurement tick.
type worker struct {
	// 2048 covers the largest NTS request/reply (~1KB with a full
	// placeholder load) with headroom.
	buf       [2048]byte
	oob       [oobSpace]byte
	src       [16]byte
	req, resp ntppkt.Packet
	nts       nts.ServerRequest
	out       []byte
	tick      uint // datagrams handled
	timed     bool // this one is the 1 in 8 that is measured (see handle)
}

// source returns a's bytes, held in the worker, as the net.IP decide
// takes: 4 bytes for an IPv4 or IPv4-mapped address, so one client has
// one rate-limit key whichever socket family it arrived over.
func (w *worker) source(a netip.Addr) net.IP {
	w.src = a.As16()
	if a.Is4() || a.Is4In6() {
		return w.src[12:]
	}
	return w.src[:]
}

// now is decide's AEAD stopwatch: the wall clock on the worker's tick,
// and off it the zero time — no clock read, and every interval zero.
func (w *worker) now() (t time.Time) {
	if w.timed {
		t = time.Now()
	}
	return t
}

// sojournSampleMask: each worker measures 1 in 8 of the datagrams it
// handles; the other seven pay one increment.
const sojournSampleMask = 7

// handle processes one datagram: decide concludes, and everything the
// conclusion costs — the reply write, the counter, the overload
// controller's sojourn sample — happens here, once, whatever the
// outcome. Whether this datagram is the worker's sample is decided
// first, and everything that only measures rides that tick: the
// ingress stamp (the kernel's, parsed out of oob, else a clock read),
// decide's AEAD stopwatch and the controller's two observations. With
// no controller there is no tick. The in-flight/completed bookkeeping
// brackets everything — including an injected panic, whose unwind
// still runs the deferred decrement before serve's recovery respawns
// the worker.
func (s *Server) handle(sh *shard, w *worker, pkt []byte, peer netip.AddrPort, oob []byte) {
	sh.inFlight.Add(1)
	defer func() {
		sh.inFlight.Add(-1)
		sh.completed.Add(1)
	}()
	w.tick++
	w.timed = s.ctrl != nil && w.tick&sojournSampleMask == 0
	var ingress time.Time
	if w.timed {
		var ok bool
		if ingress, ok = rxTimestamp(oob); !ok {
			// No kernel stamp: ingress degrades to read time, measuring
			// handling latency but not socket-queue wait.
			ingress = time.Now()
		}
	}
	v := s.decide(sh.idx, pkt, w.source(peer.Addr()), w)
	if v.outcome.replies() {
		w.out = w.resp.Encode(w.out[:0])
		if _, err := sh.conn.WriteToUDPAddrPort(w.out, peer); err != nil {
			v.outcome = writeError
		}
	}
	// Counted after the write: served means written.
	if v.outcome == served {
		sh.metrics.Latency.Record(s.Clock.Now().Sub(v.recv))
		if v.nts {
			sh.metrics.NTSServed.Add(1)
		}
	}
	sh.metrics.n[v.outcome].Add(1)
	if w.timed {
		// The sampled ingress-to-now sojourn feeds the overload
		// controller. The AEAD time this request spent is subtracted
		// from the queue signal and fed to the controller's crypto EWMA
		// instead, so the two components of the effective sojourn never
		// double-count; plain requests feed zero, which decays the
		// crypto estimate as authenticated load recedes.
		now := time.Now()
		s.ctrl.Observe(now.Sub(ingress)-v.crypto, now)
		if s.NTS != nil {
			s.ctrl.ObserveCrypto(v.crypto, now)
		}
	}
}

// verdict is decide's conclusion about one datagram.
type verdict struct {
	outcome outcome
	recv    time.Time     // receive stamp; zero when dropped before parsing
	crypto  time.Duration // AEAD time spent verifying and sealing; zero unless w.timed
	nts     bool          // served under NTS
}

// decide runs the request path on one datagram — admit, receive stamp,
// decode, NTS verify, shed, rate limit, reply build, cookie mint,
// transmit stamp, seal, in that order — and for the outcomes that
// reply (see outcome.replies) fills w.resp. It does no socket I/O and
// counts nothing; handle owns both.
func (s *Server) decide(shard int, pkt []byte, src net.IP, w *worker) verdict {
	req, resp := &w.req, &w.resp
	ctrl := s.ctrl
	probe := false
	if ctrl != nil && ctrl.State() == overload.Overloaded {
		// Early drop before parsing: once the queue has collapsed the
		// reply would carry a stale timestamp — worse for the client
		// than silence — and dropping is the fastest way to drain the
		// backlog. 1-in-N probes are admitted so sojourn samples keep
		// flowing and recovery stays possible.
		if probe = ctrl.ProbeAdmit(); !probe {
			return verdict{outcome: shedDropped}
		}
	}
	if s.FaultHook != nil {
		s.FaultHook(shard)
	}
	recv := s.Clock.Now()
	if err := req.DecodeInto(pkt); err != nil {
		return verdict{outcome: malformed, recv: recv}
	}
	if req.Mode != ntppkt.ModeClient {
		return verdict{outcome: dropped, recv: recv}
	}
	version := req.Version
	if version < ntppkt.Version3 || version > ntppkt.Version4 {
		version = ntppkt.Version4
	}
	// NTS verification runs before admission decisions: a valid
	// authenticator is the one signal a spoofed source cannot forge,
	// so it both earns the bypass below and must be checked before
	// granting it. The AEAD time is kept apart from the queue signal
	// and fed to the controller's crypto EWMA.
	verified := false
	var crypto time.Duration
	if s.NTS != nil && nts.IsNTSRequest(req) {
		cryptoStart := w.now()
		err := w.nts.Verify(s.NTS, req)
		crypto = w.now().Sub(cryptoStart)
		if err != nil {
			// NTS NAK (RFC 8915 §5.7): the server saw NTS fields it
			// could not authenticate — a cookie sealed under a
			// rotated-out epoch, or a forged/corrupted authenticator —
			// and the client must re-run key establishment. The
			// request's unique identifier is echoed so the client can
			// match the NAK; no authenticator is added since the server
			// has no verified keys.
			kiss(resp, ntppkt.KissNTSN, version, req)
			if uid, _ := req.FindExt(ntppkt.ExtUniqueIdentifier); uid != nil {
				nts.ProtectNAK(uid.Value, resp)
			}
			return verdict{outcome: ntsNak, recv: recv, crypto: crypto}
		}
		verified = true
	}
	limiter := s.limiter.Load()
	if ctrl != nil && !probe && !verified && ctrl.State() == overload.Degraded {
		// Shed new/unseen flows first: clients already holding
		// rate-limit state keep their budget, so the population being
		// answered well stays stable while fresh arrivals are told
		// RATE — loudly, not by silent drop. Flows that win the coin
		// toss proceed, enter the table below, and become established.
		established := limiter != nil && limiter.known(keyFromIP(src), recv)
		if !established && rand.Float64() < ctrl.ShedProb() {
			kiss(resp, ntppkt.KissRate, version, req)
			return verdict{outcome: shed, recv: recv}
		}
	}
	// The limiter runs on the server's clock, like every protocol
	// timestamp: under a simulated or offset clock the windows
	// must follow the clock that stamps the packets, not the
	// wall.
	if limiter != nil && limiter.over(keyFromIP(src), recv) {
		kiss(resp, ntppkt.KissRate, version, req)
		return verdict{outcome: limited, recv: recv, crypto: crypto}
	}
	*resp = ntppkt.Packet{
		Leap:      ntppkt.LeapNone,
		Version:   version,
		Mode:      ntppkt.ModeServer,
		Stratum:   uint8(s.stratum.Load()),
		Poll:      req.Poll,
		Precision: -20,
		RefID:     s.RefID,
		RefTime:   ntptime.FromTime(recv.Add(-10 * time.Second)),
		Origin:    req.Transmit,
		Receive:   ntptime.FromTime(recv),
		Ext:       resp.Ext[:0], // keep the backing array across requests
	}
	if !verified {
		resp.Transmit = ntptime.FromTime(s.Clock.Now())
		return verdict{outcome: served, recv: recv}
	}
	// Everything a protected reply needs that does not depend on its
	// header — the re-supply cookies, sealed under the master key, and
	// the nonce — is made before the transmit stamp. Only the seal must
	// follow it, since the authenticator's associated data covers the
	// final header image; whatever follows the stamp is served to the
	// client as error in the server-to-client leg.
	cryptoStart := w.now()
	if err := w.nts.MintCookies(s.NTS); err != nil {
		return verdict{outcome: dropped, recv: recv, crypto: crypto + w.now().Sub(cryptoStart)}
	}
	resp.Transmit = ntptime.FromTime(s.Clock.Now())
	w.nts.Seal(resp)
	crypto += w.now().Sub(cryptoStart)
	return verdict{outcome: served, recv: recv, crypto: crypto, nts: true}
}

// kiss fills resp with a kiss-of-death: code, the request's origin
// echoed, and no time — Receive and Transmit stay zero.
func kiss(resp *ntppkt.Packet, code [4]byte, version uint8, req *ntppkt.Packet) {
	*resp = ntppkt.Packet{
		Leap: ntppkt.LeapNotSync, Version: version, Mode: ntppkt.ModeServer,
		Stratum: ntppkt.StratumKoD, RefID: code,
		Origin: req.Transmit,
		Ext:    resp.Ext[:0],
	}
}

// housekeep is the watchdog/housekeeping loop: it restarts wedged
// shard pools, sweeps expired rate-limit entries, and feeds the slow
// signals (in-flight, write-error rate, table pressure) to the
// overload controller.
func (s *Server) housekeep(interval time.Duration) {
	defer s.hkWG.Done()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	prev := make([]uint64, len(s.shards))
	for i, sh := range s.shards {
		prev[i] = sh.completed.Load()
	}
	cooldown := make([]int, len(s.shards))
	deltas := make([]uint64, len(s.shards))
	var prevServed, prevWriteErr uint64
	for {
		select {
		case <-s.stopHk:
			return
		case <-tick.C:
		}
		// Wedged-shard scan: a shard holding work in flight that
		// completed nothing over a whole interval is stuck mid-handle
		// (an idle shard holds nothing in flight). Only act when a
		// sibling did make progress, so a globally quiet server is
		// left alone; the cooldown stops a still-wedged shard from
		// accreting a fresh pool every tick.
		var maxDelta uint64
		for i, sh := range s.shards {
			cur := sh.completed.Load()
			deltas[i] = cur - prev[i]
			prev[i] = cur
			if deltas[i] > maxDelta {
				maxDelta = deltas[i]
			}
		}
		var maxInFlight int64
		for i, sh := range s.shards {
			inf := sh.inFlight.Load()
			if inf > maxInFlight {
				maxInFlight = inf
			}
			if cooldown[i] > 0 {
				cooldown[i]--
				continue
			}
			if deltas[i] == 0 && inf > 0 && maxDelta > 0 {
				s.restartShard(sh)
				cooldown[i] = 2
			}
		}
		if lim := s.limiter.Load(); lim != nil {
			lim.sweep(s.Clock.Now())
		}
		if s.ctrl != nil {
			var occ float64
			if lim := s.limiter.Load(); lim != nil {
				occ = lim.occupancy()
			}
			snap := s.Snapshot()
			dServed := snap.Served - prevServed
			dWE := snap.WriteErrors - prevWriteErr
			prevServed, prevWriteErr = snap.Served, snap.WriteErrors
			var weFrac float64
			if dServed+dWE > 0 {
				weFrac = float64(dWE) / float64(dServed+dWE)
			}
			s.ctrl.Evaluate(time.Now(), overload.Signals{
				MaxShardInFlight: int(maxInFlight),
				TableOccupancy:   occ,
				WriteErrorFrac:   weFrac,
			})
		}
	}
}

// restartShard rotates a wedged shard's worker pool: the epoch bump
// tells the old workers — wherever they are stuck — to exit when they
// next complete a datagram, and a fresh complement starts against the
// same socket immediately.
func (s *Server) restartShard(sh *shard) {
	epoch := sh.epoch.Add(1)
	s.restarts.Add(1)
	for w := 0; w < s.workersPerShard; w++ {
		s.spawnWorker(sh, epoch)
	}
}
