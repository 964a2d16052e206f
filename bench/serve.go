package main

import (
	"crypto/tls"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"mntp/internal/clock"
	"mntp/internal/exchange"
	"mntp/internal/loadgen"
	"mntp/internal/ntppkt"
	"mntp/internal/ntske"
)

// serveConfig is one serving mix: how the server is started and what
// traffic it is offered.
//
// The measured load is closed loop: loadClients clients, each sending
// its next request as soon as the previous one is answered. Runner and
// server share one core (see pinToOneCPU), so the load saturates it:
// requests per second is the capacity of the whole path at that many
// clients, and latency is what a client sees there. A stalled host
// delays requests instead of piling them up, and no more than
// loadClients datagrams can ever sit in the server's socket buffer — so
// no request is lost to a buffer overflow, which an open-loop generator
// catching up after a scheduler stall on a shared box cannot promise.
//
// rate and population describe the open-loop loadgen traffic the
// traced run offers the in-process server (counters only, never timed).
type serveConfig struct {
	nts     bool
	guarded bool // per-client rate limit and overload control on
	sources int  // distinct spoofed 127.66/16 source addresses per client (0: the default source)

	rate       float64
	population int
}

const (
	// loadClients is the closed loop's width, the same on every mix: 16
	// requests in flight keep the server's socket queue deep enough for
	// batched I/O to have something to batch.
	loadClients  = 16
	loadSenders  = 2 // sender goroutines of the in-process loadgen traffic
	loadSessions = 2 // its NTS-KE sessions
	// replyTimeout is far beyond any reply the closed loop waits for: a
	// host stall makes an exchange slow, not failed.
	replyTimeout = time.Second
	// segmentLen is the part of the measured window one reading covers.
	segmentLen = 500 * time.Millisecond

	// The guarded mix's limit: 256 sources sharing ≈ 125 000 req/s send
	// ≈ 5 000 per window each, a tenth of it, so nothing is refused. The
	// table bound stays at its default, so nothing is evicted either.
	guardLimit  = 50000
	guardWindow = 10 * time.Second
)

var serveWorkloads = map[string]serveConfig{
	// Bare fast path at the smallest packet: no limiter, no overload
	// controller, no NTS.
	"serve_plain": {rate: 30000},
	// AEAD-dominated: every request verified, every reply sealed, one
	// NTS-KE session per client.
	"serve_nts": {nts: true, rate: 4000},
	// The production configuration: limiter mutex and bucket write per
	// request, overload controller fed; 16 × 16 = 256 sources. (Not the
	// 1 024 first sized: the sockets and buckets of 1 024 sources are a
	// 2 MB working set, the size of this CPU's L2, and whenever a
	// neighbour on the shared host pressed on the cache the run-to-run
	// spread of the latency percentiles went from 3 % to 20–27 %; 256
	// sources cost 0.3 µs less per request and stayed at 3 %. The traced
	// run's in-process pass still offers 1 024.)
	"serve_guarded": {guarded: true, sources: 16, rate: 30000, population: 1024},
}

// args are the ntpserver flags of the mix (beyond -listen, -stats and
// the -nts set, which startServer adds).
func (c serveConfig) args() []string {
	a := []string{"-shards", "1"}
	if c.guarded {
		a = append(a, "-overload", "-ratelimit", fmt.Sprint(guardLimit), "-ratewindow", guardWindow.String())
	}
	return a
}

// loadConfig is the open-loop loadgen traffic of the traced run's
// in-process pass.
func (c serveConfig) loadConfig(target, keAddr string, tlsCfg *tls.Config, d time.Duration, seed int64) loadgen.Config {
	cfg := loadgen.Config{
		Target:     target,
		Rate:       c.rate,
		Duration:   d,
		Senders:    loadSenders,
		Arrival:    loadgen.ArrivalPoisson,
		Timeout:    250 * time.Millisecond,
		Population: c.population,
		Seed:       seed,
	}
	if c.nts {
		cfg.NTS = &loadgen.NTSConfig{KEAddr: keAddr, TLSConfig: tlsCfg, Sessions: loadSessions, KETimeout: 5 * time.Second}
	}
	return cfg
}

// sockTransport is an exchange.Transport over long-lived UDP sockets,
// one per source address, used in turn. (ntpnet.Client dials a socket
// per exchange from the default source, which at thousands of requests
// a second prices the dial, not the server, and cannot present the
// guarded mix's many sources.) Not safe for concurrent use: a client
// owns its transport.
type sockTransport struct {
	sources []net.IP // nil: the default source address
	conns   []*net.UDPConn
	server  string
	next    int
	out, in []byte
	reply   ntppkt.Packet
}

// spoofIP is the i-th simulated source address, inside 127/8 so that
// Linux routes it over loopback without configuration (the same block
// loadgen's Population uses).
func spoofIP(i int) net.IP { return net.IPv4(127, 66, byte(i>>8), byte(i)) }

func (t *sockTransport) close() {
	for _, c := range t.conns {
		c.Close()
	}
	t.conns = nil
}

// conn returns the socket for the next source in turn, dialling every
// source on first use (or when the server changes).
func (t *sockTransport) conn(server string) (*net.UDPConn, error) {
	if t.conns == nil || server != t.server {
		t.close()
		raddr, err := net.ResolveUDPAddr("udp", server)
		if err != nil {
			return nil, err
		}
		locals := []*net.UDPAddr{nil}
		if len(t.sources) > 0 {
			locals = locals[:0]
			for _, ip := range t.sources {
				locals = append(locals, &net.UDPAddr{IP: ip})
			}
		}
		for _, l := range locals {
			c, err := net.DialUDP("udp", l, raddr)
			if err != nil {
				t.close()
				return nil, fmt.Errorf("dial %s from %v: %w", server, l, err)
			}
			t.conns = append(t.conns, c)
		}
		t.server = server
		t.out, t.in = make([]byte, 0, 2048), make([]byte, 2048)
	}
	c := t.conns[t.next%len(t.conns)]
	t.next++
	return c, nil
}

// Exchange implements exchange.Transport. As ntpnet.Client does, it
// skips datagrams that are not the reply to this request (a reply that
// outlived its own deadline) and keeps waiting.
func (t *sockTransport) Exchange(server string, req *ntppkt.Packet) (*ntppkt.Packet, time.Time, error) {
	conn, err := t.conn(server)
	if err != nil {
		return nil, time.Time{}, err
	}
	if err := conn.SetDeadline(time.Now().Add(replyTimeout)); err != nil {
		return nil, time.Time{}, err
	}
	t.out = req.Encode(t.out[:0])
	if _, err := conn.Write(t.out); err != nil {
		return nil, time.Time{}, err
	}
	for {
		n, err := conn.Read(t.in)
		if err != nil {
			return nil, time.Time{}, err
		}
		t4 := time.Now()
		if t.reply.DecodeInto(t.in[:n]) != nil || t.reply.Mode != ntppkt.ModeServer || t.reply.Origin != req.Transmit {
			continue
		}
		return &t.reply, t4, nil
	}
}

// op is one completed exchange. Times are in µs. Client and server
// share the host clock, so the true offset is 0 and every measured |θ|
// is error the server and the stack put into the time handed out.
type op struct {
	at        time.Duration // completion, since the window started
	rtt       float64       // T4 − T1
	absOffset float64       // |θ|
	residence float64       // T3 − T2
	delay     float64       // δ
}

// clientStats is what one client saw.
type clientStats struct {
	ops        []op
	attempts   int
	failures   int      // no valid reply
	violations []string // wire invariants broken by a reply that did arrive
}

// clockSlack is how far apart two reads of the shared host clock by
// different processes may appear out of order (timestamp truncation and
// clock slewing between the reads).
const clockSlack = time.Millisecond

// checkedTransport wraps tr so that every reply is held against the
// wire invariants before the synchronization code sees it.
func checkedTransport(tr exchange.Transport, st *clientStats) exchange.Transport {
	return exchange.TransportFunc(func(server string, req *ntppkt.Packet) (*ntppkt.Packet, time.Time, error) {
		t1 := req.Transmit
		resp, t4, err := tr.Exchange(server, req)
		if err != nil {
			return resp, t4, err
		}
		switch {
		case resp.Mode != ntppkt.ModeServer:
			st.violations = append(st.violations, fmt.Sprintf("reply mode %d", resp.Mode))
		case resp.Stratum < 1 || resp.Stratum > 15:
			st.violations = append(st.violations, fmt.Sprintf("reply stratum %d", resp.Stratum))
		case resp.Origin != t1:
			st.violations = append(st.violations, "origin does not echo the request's transmit timestamp")
		case resp.Receive > resp.Transmit:
			st.violations = append(st.violations, "receive timestamp after transmit timestamp")
		case resp.Receive.Sub(t1) < -clockSlack || resp.Transmit.Time(t4).After(t4.Add(clockSlack)):
			st.violations = append(st.violations, "server timestamps outside the client's send..receive interval")
		}
		return resp, t4, nil
	})
}

// client is one closed-loop client: the stack a device would use
// (exchange.Measure, through ntske.Transport when the mix is NTS) over
// its own sockets, one exchange at a time.
type client struct {
	sock   *sockTransport
	tr     exchange.Transport
	server string // what Measure is pointed at: the NTP address, or the NTS-KE address
	rng    *rand.Rand
	stats  clientStats
}

// newClient makes client i of the fleet. The seed decides what the
// server is sent: each client's sequence of request flavours and the
// block of source addresses the fleet speaks from.
func newClient(c serveConfig, p *serverProc, i int, seed int64) *client {
	cl := &client{sock: &sockTransport{}, server: p.addr, rng: rand.New(rand.NewSource(seed*7919 + int64(i)))}
	block := int(uint64(seed)%64) * loadClients * c.sources // 64 blocks of at most 1 024 addresses fill 127.66/16
	for s := 0; s < c.sources; s++ {
		cl.sock.sources = append(cl.sock.sources, spoofIP(block+i*c.sources+s))
	}
	var tr exchange.Transport = cl.sock
	if c.nts {
		// The first exchange runs key establishment; the session (keys
		// and cookie jar) is the client's own from then on.
		tr = &ntske.Transport{Inner: tr, TLSConfig: p.tls, KETimeout: 5 * time.Second}
		cl.server = p.keAddr
	}
	cl.tr = checkedTransport(tr, &cl.stats)
	return cl
}

// once performs one exchange and records it as completed `since` start.
func (cl *client) once(start time.Time) error {
	cl.stats.attempts++
	// Half the requests are the minimal SNTP shape a phone sends, half
	// a full NTP client's.
	sntp := cl.rng.Intn(2) == 0
	s, err := exchange.Measure(clock.System{}, cl.tr, cl.server, ntppkt.Version4, sntp)
	if err != nil {
		cl.stats.failures++
		return err
	}
	cl.stats.ops = append(cl.stats.ops, op{
		at:        s.T4.Sub(start),
		rtt:       float64(s.T4.Sub(s.T1)) / 1e3,
		absOffset: math.Abs(float64(s.Offset)) / 1e3,
		residence: float64(s.T3.Sub(s.T2)) / 1e3,
		delay:     float64(s.Delay) / 1e3,
	})
	return nil
}

// run exchanges back to back until end.
func (cl *client) run(start, end time.Time) {
	for time.Now().Before(end) {
		_ = cl.once(start) // counted in stats.failures
	}
}

// fleet is the mix's clients against one server.
type fleet struct {
	clients []*client
}

func (f *fleet) close() {
	for _, cl := range f.clients {
		cl.sock.close()
	}
}

// run drives every client from start for d and returns what they saw.
func (f *fleet) run(start time.Time, d time.Duration) (st clientStats) {
	for _, cl := range f.clients {
		cl.stats = clientStats{ops: make([]op, 0, cap(cl.stats.ops))}
	}
	var wg sync.WaitGroup
	for _, cl := range f.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.run(start, start.Add(d))
		}()
	}
	wg.Wait()
	for _, cl := range f.clients {
		st.ops = append(st.ops, cl.stats.ops...)
		st.attempts += cl.stats.attempts
		st.failures += cl.stats.failures
		st.violations = append(st.violations, cl.stats.violations...)
	}
	return st
}

// warmupLen is the discarded load that ends a set-up: long enough to
// fault in the serve path's pages and size the GC heap, short enough
// that set-up stays mostly spawn, bind, handshakes and first replies.
const warmupLen = 250 * time.Millisecond

// setUpServer is everything between "workload starts" and "first
// measured request": spawn, readiness probe, every client's sockets
// and first exchange (with its NTS-KE handshake), warm-up load.
func setUpServer(e *env, c serveConfig, seed int64) (*serverProc, *fleet, time.Duration, error) {
	start := time.Now()
	p, err := startServer(e.serverBin, e.tmpDir, c.args(), c.nts)
	if err != nil {
		return nil, nil, 0, err
	}
	f := &fleet{}
	fail := func(err error) (*serverProc, *fleet, time.Duration, error) {
		f.close()
		p.stop()
		return nil, nil, 0, err
	}
	for i := 0; i < loadClients; i++ {
		f.clients = append(f.clients, newClient(c, p, i, seed))
	}
	// The listen announcement says the socket is bound, a reply says the
	// serve pool runs: the first client probes until it is answered.
	deadline := start.Add(10 * time.Second)
	for f.clients[0].once(start) != nil {
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("server at %s never answered a probe", p.addr))
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, cl := range f.clients[1:] {
		if err := cl.once(start); err != nil {
			return fail(fmt.Errorf("client's first exchange: %w", err))
		}
	}
	if st := f.run(time.Now(), e.scale(warmupLen)); len(st.ops) == 0 {
		return fail(errors.New("warm-up load: no request was answered"))
	}
	return p, f, time.Since(start), nil
}

// segment is one of the equal parts of the measured window, reduced.
type segment struct {
	Ops         int     `json:"ops"`
	OpsPerS     float64 `json:"ops_per_s"`
	CPUUsPerOp  float64 `json:"server_cpu_us_per_op"`
	RTTP50Us    float64 `json:"rtt_p50_us"`
	RTTP90Us    float64 `json:"rtt_p90_us"`
	OffsetP50Us float64 `json:"abs_offset_p50_us"`
	OffsetP90Us float64 `json:"abs_offset_p90_us"`
}

// serveMeasure is what a measured window against a child ntpserver
// yields, before it is reduced to metrics.
type serveMeasure struct {
	clientStats
	segs       []segment
	rssMB      []float64 // the server's resident set at every segment edge
	peakRSSMB  float64   // and its high-water mark at the end
	seconds    float64
	serverUser time.Duration
	serverSys  time.Duration
	serverVCSW int64
	runnerCPU  time.Duration
}

// measureServe drives the fleet at the server for total. The window is
// cut into parts of segmentLen and every timing is read per part, so
// that each metric can be the median of many readings, which a slow
// second of the shared host cannot move.
func measureServe(f *fleet, p *serverProc, total, segLen time.Duration) (*serveMeasure, error) {
	m := &serveMeasure{}
	pid := p.pid()
	u0, s0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	v0, err := procVoluntarySwitches(pid)
	if err != nil {
		return nil, err
	}
	cpu0 := selfCPU()

	// The server's CPU clock is read at every segment edge while the
	// fleet runs; an edge is where the read happened, not where it was
	// due.
	type edge struct {
		at, cpu time.Duration
		rssMB   float64
	}
	segments := max(int(total/segLen), 1)
	edges := make([]edge, 0, segments+1)
	edgeErr := make(chan error, 1)
	start := time.Now()
	go func() {
		for i := 0; i <= segments; i++ {
			time.Sleep(time.Until(start.Add(total * time.Duration(i) / time.Duration(segments))))
			cpu, err1 := procCPUNanos(pid)
			rss, err2 := procRSSMB(pid)
			if err := errors.Join(err1, err2); err != nil {
				edgeErr <- err
				return
			}
			edges = append(edges, edge{time.Since(start), cpu, rss})
		}
		edgeErr <- nil
	}()
	m.clientStats = f.run(start, total)
	if err := <-edgeErr; err != nil {
		return nil, err
	}
	m.seconds = time.Since(start).Seconds()
	for _, e := range edges {
		m.rssMB = append(m.rssMB, e.rssMB)
	}

	u1, s1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	v1, err := procVoluntarySwitches(pid)
	if err != nil {
		return nil, err
	}
	m.serverUser, m.serverSys, m.serverVCSW = u1-u0, s1-s0, v1-v0
	if m.peakRSSMB, err = procPeakRSSMB(pid); err != nil {
		return nil, err
	}
	m.runnerCPU = selfCPU() - cpu0
	if len(m.ops) == 0 {
		return nil, errors.New("the server answered no request")
	}

	// An exchange that completed before the first edge or after the
	// last belongs to the first or last segment.
	bySeg := make([][]op, segments)
	for _, o := range m.ops {
		i := sort.Search(segments-1, func(i int) bool { return o.at <= edges[i+1].at })
		bySeg[i] = append(bySeg[i], o)
	}
	for i, ops := range bySeg {
		if len(ops) == 0 {
			continue
		}
		rtts, offs := make([]float64, len(ops)), make([]float64, len(ops))
		for j, o := range ops {
			rtts[j], offs[j] = o.rtt, o.absOffset
		}
		m.segs = append(m.segs, segment{
			Ops:         len(ops),
			OpsPerS:     float64(len(ops)) / (edges[i+1].at - edges[i].at).Seconds(),
			CPUUsPerOp:  float64(edges[i+1].cpu-edges[i].cpu) / 1e3 / float64(len(ops)),
			RTTP50Us:    quantile(rtts, 0.5),
			RTTP90Us:    quantile(rtts, 0.9),
			OffsetP50Us: quantile(offs, 0.5),
			OffsetP90Us: quantile(offs, 0.9),
		})
	}
	return m, nil
}

// perSegment reduces one reading of every segment to the undisturbed
// host's.
func (m *serveMeasure) perSegment(better string, f func(*segment) float64) float64 {
	xs := make([]float64, len(m.segs))
	for i := range m.segs {
		xs[i] = f(&m.segs[i])
	}
	return undisturbed(xs, better)
}

// column is one field of every completed exchange.
func (m *serveMeasure) column(f func(*op) float64) []float64 {
	xs := make([]float64, len(m.ops))
	for i := range m.ops {
		xs[i] = f(&m.ops[i])
	}
	return xs
}

// runServe is the timed run of a serving workload.
func runServe(e *env, c serveConfig, ms *metricSet) (*outcome, error) {
	var setups []float64
	var p *serverProc
	var f *fleet
	for i := 0; i < e.setupRepeats; i++ {
		if p != nil {
			f.close()
			p.stop()
		}
		var d time.Duration
		var err error
		if p, f, d, err = setUpServer(e, c, e.seed+int64(i)); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer p.stop()
	defer f.close()

	m, err := measureServe(f, p, e.window, e.scale(segmentLen))
	if err != nil {
		return nil, err
	}
	ms.set("setup_s", undisturbed(setups, "lower"))
	ms.set("ops_per_s", m.perSegment("higher", func(s *segment) float64 { return s.OpsPerS }))
	ms.set("cpu_us_per_op", m.perSegment("lower", func(s *segment) float64 { return s.CPUUsPerOp }))
	ms.set("op_p50_us", m.perSegment("lower", func(s *segment) float64 { return s.RTTP50Us }))
	ms.set("op_p90_us", m.perSegment("lower", func(s *segment) float64 { return s.RTTP90Us }))
	ms.set("time_err_p50_us", m.perSegment("lower", func(s *segment) float64 { return s.OffsetP50Us }))
	ms.set("time_err_p90_us", m.perSegment("lower", func(s *segment) float64 { return s.OffsetP90Us }))
	ms.set("rss_mb", median(m.rssMB))
	return m.outcome(), nil
}

// outcome turns the window's counts into the run's verdict: a request
// that got no served-time reply is a failed operation; a reply that
// broke a wire invariant makes the run incorrect.
func (m *serveMeasure) outcome() *outcome {
	o := &outcome{
		attempted: int64(m.attempts),
		failed:    int64(m.failures) + int64(len(m.violations)),
		raw:       map[string]any{"segments": m.segs, "seconds": m.seconds},
	}
	for _, v := range m.violations {
		o.problems = append(o.problems, "wire invariant: "+v)
	}
	return o
}
