package main

import (
	"bytes"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"fmt"
	"net"
	"runtime"
	"time"

	"mntp/internal/clock"
	"mntp/internal/core"
	"mntp/internal/exchange"
	"mntp/internal/ipasn"
	"mntp/internal/loadgen"
	"mntp/internal/netsim"
	"mntp/internal/ntplog"
	"mntp/internal/ntpnet"
	"mntp/internal/ntppkt"
	"mntp/internal/ntptime"
	"mntp/internal/nts"
	"mntp/internal/ntske"
	"mntp/internal/overload"
	"mntp/internal/sources"
	"mntp/internal/testbed"
	"mntp/internal/trend"
	"mntp/internal/tuner"
	"mntp/internal/wireless"
)

// This file holds the "micro" per-layer metrics: timed loops over one
// exported function each, on fixed inputs. They do not depend on the
// workload, so every traced run measures them; a change to one layer
// shows here first and the README says which end-to-end metric it
// should then move.

// timeLoop calls fn in batches of a few milliseconds for at least
// total and returns the median batch's nanoseconds per call. The
// median, because a batch that shared its core with something else
// must not move the number.
func timeLoop(total time.Duration, fn func()) float64 {
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if el := time.Since(start); el >= time.Millisecond || n >= 1<<26 {
			n = max(1, int(float64(n)*float64(4*time.Millisecond)/float64(el+1)))
			break
		}
		n *= 8
	}
	var per []float64
	for start := time.Now(); time.Since(start) < total || len(per) < 3; {
		t := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t))/float64(n))
	}
	return median(per)
}

// allocsPer counts heap allocations per call of fn, the way
// testing.AllocsPerRun does.
func allocsPer(runs int, fn func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn() // first call may allocate lazily initialised state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// ntsFixture is an in-process NTS deployment: the cookie ring plus an
// NTS-KE server handing out sessions for it.
type ntsFixture struct {
	ring   *nts.KeyRing
	ke     *ntske.Server
	keAddr string
	tls    *tls.Config
}

// newNTSFixture starts NTS-KE for ring on a free loopback port,
// advertising ntpPort as the NTP endpoint.
func newNTSFixture(ring *nts.KeyRing, ntpPort int) (*ntsFixture, error) {
	cert, pem, err := ntske.SelfSigned(time.Now(), "127.0.0.1")
	if err != nil {
		return nil, err
	}
	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM(pem) {
		return nil, errors.New("self-signed certificate did not parse")
	}
	f := &ntsFixture{ring: ring, tls: &tls.Config{RootCAs: pool}}
	f.ke = &ntske.Server{Ring: ring, TLSConfig: &tls.Config{Certificates: []tls.Certificate{cert}},
		NTPHost: "127.0.0.1", NTPPort: ntpPort}
	addr, err := f.ke.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.keAddr = addr.String()
	return f, nil
}

func (f *ntsFixture) close() { _ = f.ke.Close() }

func (f *ntsFixture) session() (*nts.Session, error) {
	s, err := ntske.KeyExchange(f.keAddr, f.tls, 5*time.Second)
	if err != nil {
		return nil, err
	}
	s.ReuseWhenDry = true // loops outrun the jar; linkability is irrelevant here
	return s, nil
}

// serverReply builds the header a server would answer req with.
func serverReply(req *ntppkt.Packet) ntppkt.Packet {
	now := ntptime.FromTime(time.Now())
	return ntppkt.Packet{Leap: ntppkt.LeapNone, Version: req.Version, Mode: ntppkt.ModeServer,
		Stratum: 2, Origin: req.Transmit, Receive: now, Transmit: now}
}

// microLen is how long each timed loop runs.
const microLen = 300 * time.Millisecond

// runMicros measures every micro metric into ms.
func runMicros(e *env, ms *metricSet) error {
	d := e.scale(microLen)
	if err := microsWire(d, ms); err != nil {
		return err
	}
	if err := microsServing(d, ms); err != nil {
		return err
	}
	microsClient(d, ms)
	return microsLogStudy(ms)
}

// microsWire covers ntppkt, nts and ntske: the bytes on the wire and
// the crypto around them.
func microsWire(d time.Duration, ms *metricSet) error {
	var sink ntppkt.Packet
	plain := ntppkt.NewClient(ntppkt.Version4, ntptime.FromTime(time.Now()))
	plainBytes := plain.Encode(nil)
	buf := make([]byte, 0, 2048)
	ms.set("ntppkt.decode_ns", timeLoop(d, func() { _ = sink.DecodeInto(plainBytes) }))
	ms.set("ntppkt.encode_ns", timeLoop(d, func() { buf = plain.Encode(buf[:0]) }))

	ring, err := nts.NewKeyRing(3)
	if err != nil {
		return err
	}
	f, err := newNTSFixture(ring, ntske.DefaultNTPPort)
	if err != nil {
		return fmt.Errorf("NTS fixture: %w", err)
	}
	defer f.close()
	var handshakes []float64
	var sess *nts.Session
	for i := 0; i < 9; i++ {
		start := time.Now()
		if sess, err = f.session(); err != nil {
			return fmt.Errorf("NTS-KE: %w", err)
		}
		handshakes = append(handshakes, float64(time.Since(start))/1e6)
	}
	ms.set("ntske.handshake_ms", median(handshakes))

	// One captured exchange: the request as the client sends it and the
	// reply as the server seals it.
	req := ntppkt.NewClient(ntppkt.Version4, ntptime.FromTime(time.Now()))
	st, err := sess.ProtectRequest(req)
	if err != nil {
		return err
	}
	reqBytes := req.Encode(nil)
	var onWire ntppkt.Packet
	if err := onWire.DecodeInto(reqBytes); err != nil {
		return err
	}
	sreq, err := nts.VerifyRequest(f.ring, &onWire)
	if err != nil {
		return fmt.Errorf("captured NTS request does not verify: %w", err)
	}
	reply := serverReply(&onWire)
	if err := nts.ProtectResponse(f.ring, sreq, &reply); err != nil {
		return err
	}
	replyBytes := reply.Encode(nil)
	var replyOnWire ntppkt.Packet
	if err := replyOnWire.DecodeInto(replyBytes); err != nil {
		return err
	}
	if err := sess.VerifyReply(&replyOnWire, st); err != nil {
		return fmt.Errorf("captured NTS reply does not verify: %w", err)
	}
	ms.set("nts.request_wire_bytes", float64(len(reqBytes)))
	ms.set("nts.reply_wire_bytes", float64(len(replyBytes)))

	ms.set("ntppkt.decode_nts_ns", timeLoop(d, func() { _ = sink.DecodeInto(reqBytes) }))
	ms.set("ntppkt.decode_nts_allocs", allocsPer(200, func() { _ = sink.DecodeInto(reqBytes) }))
	ms.set("ntppkt.encode_nts_ns", timeLoop(d, func() { buf = reply.Encode(buf[:0]) }))

	verify := func() { _, _ = nts.VerifyRequest(f.ring, &onWire) }
	protect := func() {
		r := serverReply(&onWire)
		_ = nts.ProtectResponse(f.ring, sreq, &r)
	}
	ms.set("nts.verify_request_us", timeLoop(d, verify)/1e3)
	ms.set("nts.verify_request_allocs", allocsPer(200, verify))
	ms.set("nts.protect_response_us", timeLoop(d, protect)/1e3)
	ms.set("nts.protect_response_allocs", allocsPer(200, protect))
	var cookie []byte
	ms.set("nts.seal_cookie_us", timeLoop(d, func() { cookie, _ = f.ring.SealCookie(sreq.AEAD, sreq.C2S, sreq.S2C) })/1e3)
	ms.set("nts.open_cookie_us", timeLoop(d, func() { _, _, _, _ = f.ring.OpenCookie(cookie) })/1e3)
	ms.set("nts.protect_request_us", timeLoop(d, func() {
		r := *plain
		r.Ext = nil
		_, _ = sess.ProtectRequest(&r)
	})/1e3)
	ms.set("nts.verify_reply_us", timeLoop(d, func() { _ = sess.VerifyReply(&replyOnWire, st) })/1e3)
	return nil
}

// microsServing covers ntpnet's socket costs, overload and loadgen's
// recorder.
func microsServing(d time.Duration, ms *metricSet) error {
	srv := ntpnet.NewServer(clock.System{}, 2)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	cl := &ntpnet.Client{Timeout: replyTimeout}
	var exErr error
	ms.set("ntpnet.exchange_idle_us", timeLoop(d, func() {
		req := ntppkt.NewClient(ntppkt.Version4, ntptime.FromTime(time.Now()))
		if _, _, err := cl.Exchange(addr.String(), req); err != nil {
			exErr = err
		}
	})/1e3)
	if exErr != nil {
		return fmt.Errorf("idle exchange: %w", exErr)
	}

	pair, err := newUDPPair()
	if err != nil {
		return err
	}
	defer pair.close()
	payload := make([]byte, ntppkt.HeaderLen)
	ms.set("ntpnet.udp_pair_us", timeLoop(d, func() { exErr = pair.hop(pair.a, pair.b, payload) })/1e3)
	if exErr != nil {
		return fmt.Errorf("loopback datagram: %w", exErr)
	}

	ctl := overload.New(overload.Config{})
	now := time.Now()
	ms.set("overload.observe_ns", timeLoop(d, func() {
		now = now.Add(20 * time.Microsecond)
		ctl.Observe(300*time.Microsecond, now)
	}))
	ms.set("overload.evaluate_ns", timeLoop(d, func() {
		now = now.Add(time.Second)
		ctl.Evaluate(now, overload.Signals{MaxShardInFlight: 1, TableOccupancy: 0.06})
	}))
	var prob float64
	ms.set("overload.shedprob_ns", timeLoop(d, func() { prob = ctl.ShedProb() }))
	_ = prob

	var rec loadgen.Recorder
	lat := 100 * time.Microsecond
	ms.set("loadgen.record_ns", timeLoop(d, func() {
		lat = (lat*5 + 37*time.Microsecond) % (20 * time.Millisecond)
		rec.Record(lat)
	}))
	return nil
}

// udpPair is two loopback sockets in one goroutine: a datagram's
// syscall and stack cost without any scheduler wake-up.
type udpPair struct {
	a, b *net.UDPConn
	buf  []byte
}

func newUDPPair() (*udpPair, error) {
	lo := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	a, err := net.ListenUDP("udp", lo)
	if err != nil {
		return nil, err
	}
	b, err := net.ListenUDP("udp", lo)
	if err != nil {
		a.Close()
		return nil, err
	}
	return &udpPair{a: a, b: b, buf: make([]byte, 2048)}, nil
}

func (p *udpPair) close() {
	p.a.Close()
	p.b.Close()
}

// hop sends payload from one socket and reads it at the other.
func (p *udpPair) hop(from, to *net.UDPConn, payload []byte) error {
	if _, err := from.WriteToUDP(payload, to.LocalAddr().(*net.UDPAddr)); err != nil {
		return err
	}
	_, _, err := to.ReadFromUDP(p.buf)
	return err
}

// instantTransport answers from memory with the system clock's time
// (the last source half a second off, a falseticker), so a pool round
// costs pool machinery only.
func instantTransport(n int) exchange.Transport {
	clk := clock.System{}
	liar := fmt.Sprintf("src%d", n-1)
	return exchange.TransportFunc(func(server string, req *ntppkt.Packet) (*ntppkt.Packet, time.Time, error) {
		now := clk.Now()
		if server == liar {
			now = now.Add(500 * time.Millisecond)
		}
		ts := ntptime.FromTime(now)
		return &ntppkt.Packet{Leap: ntppkt.LeapNone, Version: req.Version, Mode: ntppkt.ModeServer,
			Stratum: 2, Origin: req.Transmit, Receive: ts, Transmit: ts}, clk.Now(), nil
	})
}

// microSeed fixes the simulated inputs of the client-side micros, so
// their counts repeat exactly.
const microSeed = 2016

// paperMNTPParams is the paper's head-to-head MNTP configuration for a
// run of length base (5 s cadence, warm-up a sixth of the run).
func paperMNTPParams(base time.Duration) core.Params {
	p := core.DefaultParams(testbed.PoolName)
	p.DisablePollJitter = true
	p.WarmupPeriod = base / 6
	p.WarmupWaitTime = 5 * time.Second
	p.RegularWaitTime = 5 * time.Second
	p.ResetPeriod = 2 * base
	return p
}

// microsClient covers the client stack: trend, sources, wireless,
// netsim, core/sntp/ntpclient over the testbed, tuner.
func microsClient(d time.Duration, ms *metricSet) {
	for _, k := range []struct {
		kind trend.Kind
		name string
	}{{trend.KindLeastSquares, "trend.ls_add_ns"}, {trend.KindTheilSen, "trend.theilsen_add_ns"}, {trend.KindLAD, "trend.lad_add_ns"}} {
		const window = 64
		est := trend.NewEstimator(k.kind, window, 1e-3)
		for i := 0; i < window; i++ {
			est.Add(float64(i)*5, 10e-6*float64(i)*5+1e-3*float64(i%5))
		}
		i := window
		ms.set(k.name, timeLoop(d, func() {
			x := float64(i) * 5
			i++
			est.Add(x, 10e-6*x+1e-3*float64(i%5))
			_, _ = est.Line()
		}))
	}

	const nsrc = 8
	servers := make([]string, nsrc)
	for i := range servers {
		servers[i] = fmt.Sprintf("src%d", i)
	}
	pool := sources.New(clock.System{}, instantTransport(nsrc), sources.Config{Servers: servers, Parallelism: 1})
	ms.set("sources.round_select_us", timeLoop(d, func() {
		res := pool.Round()
		var samples []exchange.Sample
		var idxs []int
		for _, o := range res.Outcomes {
			if o.OK {
				samples = append(samples, o.Sample)
				idxs = append(idxs, o.Index)
			}
		}
		pool.SelectCombine(samples, idxs)
	})/1e3)
	var ivals []sources.Interval
	for i := 0; i < 35; i++ {
		mid := float64(i%7) * 0.001
		ivals = append(ivals, sources.Interval{Lo: mid - 0.05, Mid: mid, Hi: mid + 0.05})
	}
	for i := 0; i < 15; i++ {
		mid := 1.0 + float64(i)
		ivals = append(ivals, sources.Interval{Lo: mid - 0.01, Mid: mid, Hi: mid + 0.01})
	}
	ms.set("sources.marzullo_ns", timeLoop(d, func() { sources.Marzullo(ivals) }))

	var vnow time.Duration
	ch := wireless.NewChannel(wireless.Params{Seed: microSeed}, func() time.Duration { return vnow })
	ms.set("wireless.sample_ns", timeLoop(d, func() {
		vnow += 5 * time.Millisecond
		ch.SampleOneWay(vnow, netsim.Uplink)
	}))
	ms.set("wireless.hints_ns", timeLoop(d, func() {
		vnow += 5 * time.Millisecond
		ch.Hints()
	}))

	// netsim.Transport.Exchange needs a scheduler process; time a fixed
	// batch of exchanges inside one.
	ms.set("netsim.exchange_ns", timeLoop(d, func() {
		tb := testbed.New(testbed.Config{Seed: microSeed, Access: testbed.Wired})
		tb.Sched.Go(func(p *netsim.Proc) {
			tr := &netsim.Transport{Net: tb.Net, Proc: p, Clock: tb.TNClock}
			for i := 0; i < netsimBatch; i++ {
				req := ntppkt.NewClient(ntppkt.Version4, ntptime.FromTime(tb.TNClock.Now()))
				_, _, _ = tr.Exchange(testbed.PoolName, req)
			}
		})
		tb.Sched.Run()
	})/netsimBatch)

	wirelessTB := func(ntp bool) *testbed.Testbed {
		return testbed.New(testbed.Config{Seed: microSeed, Access: testbed.Wireless, Monitor: true, NTPCorrection: ntp})
	}
	var series *testbed.Series
	ms.set("core.mntp_hour_ms", timeLoop(d, func() {
		series = wirelessTB(false).RunMNTP(paperMNTPParams(time.Hour), time.Hour, false)
	})/1e6)
	rejected := 0
	for _, pt := range series.Points {
		if !pt.Accepted {
			rejected++
		}
	}
	ms.set("core.requests_per_hour", float64(series.Requests))
	ms.set("core.rejected_per_hour", float64(rejected))
	ms.set("sntp.hour_ms", timeLoop(d, func() { wirelessTB(false).RunSNTP(5*time.Second, time.Hour) })/1e6)
	// The full NTP client runs as the testbed's clock correction, with
	// the SNTP prober beside it: the number includes sntp.hour_ms.
	ms.set("ntpclient.hour_ms", timeLoop(d, func() { wirelessTB(true).RunSNTP(5*time.Second, time.Hour) })/1e6)

	trace := tuner.Collect(wirelessTB(false), []string{testbed.PoolName, testbed.PoolName, testbed.PoolName},
		5*time.Second, 30*time.Minute)
	configs := tuner.Table2Configs()
	ms.set("tuner.emulate_us", timeLoop(d, func() { tuner.Emulate(trace, configs[1].Params()) })/1e3)
	ms.set("tuner.search_ms", timeLoop(d, func() {
		for _, c := range configs {
			tuner.Emulate(trace, c.Params())
		}
	})/1e6)
}

// netsimBatch is how many exchanges one netsim.exchange_ns call
// simulates; scheduler and testbed construction are amortised over it.
const netsimBatch = 2000

// microsLogStudy prices the §3.1 log pipeline (Table 1 at the default
// 1/2000 scale), which no workload includes.
func microsLogStudy(ms *metricSet) error {
	reg := ipasn.NewRegistry()
	var bufs []*bytes.Buffer
	records := 0
	start := time.Now()
	for _, prof := range ntplog.Table1Profiles() {
		var buf bytes.Buffer
		_, n, err := ntplog.Generate(&buf, prof, reg, ntplog.GenConfig{Scale: 1.0 / 2000, Seed: microSeed})
		if err != nil {
			return fmt.Errorf("ntplog generate %s: %w", prof.ID, err)
		}
		records += n
		bufs = append(bufs, &buf)
	}
	gen := time.Since(start)
	start = time.Now()
	for _, buf := range bufs {
		if _, err := ntplog.Analyze(buf, reg, ntplog.AnalyzeConfig{}); err != nil {
			return fmt.Errorf("ntplog analyze: %w", err)
		}
	}
	ana := time.Since(start)
	ms.set("ntplog.generate_ms", float64(gen)/1e6)
	ms.set("ntplog.analyze_ms", float64(ana)/1e6)
	ms.set("ntplog.records_per_s", float64(records)/(gen+ana).Seconds())
	return nil
}
