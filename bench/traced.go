package main

import (
	"bytes"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mntp/internal/clock"
	"mntp/internal/loadgen"
	"mntp/internal/ntpnet"
	"mntp/internal/ntppkt"
	"mntp/internal/ntptime"
	"mntp/internal/nts"
	"mntp/internal/overload"
)

// runTraced is the traced run: the workload once more with a span at
// every layer boundary the benchmark can reach from outside, the
// layer counters, and the workload-independent micro loops. It reports
// every per-layer metric; a layer the workload does not enter reports
// 0 work. Spans go to <out>/<workload>.trace.json.
func runTraced(e *env, ms *metricSet) (*outcome, error) {
	tr := newTracer()
	var o *outcome
	var err error
	switch e.workload {
	case "paper_sim":
		o, err = tracePaperSim(e, ms, tr)
	case "fleet_sim":
		o, err = traceFleetSim(e, ms, tr)
	default:
		o, err = traceServe(e, serveWorkloads[e.workload], ms, tr)
	}
	if err != nil {
		return nil, err
	}
	if _, serving := serveWorkloads[e.workload]; !serving {
		// The simulations run inside the runner: its own high-water mark,
		// before the micro loops add theirs.
		rss, err := procPeakRSSMB(os.Getpid())
		if err != nil {
			return nil, err
		}
		ms.set("proc.peak_rss_mb", rss)
	}
	if err := runMicros(e, ms); err != nil {
		return nil, err
	}
	ms.set("bench.build_s", e.buildSeconds)
	return o, tr.write(filepath.Join(e.outDir, e.workload+".trace.json"), e.workload, e.seed)
}

// overheadShare is traced ÷ untraced − 1.
func overheadShare(traced, untraced time.Duration) float64 {
	if untraced <= 0 {
		return 0
	}
	return float64(traced)/float64(untraced) - 1
}

// tracePaperSim runs one seed's suite untraced, then traced with a
// span per experiment; both must produce the same numbers.
func tracePaperSim(e *env, ms *metricSet, tr *tracer) (*outcome, error) {
	o := &outcome{attempted: int64(len(paperExperiments)), raw: map[string]any{}}
	runSuite(e.seed, nil, 0) // warm-up
	var plain, traced suiteMetrics
	var spanTimes []float64
	// Alternate the two a few times: one suite is a third of a second,
	// too short for a single pair to resolve a few percent.
	var untracedWalls, tracedWalls []float64
	for i := uint64(1); i <= 3; i++ {
		untracedWalls = append(untracedWalls, float64(timed(func() { plain, _ = runSuite(e.seed, nil, 0) })))
		tracedWalls = append(tracedWalls, float64(tr.span("suite", "", i, func() { traced, spanTimes = runSuite(e.seed, tr, i) })))
	}
	untracedWall, tracedWall := time.Duration(median(untracedWalls)), time.Duration(median(tracedWalls))
	if d := diffSuite(plain, traced, true); len(d) > 0 {
		o.failed += int64(len(d))
		o.problems = append(o.problems, fmt.Sprintf("traced suite differs from untraced: %v", d))
	}
	failed, problems := suiteProblems(e.seed, traced)
	o.failed += int64(failed)
	o.problems = append(o.problems, problems...)
	for i, ex := range paperExperiments {
		switch ex.id {
		case "figure11", "figure12", "table2", "ext-energy", "ext-nitz": // the five dearest
			ms.set("experiments."+ex.id+"_ms", spanTimes[i])
		}
	}
	ms.set("bench.trace_overhead_share", overheadShare(tracedWall, untracedWall))
	o.raw["suite_ms_untraced"] = float64(untracedWall) / 1e6
	o.raw["suite_ms_traced"] = float64(tracedWall) / 1e6
	return o, nil
}

// traceFleetSim runs one fleet untraced, then traced with a span per
// phase (build, each poll round, final statistics) and the live heap
// read while the engine is alive.
func traceFleetSim(e *env, ms *metricSet, tr *tracer) (*outcome, error) {
	n := fleetSize
	if e.smoke {
		n = fleetCheckSize
	}
	o := &outcome{attempted: int64(n), raw: map[string]any{}}
	plain, err := runFleet(n, e.seed, fleetRounds, nil, 0, false)
	if err != nil {
		return nil, err
	}
	var traced *fleetRun
	tr.span("fleet", "", 1, func() { traced, err = runFleet(n, e.seed, fleetRounds, tr, 1, true) })
	if err != nil {
		return nil, err
	}
	if plain.counts != traced.counts {
		o.failed++
		o.problems = append(o.problems, fmt.Sprintf("fleet does not replay: %+v then %+v", plain.counts, traced.counts))
	}
	o.failed += int64(n - traced.counts.ServedClients)
	ms.set("population.ns_per_event", float64(traced.wall())/float64(traced.counts.Sent))
	ms.set("population.events", float64(traced.counts.Sent))
	ms.set("population.served", float64(traced.counts.Served))
	ms.set("population.heap_mb", float64(traced.heap)/(1<<20))
	ms.set("population.bytes_per_client", float64(traced.heap)/float64(n))
	ms.set("population.rtt_p50_ms", traced.rttP50Ms)
	ms.set("bench.trace_overhead_share", overheadShare(traced.wall(), plain.wall()))
	o.raw["fleet"] = traced.counts
	return o, nil
}

// inProcessServer is an ntpnet.Server configured like the serving mix,
// inside the runner, where its Snapshot, rate table and health state
// can be read.
type inProcessServer struct {
	srv  *ntpnet.Server
	addr *net.UDPAddr
	nts  *ntsFixture // nil without NTS
}

func startInProcess(c serveConfig) (*inProcessServer, error) {
	s := &inProcessServer{srv: ntpnet.NewServer(clock.System{}, 2)}
	s.srv.Shards = 1
	if c.guarded {
		s.srv.RateLimit, s.srv.RateWindow = guardLimit, guardWindow
		s.srv.Overload = &overload.Config{} // ntpserver's -shed-target/-shed-interval defaults are the package's
	}
	var ring *nts.KeyRing
	if c.nts {
		var err error
		if ring, err = nts.NewKeyRing(3); err != nil {
			return nil, err
		}
		s.srv.NTS = ring
	}
	addr, err := s.srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.addr = addr
	if c.nts {
		if s.nts, err = newNTSFixture(ring, addr.Port); err != nil {
			s.srv.Close()
			return nil, err
		}
	}
	return s, nil
}

func (s *inProcessServer) close() {
	if s.nts != nil {
		s.nts.close()
	}
	s.srv.Close()
}

// capturedExchange is one request of the closed-loop pass as it went
// over the wire.
type capturedExchange struct {
	id  uint64
	req []byte
}

// closedLoopPass sends n requests one at a time over one connected
// socket. With tr non-nil every request is a root span "request" with
// children client.protect, client.encode, wire.rtt (send → matching
// reply: the whole server is inside), client.decode, client.verify.
// It returns the request bytes and how many requests failed.
func closedLoopPass(s *inProcessServer, n int, tr *tracer) ([]capturedExchange, int, error) {
	conn, err := net.DialUDP("udp", nil, s.addr)
	if err != nil {
		return nil, 0, err
	}
	defer conn.Close()
	var sess *nts.Session
	if s.nts != nil {
		if sess, err = s.nts.session(); err != nil {
			return nil, 0, err
		}
	}
	captured := make([]capturedExchange, 0, n)
	out := make([]byte, 0, 2048)
	in := make([]byte, 2048)
	failures := 0
	for i := 1; i <= n; i++ {
		id := uint64(i)
		ok := true
		start := time.Now()
		req := ntppkt.Packet{Leap: ntppkt.LeapNotSync, Version: ntppkt.Version4, Mode: ntppkt.ModeClient,
			Transmit: ntptime.FromTime(start)}
		var st *nts.RequestState
		var reply ntppkt.Packet
		if sess != nil {
			tr.span("client.protect", "request", id, func() {
				if st, err = sess.ProtectRequest(&req); err != nil {
					ok = false
				}
			})
		}
		tr.span("client.encode", "request", id, func() { out = req.Encode(out[:0]) })
		var nread int
		tr.span("wire.rtt", "request", id, func() {
			if _, err := conn.Write(out); err != nil {
				ok = false
				return
			}
			_ = conn.SetReadDeadline(time.Now().Add(replyTimeout)) // a UDP socket accepts any deadline
			if nread, err = conn.Read(in); err != nil {
				ok = false
			}
		})
		if ok {
			tr.span("client.decode", "request", id, func() {
				if reply.DecodeInto(in[:nread]) != nil || reply.Origin != req.Transmit || reply.Mode != ntppkt.ModeServer {
					ok = false
				}
			})
		}
		if ok && sess != nil {
			tr.span("client.verify", "request", id, func() {
				if sess.VerifyReply(&reply, st) != nil {
					ok = false
				}
			})
		}
		tr.add("request", "", id, start, time.Now())
		if !ok {
			failures++
			continue
		}
		captured = append(captured, capturedExchange{id: id, req: bytes.Clone(out)})
	}
	if len(captured) == 0 {
		return nil, failures, errors.New("closed-loop pass: no request was answered")
	}
	return captured, failures, nil
}

// replayStages pushes every captured request through the server's
// stages by their exported functions, one span per stage under the
// request's id: ntppkt.decode, nts.verify, nts.seal, ntppkt.encode and
// udp.pair (request and reply each crossing loopback once, with no
// second thread to wake). What wire.rtt holds beyond their sum is what
// the outside cannot see — scheduler wake-ups, limiter, metrics,
// overload control — and what in-program stage timers must later
// explain.
func replayStages(s *inProcessServer, captured []capturedExchange, tr *tracer) error {
	pair, err := newUDPPair()
	if err != nil {
		return err
	}
	defer pair.close()
	var req ntppkt.Packet
	out := make([]byte, 0, 2048)
	for _, c := range captured {
		start := time.Now()
		var stageErr error
		tr.span("ntppkt.decode", "server.replay", c.id, func() { stageErr = req.DecodeInto(c.req) })
		if stageErr != nil {
			return fmt.Errorf("replay decode: %w", stageErr)
		}
		reply := serverReply(&req)
		if s.nts != nil {
			var sreq *nts.ServerRequest
			tr.span("nts.verify", "server.replay", c.id, func() { sreq, stageErr = nts.VerifyRequest(s.nts.ring, &req) })
			if stageErr != nil {
				return fmt.Errorf("replay verify: %w", stageErr)
			}
			tr.span("nts.seal", "server.replay", c.id, func() { stageErr = nts.ProtectResponse(s.nts.ring, sreq, &reply) })
			if stageErr != nil {
				return fmt.Errorf("replay seal: %w", stageErr)
			}
		}
		tr.span("ntppkt.encode", "server.replay", c.id, func() { out = reply.Encode(out[:0]) })
		tr.span("udp.pair", "server.replay", c.id, func() {
			if stageErr = pair.hop(pair.a, pair.b, c.req); stageErr == nil {
				stageErr = pair.hop(pair.b, pair.a, out)
			}
		})
		if stageErr != nil {
			return fmt.Errorf("replay loopback: %w", stageErr)
		}
		tr.add("server.replay", "", c.id, start, time.Now())
	}
	return nil
}

const (
	// inProcessLoad is how long the in-process server takes the
	// workload's own traffic before its counters are read.
	inProcessLoad = 3 * time.Second
	// tracedRequests is the length of the closed-loop span pass.
	tracedRequests = 20000
)

// traceServe is the traced run of a serving workload, outside in:
// (a) the timed run's window again, against the child process, for the
// numbers only /proc and the probe can give; (b) the same traffic at
// an in-process server for its counters; (c) a closed-loop span pass;
// (d) the captured requests replayed through the server's stages.
func traceServe(e *env, c serveConfig, ms *metricSet, tr *tracer) (*outcome, error) {
	p, f, _, err := setUpServer(e, c, e.seed)
	if err != nil {
		return nil, err
	}
	m, err := measureServe(f, p, e.window, e.scale(segmentLen))
	f.close()
	p.stop()
	if err != nil {
		return nil, err
	}
	o := m.outcome()
	answered := float64(len(m.ops))
	ms.set("ntpnet.user_us_per_req", float64(m.serverUser)/1e3/answered)
	ms.set("ntpnet.sys_us_per_req", float64(m.serverSys)/1e3/answered)
	ms.set("ntpnet.vcsw_per_req", float64(m.serverVCSW)/answered)
	ms.set("proc.peak_rss_mb", m.peakRSSMB)
	residence := m.column(func(o *op) float64 { return o.residence })
	ms.set("ntpnet.residence_p50_us", quantile(residence, 0.5))
	ms.set("ntpnet.residence_p90_us", quantile(residence, 0.9))
	rtts := m.column(func(o *op) float64 { return o.rtt })
	ms.set("client.cpu_us_per_req", float64(m.runnerCPU)/1e3/answered)
	ms.set("client.rtt_mean_us", mean(rtts))
	ms.set("client.rtt_p99_us", quantile(rtts, 0.99))
	ms.set("client.rtt_p999_us", quantile(rtts, 0.999))
	ms.set("client.rtt_max_us", quantile(rtts, 1))
	if c.nts {
		ms.set("ntske.sessions", float64(loadClients))
	}
	ms.set("exchange.delay_p50_us", quantile(m.column(func(o *op) float64 { return o.delay }), 0.5))
	ms.set("exchange.exchanges", float64(m.attempts))
	ms.set("exchange.failures", float64(m.failures))

	s, err := startInProcess(c)
	if err != nil {
		return nil, err
	}
	defer s.close()
	if err := loadInProcess(e, c, s, ms); err != nil {
		return nil, err
	}

	n := tracedRequests
	if e.smoke {
		n = 300
	}
	// Two untraced passes: the warm-up, then the tracing-overhead base.
	var untracedWall time.Duration
	for i := 0; i < 2; i++ {
		untracedWall = timed(func() { _, _, err = closedLoopPass(s, n/4, nil) })
		if err != nil {
			return nil, err
		}
	}
	var captured []capturedExchange
	var failures int
	tracedWall := timed(func() { captured, failures, err = closedLoopPass(s, n, tr) })
	if err != nil {
		return nil, err
	}
	o.attempted += int64(n)
	o.failed += int64(failures)
	if err := replayStages(s, captured, tr); err != nil {
		return nil, err
	}
	self := selfTimes(tr.spans)
	stages := 0.0
	for metric, spanName := range map[string]string{
		"stage.decode_us":     "ntppkt.decode",
		"stage.nts_verify_us": "nts.verify",
		"stage.nts_seal_us":   "nts.seal",
		"stage.encode_us":     "ntppkt.encode",
		"stage.udp_pair_us":   "udp.pair",
	} {
		v := medianSelfUs(self, spanName)
		ms.set(metric, v)
		stages += v
	}
	rtt := medianSelfUs(self, "wire.rtt")
	ms.set("stage.wire_rtt_us", rtt)
	ms.set("stage.client_us", medianSelfUs(self, "client.protect")+medianSelfUs(self, "client.encode")+
		medianSelfUs(self, "client.decode")+medianSelfUs(self, "client.verify"))
	ms.set("ntpnet.unaccounted_us", rtt-stages)
	ms.set("bench.trace_overhead_share", overheadShare(tracedWall/time.Duration(n), untracedWall/time.Duration(n/4)))
	return o, nil
}

// loadInProcess offers the in-process server the workload's own load
// and reads the counters only the process itself can see, polling the
// health state every 100 ms meanwhile.
func loadInProcess(e *env, c serveConfig, s *inProcessServer, ms *metricSet) error {
	var keAddr string
	var tlsCfg *tls.Config
	if s.nts != nil {
		keAddr, tlsCfg = s.nts.keAddr, s.nts.tls
	}
	cfg := c.loadConfig(s.addr.String(), keAddr, tlsCfg, e.scale(inProcessLoad), e.seed)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	polls, healthy := 0, 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				polls++
				if s.srv.Health() == overload.Healthy {
					healthy++
				}
			}
		}
	}()
	rep, err := loadgen.Run(cfg)
	close(stop)
	wg.Wait()
	if err != nil {
		return fmt.Errorf("in-process load: %w", err)
	}
	// Open loop on a shared box: a scheduler stall makes the generator
	// catch up in a burst the socket buffer may not hold, so what is
	// lost here is reported, not counted against the server.
	ms.set("loadgen.send_ratio", float64(rep.Sent)/(cfg.Rate*cfg.Duration.Seconds()))
	ms.set("loadgen.rtt_p50_us", rep.Latency.P50Us)
	ms.set("loadgen.rtt_p99_us", rep.Latency.P99Us)
	ms.set("loadgen.lost", float64(rep.Lost))
	ms.set("loadgen.late_replies", float64(rep.LateReplies))
	ms.set("loadgen.stray", float64(rep.Stray))
	snap := s.srv.Snapshot()
	ms.set("ntpnet.served", float64(snap.Served))
	ms.set("ntpnet.limited", float64(snap.Limited))
	ms.set("ntpnet.shed", float64(snap.Shed))
	ms.set("ntpnet.shed_dropped", float64(snap.ShedDropped))
	ms.set("ntpnet.dropped", float64(snap.Dropped))
	ms.set("ntpnet.malformed", float64(snap.Malformed))
	ms.set("ntpnet.write_errors", float64(snap.WriteErrors))
	ms.set("ntpnet.rate_table_size", float64(s.srv.RateTableSize()))
	if q, ok := snap.LatencyQuantile(0.5); ok {
		ms.set("ntpnet.handle_p50_us", float64(q)/1e3)
	}
	if q, ok := snap.LatencyQuantile(0.99); ok {
		ms.set("ntpnet.handle_p99_us", float64(q)/1e3)
	}
	if polls > 0 {
		ms.set("overload.healthy_share", float64(healthy)/float64(polls))
	}
	ms.set("overload.sojourn_ewma_us", float64(s.srv.OverloadStats().Sojourn)/1e3)
	return nil
}
