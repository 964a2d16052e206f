package ntpnet

import (
	"net"
	"testing"
	"time"

	"mntp/internal/clock"
	"mntp/internal/loadgen"
	"mntp/internal/overload"
)

// degradedConfig is tuned so any measurable sojourn (target 1ns)
// sustained for 1ms enters Degraded, the Overloaded threshold is
// unreachably high, recovery never fires, and every shed coin toss
// loses (ShedMin 1) — making the Degraded policy deterministic.
func degradedConfig() *overload.Config {
	return &overload.Config{
		Target:           1,
		Interval:         time.Millisecond,
		RecoveryInterval: time.Hour,
		OverloadFactor:   1e9, // Overloaded threshold ~1s: unreachable
		ShedMin:          1,
		Alpha:            1,
		TablePressure:    2, // occupancy floor off
	}
}

// TestOverloadDegradedShedsNewFlowsKeepsEstablished pins the Degraded
// policy: flows already holding rate-limit state keep being answered,
// new flows are told RATE — explicitly, not by silent drop — and
// never enter the table.
func TestOverloadDegradedShedsNewFlowsKeepsEstablished(t *testing.T) {
	srv := NewServer(clock.System{}, 2)
	srv.Workers = 2
	srv.RateLimit = 100000
	srv.RateWindow = time.Minute
	srv.WatchdogInterval = -1 // no Evaluate: state moves on Observe only
	srv.Overload = degradedConfig()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Client B needs a source address distinct from A's: established-ness
	// is keyed by IP, and both would otherwise share 127.0.0.1.
	connB, err := net.DialUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 2)}, addr)
	if err != nil {
		t.Skipf("cannot bind 127.0.0.2 (needed for a second client IP): %v", err)
	}
	defer connB.Close()

	connA, err := net.DialUDP("udp", nil, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer connA.Close()

	// A talks until the sampled sojourn EWMA drives the state to
	// Degraded; A is in the rate-limit table from its first request.
	deadline := time.Now().Add(3 * time.Second)
	for srv.Health() != overload.Degraded {
		if time.Now().After(deadline) {
			t.Fatalf("server never reached Degraded (health %v)", srv.Health())
		}
		sendRequest(t, connA)
		readReply(t, connA, 200*time.Millisecond)
	}

	// Established flow: still answered with time.
	for i := 0; i < 5; i++ {
		sendRequest(t, connA)
		p, ok := readReply(t, connA, time.Second)
		if !ok {
			t.Fatalf("established client request %d: no reply while Degraded", i)
		}
		if code, kod := p.KissCode(); kod {
			t.Fatalf("established client request %d shed with %q while Degraded", i, code)
		}
	}

	// New flow: every request shed with a RATE kiss (ShedMin 1).
	for i := 0; i < 10; i++ {
		sendRequest(t, connB)
		p, ok := readReply(t, connB, time.Second)
		if !ok {
			t.Fatalf("new-flow request %d: no reply — sheds must be explicit, not drops", i)
		}
		code, kod := p.KissCode()
		if !kod || code != "RATE" {
			t.Fatalf("new-flow request %d: got mode=%d stratum=%d code=%q, want RATE KoD", i, p.Mode, p.Stratum, code)
		}
	}

	snap := waitSnapshot(srv, func(s *Snapshot) bool { return s.Shed >= 10 })
	if snap.Shed < 10 {
		t.Errorf("Shed = %d, want >= 10", snap.Shed)
	}
	if snap.Health != overload.Degraded {
		t.Errorf("snapshot health = %v, want degraded", snap.Health)
	}
}

// TestOverloadOverloadedEarlyDropsWithProbes pins the Overloaded
// policy: datagrams are dropped before parsing except the 1-in-N
// probes that keep sojourn samples (and recovery) possible.
func TestOverloadOverloadedEarlyDropsWithProbes(t *testing.T) {
	srv := NewServer(clock.System{}, 2)
	srv.Workers = 2
	srv.WatchdogInterval = -1
	srv.Overload = &overload.Config{
		Target:           1,
		Interval:         time.Millisecond,
		RecoveryInterval: time.Hour,
		OverloadFactor:   1.01, // overload threshold == target: any sojourn
		ProbeEvery:       4,
		Alpha:            1,
		TablePressure:    2,
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.DialUDP("udp", nil, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	deadline := time.Now().Add(3 * time.Second)
	for srv.Health() != overload.Overloaded {
		if time.Now().After(deadline) {
			t.Fatalf("server never reached Overloaded (health %v)", srv.Health())
		}
		sendRequest(t, conn)
		readReply(t, conn, 100*time.Millisecond)
	}

	const burst = 32
	for i := 0; i < burst; i++ {
		sendRequest(t, conn)
	}
	answered := 0
	for {
		p, ok := readReply(t, conn, 300*time.Millisecond)
		if !ok {
			break
		}
		if _, kod := p.KissCode(); kod {
			t.Fatalf("probe reply is a KoD: probes must be served, drops silent")
		}
		answered++
	}
	if answered == 0 {
		t.Error("no probe admitted in burst: recovery would be impossible")
	}
	if answered >= burst {
		t.Errorf("all %d burst requests answered while Overloaded", burst)
	}
	if snap := srv.Snapshot(); snap.ShedDropped == 0 {
		t.Error("ShedDropped = 0, want early drops while Overloaded")
	}
	t.Logf("burst=%d answered=%d shed-dropped=%d", burst, answered, srv.Snapshot().ShedDropped)
}

// TestOverloadAcceptanceStorm is the acceptance drill for the whole
// graceful-degradation path: offered load at ~3× a deterministic
// capacity (the fault hook charges ~1ms of service per admitted
// request, so capacity ≈ shards×workers×1000/s regardless of host
// speed), with a worker panic and a wedged shard injected mid-storm.
// The server must shed rather than queue (bounded answered p99, shed
// counters moving) and must keep answering through both faults.
func TestOverloadAcceptanceStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("storm test skipped in -short")
	}
	if !rxTimestampsAvailable {
		t.Skip("kernel receive timestamps unavailable: sojourn cannot see socket-queue wait")
	}

	faults := NewServerFaults()
	srv := NewServer(clock.System{}, 2)
	srv.Shards = 2
	srv.Workers = 2
	srv.WatchdogInterval = 100 * time.Millisecond
	srv.Overload = &overload.Config{
		Target:           3 * time.Millisecond,
		Interval:         100 * time.Millisecond,
		RecoveryInterval: 200 * time.Millisecond,
		OverloadFactor:   4,
		ProbeEvery:       16,
	}
	srv.FaultHook = func(shard int) {
		faults.Hook(shard)
		// Deterministic service cost: ~1ms per admitted request caps
		// capacity at ~4k/s with 2 shards × 2 workers, independent of
		// host CPU (and of the -race slowdown).
		time.Sleep(time.Millisecond)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Fault script: a worker panic early in the storm, then a wedged
	// shard held long enough for the watchdog to notice (it needs one
	// full quiet interval after both of the shard's workers block).
	scriptDone := make(chan struct{})
	go func() {
		defer close(scriptDone)
		time.Sleep(700 * time.Millisecond)
		faults.PanicAfter(0, 3)
		time.Sleep(300 * time.Millisecond)
		faults.Wedge(1)
		time.Sleep(400 * time.Millisecond)
		faults.Release(1)
	}()

	rep, err := loadgen.Run(loadgen.Config{
		Target:        addr.String(),
		Rate:          12000, // ~3× the hook-capped capacity
		Duration:      2500 * time.Millisecond,
		Senders:       8, // distinct flows so both REUSEPORT shards see traffic
		Timeout:       500 * time.Millisecond,
		SnapshotEvery: 500 * time.Millisecond,
		Seed:          1,
	})
	<-scriptDone
	if err != nil {
		t.Fatal(err)
	}

	snap := srv.Snapshot()
	t.Logf("storm: %v", rep)
	t.Logf("server: %v", snap)

	if rep.Received == 0 {
		t.Fatal("no request served at all during the storm")
	}
	if snap.Shed+snap.ShedDropped == 0 {
		t.Error("no load shed at 3× capacity: admission control never engaged")
	}
	if snap.Panics == 0 {
		t.Error("injected worker panic never fired (or was not counted)")
	}
	if snap.Restarts == 0 {
		t.Error("watchdog never restarted the wedged shard")
	}

	// Tail-latency discipline: answered requests must not ride an
	// ever-growing queue. Only send-phase intervals count — after the
	// send phase the generator's drain window sees nothing but the
	// stale backlog trickling out, which measures the queue's corpse,
	// not the serving policy. A sender's last arrival can go out just
	// after the tick that closes the send phase, leaving a straggler in
	// the next interval: an interval counts if it ended within half a
	// period (250ms) of the send phase.
	var storm []loadgen.Interval
	for _, iv := range rep.Intervals {
		if iv.Sent > 0 && iv.ElapsedSec < rep.DurationSec+0.25 {
			storm = append(storm, iv)
		}
	}
	if len(storm) < 3 {
		t.Fatalf("got %d send-phase intervals, want >= 3", len(storm))
	}
	growing := 0
	for i := range storm {
		t.Logf("interval %d: sent=%d received=%d kod=%d p99=%.0fµs",
			i, storm[i].Sent, storm[i].Received, storm[i].KoD, storm[i].P99Us)
		if storm[i].Received == 0 {
			t.Errorf("interval %d served nothing: server went dark mid-storm", i)
		}
		if i > 0 && storm[i].P99Us > storm[i-1].P99Us {
			growing++
		}
	}
	if growing == len(storm)-1 {
		t.Error("answered p99 grew monotonically across every interval: queueing, not shedding")
	}
	// Bounded, recovered tail: the last interval — well past the wedge
	// release — must sit far below the 500ms reply deadline a
	// queueing collapse would push answered requests toward. (The
	// loose bound owes to the test's own physics: the injected 1ms
	// service cost against the kernel's default receive buffer puts
	// the worst legitimate wait near 140ms.)
	if last := storm[len(storm)-1]; last.P99Us >= 250000 {
		t.Errorf("final storm interval answered p99 = %.0fµs, want < 250ms", last.P99Us)
	}
	// The typical answered request must be fresh — that is the whole
	// point of shedding: answer fewer clients, answer them well.
	if rep.Latency.P50Us >= 25000 {
		t.Errorf("answered p50 = %.0fµs, want < 25ms", rep.Latency.P50Us)
	}
}
