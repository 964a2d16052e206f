package ntpnet

import (
	"net"
	"testing"
	"time"

	"mntp/internal/clock"
	"mntp/internal/ntppkt"
	"mntp/internal/ntptime"
)

// sendRequest writes one mode-3 request on conn.
func sendRequest(t *testing.T, conn *net.UDPConn) {
	t.Helper()
	req := ntppkt.Packet{Version: ntppkt.Version4, Mode: ntppkt.ModeClient,
		Transmit: ntptime.FromTime(time.Now())}
	if _, err := conn.Write(req.Encode(nil)); err != nil {
		t.Fatalf("send: %v", err)
	}
}

// readReply reads one datagram with a deadline and decodes it;
// ok=false on timeout.
func readReply(t *testing.T, conn *net.UDPConn, timeout time.Duration) (ntppkt.Packet, bool) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(timeout))
	buf := make([]byte, 512)
	n, err := conn.Read(buf)
	if err != nil {
		return ntppkt.Packet{}, false
	}
	var p ntppkt.Packet
	if err := p.DecodeInto(buf[:n]); err != nil {
		t.Fatalf("decode reply: %v", err)
	}
	return p, true
}

// TestWorkerPanicRecovery: a panic inside a worker's handler must
// cost exactly the request that triggered it — counted, recovered,
// worker respawned — never the server. Runs under -race in CI.
func TestWorkerPanicRecovery(t *testing.T) {
	faults := NewServerFaults()
	srv := NewServer(clock.System{}, 2)
	srv.Workers = 2
	srv.WatchdogInterval = -1 // isolate the respawn path from the watchdog
	srv.FaultHook = faults.Hook
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

	faults.PanicAfter(0, 1)
	sendRequest(t, conn)
	if _, ok := readReply(t, conn, 300*time.Millisecond); ok {
		t.Fatal("poisoned request got a reply; the injected panic did not fire")
	}

	// The server must still answer: the surviving worker or the
	// respawned one picks the next request up.
	for i := 0; i < 3; i++ {
		sendRequest(t, conn)
		if p, ok := readReply(t, conn, time.Second); !ok {
			t.Fatalf("request %d after panic: no reply — server did not survive", i)
		} else if p.Mode != ntppkt.ModeServer {
			t.Fatalf("request %d: reply mode %d", i, p.Mode)
		}
	}

	snap := finalSnapshot(srv)
	if snap.Panics != 1 {
		t.Errorf("Panics = %d, want 1", snap.Panics)
	}
	if snap.Served != 3 {
		t.Errorf("Served = %d, want 3", snap.Served)
	}
}

// TestWatchdogRestartsWedgedShard: workers of one shard wedged
// mid-handle (holding in-flight work, completing nothing) while the
// sibling shard serves must be detected and their pool restarted
// within a watchdog interval; after release the shard serves again
// and Close drains cleanly. Runs under -race in CI.
func TestWatchdogRestartsWedgedShard(t *testing.T) {
	faults := NewServerFaults()
	srv := NewServer(clock.System{}, 2)
	srv.Shards = 2
	srv.Workers = 1
	srv.WatchdogInterval = 25 * time.Millisecond
	srv.FaultHook = faults.Hook
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Many distinct flows so the kernel's REUSEPORT hash lands
	// traffic on both sockets (in the shared-socket fallback both
	// shards read one socket and any flow will do).
	conns := make([]*net.UDPConn, 32)
	for i := range conns {
		c, err := net.DialUDP("udp", nil, addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conns[i] = c
	}

	faults.Wedge(0)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, c := range conns {
				req := ntppkt.Packet{Version: ntppkt.Version4, Mode: ntppkt.ModeClient,
					Transmit: ntptime.FromTime(time.Now())}
				c.Write(req.Encode(nil))
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	// The wedged shard holds its datagram in flight without
	// completing while shard 1 makes progress: the watchdog must
	// restart shard 0's pool.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && srv.Snapshot().Restarts == 0 {
		time.Sleep(10 * time.Millisecond)
	}
	restarts := srv.Snapshot().Restarts
	if restarts == 0 {
		close(stop)
		<-done
		faults.Release(0)
		t.Fatal("watchdog never restarted the wedged shard")
	}

	faults.Release(0)
	servedAtRelease := srv.Snapshot().Served
	deadline = time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && srv.Snapshot().Served <= servedAtRelease {
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	<-done
	if got := srv.Snapshot().Served; got <= servedAtRelease {
		t.Errorf("served stuck at %d after release", got)
	}
	t.Logf("restarts=%d served=%d", restarts, srv.Snapshot().Served)

	// Close must drain every worker, including the stale-epoch ones
	// that just unblocked.
	if err := srv.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}
