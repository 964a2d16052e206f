package ntpnet

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mntp/internal/clock"
	"mntp/internal/ntppkt"
)

// TestShutdownDrainsInFlight pins the drain contract: requests the
// server has admitted when Shutdown is called are answered, not
// abandoned, even though their handlers are still running (a slow
// FaultHook holds them mid-handle across the Shutdown call).
func TestShutdownDrainsInFlight(t *testing.T) {
	const k = 8
	admitted := make(chan struct{}, k)
	release := make(chan struct{})
	srv := NewServer(clock.System{}, 2)
	srv.Workers = k
	srv.FaultHook = func(int) {
		admitted <- struct{}{}
		<-release
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var answered atomic.Int64
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &Client{Timeout: 5 * time.Second}
			req := ntppkt.NewSNTPClient(ntppkt.Version4, 0)
			if _, _, err := c.Exchange(addr.String(), req); err == nil {
				answered.Add(1)
			}
		}()
	}
	for i := 0; i < k; i++ {
		<-admitted
	}

	// All k requests are mid-handle. Shutdown must wait for them;
	// release the hook once the drain has begun.
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()
	time.Sleep(50 * time.Millisecond) // let Shutdown set the deadlines
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	if got := answered.Load(); got != k {
		t.Errorf("answered = %d, want %d (admitted requests abandoned)", got, k)
	}
	snap := srv.Snapshot()
	if snap.WriteErrors != 0 {
		t.Errorf("write errors = %d, want 0", snap.WriteErrors)
	}
	for i, sh := range srv.shards {
		if inf := sh.inFlight.Load(); inf != 0 {
			t.Errorf("shard %d: %d requests still in flight after drain", i, inf)
		}
	}
}

// TestShutdownDeadlineExpiry: when the drain deadline passes with a
// handler still wedged, Shutdown degrades to Close's behavior —
// sockets closed, ctx.Err() returned — without deadlocking on the
// stuck worker.
func TestShutdownDeadlineExpiry(t *testing.T) {
	admitted := make(chan struct{}, 1)
	release := make(chan struct{})
	srv := NewServer(clock.System{}, 2)
	srv.Workers = 1
	srv.Shards = 1
	srv.FaultHook = func(int) {
		select {
		case admitted <- struct{}{}:
		default:
		}
		<-release
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		c := &Client{Timeout: 5 * time.Second}
		req := ntppkt.NewSNTPClient(ntppkt.Version4, 0)
		c.Exchange(addr.String(), req)
	}()
	<-admitted

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline exceeded", err)
	}
	// The wedged worker is released after the fact; the server must
	// still wind down cleanly (Close is a no-op, workers exit on the
	// closed socket).
	close(release)
	if err := srv.Close(); err != nil {
		t.Errorf("Close after expired Shutdown: %v", err)
	}
	srv.wg.Wait()
}

// TestShutdownUnderLiveLoad is the race-clean acceptance pin: a
// population of senders keeps the server busy while Shutdown drains
// it. Inside the deadline no admitted request may be abandoned —
// after Shutdown returns nil, nothing is in flight and every reply
// write succeeded.
func TestShutdownUnderLiveLoad(t *testing.T) {
	srv := NewServer(clock.System{}, 2)
	srv.Workers = 4
	srv.FaultHook = func(int) { time.Sleep(time.Millisecond) }
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var senders sync.WaitGroup
	for i := 0; i < 8; i++ {
		senders.Add(1)
		go func() {
			defer senders.Done()
			c := &Client{Timeout: 200 * time.Millisecond}
			req := ntppkt.NewSNTPClient(ntppkt.Version4, 0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				c.Exchange(addr.String(), req) // errors expected once drained
			}
		}()
	}
	time.Sleep(200 * time.Millisecond) // live load established

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown under load: %v", err)
	}
	close(stop)
	senders.Wait()

	snap := srv.Snapshot()
	if snap.Served == 0 {
		t.Fatal("no requests served before drain — load never arrived")
	}
	if snap.WriteErrors != 0 {
		t.Errorf("write errors = %d, want 0 (reply abandoned mid-drain)", snap.WriteErrors)
	}
	for i, sh := range srv.shards {
		if inf := sh.inFlight.Load(); inf != 0 {
			t.Errorf("shard %d: %d requests abandoned in flight", i, inf)
		}
	}
}

// TestReloadLiveParams: Reload changes the advertised stratum and the
// rate limit while the server keeps answering on the same socket — the
// SIGHUP path. The client observes the change with no gap in service.
func TestReloadLiveParams(t *testing.T) {
	srv := NewServer(clock.System{}, 2)
	srv.RateLimit = 1000
	srv.RateWindow = time.Minute
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := &Client{Timeout: 2 * time.Second}
	query := func() (*ntppkt.Packet, error) {
		req := ntppkt.NewSNTPClient(ntppkt.Version4, 0)
		resp, _, err := c.Exchange(addr.String(), req)
		return resp, err
	}

	resp, err := query()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stratum != 2 {
		t.Fatalf("stratum = %d, want 2", resp.Stratum)
	}

	srv.Stratum = 5
	srv.Reload()
	resp, err = query()
	if err != nil {
		t.Fatalf("query after stratum reload: %v", err)
	}
	if resp.Stratum != 5 {
		t.Errorf("stratum after reload = %d, want 5", resp.Stratum)
	}

	// Tighten the rate limit to 1/window live: the client has already
	// spent 2 requests this window, so the next is over budget and
	// gets RATE — proof the limiter change took effect in place (the
	// bucket survived the reload) without a socket drop.
	srv.RateLimit = 1
	srv.Reload()
	resp, err = query()
	if err != nil {
		t.Fatalf("query after ratelimit reload: %v", err)
	}
	if resp.Stratum != ntppkt.StratumKoD || resp.RefID != ntppkt.KissRate {
		t.Errorf("reply after tightened limit = stratum %d refid %v, want RATE KoD", resp.Stratum, resp.RefID)
	}

	// Turn rate limiting off live: service resumes for the same client.
	srv.RateLimit = 0
	srv.Reload()
	resp, err = query()
	if err != nil {
		t.Fatalf("query after ratelimit off: %v", err)
	}
	if resp.Stratum != 5 {
		t.Errorf("stratum with limiting off = %d, want 5", resp.Stratum)
	}
	if srv.RateTableSize() != 0 {
		t.Errorf("rate table size = %d, want 0 with limiting off", srv.RateTableSize())
	}
}

// TestReloadInstallsLimiterWhenOff: a server started without rate
// limiting can have it switched on by Reload, at the default window.
func TestReloadInstallsLimiterWhenOff(t *testing.T) {
	srv := NewServer(clock.System{}, 2)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	srv.RateLimit = 1
	srv.Reload()
	c := &Client{Timeout: 2 * time.Second}
	req := ntppkt.NewSNTPClient(ntppkt.Version4, 0)
	if _, _, err := c.Exchange(addr.String(), req); err != nil {
		t.Fatalf("first request: %v", err)
	}
	req = ntppkt.NewSNTPClient(ntppkt.Version4, 0)
	resp, _, err := c.Exchange(addr.String(), req)
	if err != nil {
		t.Fatalf("second request: %v", err)
	}
	if resp.Stratum != ntppkt.StratumKoD || resp.RefID != ntppkt.KissRate {
		t.Errorf("second request not limited: stratum %d refid %v", resp.Stratum, resp.RefID)
	}
}

// TestRateLimiterReconfigurePreservesBuckets: a live reconfigure must
// not reset established clients' window budgets.
func TestRateLimiterReconfigurePreservesBuckets(t *testing.T) {
	now := time.Now()
	rl := newRateLimiter(10, time.Minute, 100)
	key := keyFromIP([]byte{127, 0, 0, 1})
	for i := 0; i < 5; i++ {
		if rl.over(key, now) {
			t.Fatalf("over at %d/10", i)
		}
	}
	rl.reconfigure(5, time.Minute, 100)
	// The client already spent 5 of the new limit of 5: next is over.
	if !rl.over(key, now) {
		t.Error("budget reset by reconfigure — bucket not preserved")
	}
	rl.reconfigure(100, 30*time.Second, 50)
	if rl.limit != 100 || rl.window != 30*time.Second || rl.maxSize != 50 {
		t.Errorf("reconfigure did not apply: %d %v %d", rl.limit, rl.window, rl.maxSize)
	}
	if !rl.known(key, now) {
		t.Error("established client lost after reconfigure")
	}
}
