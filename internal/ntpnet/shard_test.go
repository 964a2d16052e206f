package ntpnet

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"mntp/internal/clock"
	"mntp/internal/exchange"
	"mntp/internal/ntppkt"
)

// TestShardedServerServesConcurrentLoad drives a 2-shard server with
// concurrent clients (the -race leg exercises the shard-local metrics
// and shared limiter under contention) and checks the aggregated
// accounting: Snapshot() must equal the sum of the shard-local views,
// and no request may be lost or double-counted.
func TestShardedServerServesConcurrentLoad(t *testing.T) {
	srv := NewServer(clock.System{}, 2)
	srv.Shards = 2
	srv.Workers = 2
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if got := srv.NumShards(); got != 2 {
		t.Fatalf("NumShards = %d, want 2", got)
	}

	const clients, perClient = 12, 15
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func() {
			c := &Client{Timeout: 5 * time.Second}
			for j := 0; j < perClient; j++ {
				s, err := exchange.Measure(clock.System{}, c, addr.String(), ntppkt.Version4, true)
				if err != nil {
					errs <- err
					return
				}
				if s.Offset < -time.Second || s.Offset > time.Second {
					errs <- fmt.Errorf("misattributed reply: offset %v", s.Offset)
					return
				}
			}
			errs <- nil
		}()
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	snap := finalSnapshot(srv)
	if snap.Served != clients*perClient {
		t.Errorf("aggregated served = %d, want %d", snap.Served, clients*perClient)
	}
	var sum Snapshot
	if len(srv.shards) != 2 {
		t.Fatalf("%d shards", len(srv.shards))
	}
	var shards []*Snapshot
	for _, sh := range srv.shards {
		shards = append(shards, sh.metrics.snapshot())
		sum.merge(shards[len(shards)-1])
	}
	if sum != *snap {
		t.Errorf("sum of shard snapshots %v != aggregated snapshot %v", &sum, snap)
	}
	if got := snap.Latency.Count(); got != snap.Served {
		t.Errorf("merged latency histogram total = %d, want %d", got, snap.Served)
	}
	// Ephemeral client ports hash across the REUSEPORT group; with 12
	// distinct flows both queues should have seen traffic. (Not
	// guaranteed by the kernel, so only log the skew.)
	t.Logf("shard spread: %d / %d", shards[0].Served, shards[1].Served)
}

// TestShardedServerSharesRateLimitTable: a client's budget is global
// across shards — whichever receive queue its packets hash to, the
// fourth request in the window must get RATE.
func TestShardedServerSharesRateLimitTable(t *testing.T) {
	srv := NewServer(clock.System{}, 2)
	srv.Shards = 2
	srv.RateLimit = 3
	srv.RateWindow = time.Minute
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := &Client{Timeout: 2 * time.Second}
	var kod int
	for i := 0; i < 6; i++ {
		_, err := exchange.Measure(clock.System{}, c, addr.String(), ntppkt.Version4, true)
		if errors.Is(err, ntppkt.ErrKissOfDeath) {
			kod++
		} else if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if kod != 3 {
		t.Errorf("%d of 6 requests limited, want 3 (per-client budget must span shards)", kod)
	}
	if got := finalSnapshot(srv).Limited; got != 3 {
		t.Errorf("RateLimited = %d, want 3", got)
	}
	if got := srv.RateTableSize(); got != 1 {
		t.Errorf("rate table tracks %d clients, want 1 (same source IP on both shards)", got)
	}
}

// TestListenRequireShardsOccupiedPortFailsCleanly: every multi-shard
// Listen is strict (it binds the whole SO_REUSEPORT group or fails), so
// on a port someone else holds it must fail and leave no shard behind.
func TestListenRequireShardsOccupiedPortFailsCleanly(t *testing.T) {
	// Occupy a port with a plain (non-REUSEPORT) socket: the group
	// bind cannot join it on any platform.
	plain, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	srv := NewServer(clock.System{}, 2)
	srv.Shards = 2
	if _, err := srv.Listen(plain.LocalAddr().String()); err == nil {
		srv.Close()
		t.Fatal("2-shard Listen on an occupied port succeeded")
	}
	if srv.NumShards() != 0 {
		t.Errorf("failed Listen left %d shards", srv.NumShards())
	}
}

// TestShardFallbackStillServes: on a free port an oversubscribed
// 4-shard group binds every shard and serves. Where the platform
// cannot bind a group at all (no SO_REUSEPORT off Linux), Listen fails
// and the test skips.
func TestShardFallbackStillServes(t *testing.T) {
	srv := NewServer(clock.System{}, 2)
	srv.Shards = 4
	srv.Workers = 1
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("4-shard Listen on a free port: %v", err)
	}
	defer srv.Close()
	if got := srv.NumShards(); got != 4 {
		t.Fatalf("NumShards = %d, want 4", got)
	}
	c := &Client{Timeout: 2 * time.Second}
	for i := 0; i < 3; i++ {
		if _, err := exchange.Measure(clock.System{}, c, addr.String(), ntppkt.Version4, true); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if got := finalSnapshot(srv).Served; got != 3 {
		t.Errorf("served = %d, want 3", got)
	}
}
