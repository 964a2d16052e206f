package ntpnet

import (
	"testing"
	"time"

	"mntp/internal/clock"
	"mntp/internal/exchange"
	"mntp/internal/hist"
	"mntp/internal/ntppkt"
)

func TestLatencyQuantileEmpty(t *testing.T) {
	var empty Snapshot
	if q, ok := empty.LatencyQuantile(0.5); ok || q != 0 {
		t.Errorf("empty histogram: got (%v, %v), want (0, false)", q, ok)
	}
}

// TestLatencyResolvesSubBucket: 60 µs and 90 µs shared the old fixed
// "≤100µs" bucket; the log-bucketed histogram must tell them apart,
// each to within one sub-bucket (6.25 %).
func TestLatencyResolvesSubBucket(t *testing.T) {
	p50 := func(d time.Duration) time.Duration {
		var m Metrics
		m.Latency.Record(d)
		q, ok := m.Snapshot().LatencyQuantile(0.5)
		if !ok || q < d || q > d+d/16 {
			t.Errorf("p50 of one %v observation = (%v, %v)", d, q, ok)
		}
		return q
	}
	if a, b := p50(60*time.Microsecond), p50(90*time.Microsecond); a >= b {
		t.Errorf("p50(60µs) = %v, p50(90µs) = %v: want distinct, ordered", a, b)
	}
}

// TestSnapshotMerge: folding two shards' snapshots must equal one
// shard that saw both streams — counters summed, latency merged.
func TestSnapshotMerge(t *testing.T) {
	var a, b, both Metrics
	a.n[served].Store(3)
	a.n[limited].Store(1)
	b.n[served].Store(5)
	b.n[malformed].Store(2)
	b.n[writeError].Store(4)
	b.n[dropped].Store(6)
	both.n[served].Store(8)
	both.n[limited].Store(1)
	both.n[malformed].Store(2)
	both.n[writeError].Store(4)
	both.n[dropped].Store(6)
	for i, d := range []time.Duration{10 * time.Microsecond, time.Second, 10 * time.Microsecond, 70 * time.Microsecond} {
		if i%2 == 0 {
			a.Latency.Record(d)
		} else {
			b.Latency.Record(d)
		}
		both.Latency.Record(d)
	}

	m := a.Snapshot()
	m.Merge(b.Snapshot())
	if want := both.Snapshot(); *m != *want {
		t.Errorf("merged snapshot %v, want %v", m, want)
	}
	if m.Latency.Count() != 4 || m.Latency.Max() != time.Second {
		t.Errorf("merged latency count=%d max=%v, want 4 and 1s", m.Latency.Count(), m.Latency.Max())
	}
	// Quantiles over the merged histogram see all shards' mass.
	if q, ok := m.LatencyQuantile(0.5); !ok || q < 10*time.Microsecond || q > 11*time.Microsecond {
		t.Errorf("merged p50 = (%v, %v), want ~10µs", q, ok)
	}
}

// TestServerLatencyBelowClientRTT: the server's handling latency and
// the client's round trip share one bucket layout, so they compare
// directly — and the part cannot exceed the whole.
func TestServerLatencyBelowClientRTT(t *testing.T) {
	srv, addr := startServer(t, clock.System{})
	c := &Client{Timeout: 2 * time.Second}
	var rtt hist.Histogram
	const n = 50
	for i := 0; i < n; i++ {
		s, err := exchange.Measure(clock.System{}, c, addr, ntppkt.Version4, true)
		if err != nil {
			t.Fatal(err)
		}
		rtt.Record(s.T4.Sub(s.T1))
	}
	snap := finalSnapshot(srv)
	if snap.Latency.Count() != n {
		t.Fatalf("latency observations = %d, want %d", snap.Latency.Count(), n)
	}
	server, ok := snap.LatencyQuantile(0.5)
	client, _ := rtt.Quantile(0.5)
	if !ok || server <= 0 || server > client {
		t.Errorf("server p50 = (%v, %v), client median RTT = %v: want 0 < server ≤ client", server, ok, client)
	}
}
