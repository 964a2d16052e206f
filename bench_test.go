// Benchmarks the repo benchmark (BENCHMARK.json, bench/) has no
// counterpart for: ablation benches for MNTP's design choices and the
// shard-count serving-capacity comparison. The per-figure experiment
// timings and the hot-path micro loops live in bench/ under the names
// BENCHMARK.json lists (paper_sim, experiments.*_ms, ntplog.*,
// sources.*, trend.*_add_ns, tuner.emulate_us, sntp.hour_ms).
package mntp

import (
	"testing"
	"time"

	"mntp/internal/clock"
	"mntp/internal/core"
	"mntp/internal/loadgen"
	"mntp/internal/ntpnet"
	"mntp/internal/stats"
	"mntp/internal/testbed"
)

// --- Ablations: the design choices DESIGN.md calls out. Each bench
// reports the max |offset| accepted by MNTP under the ablated
// configuration; comparing them quantifies each mechanism's
// contribution.

func ablationRun(b *testing.B, mutate func(*core.Params)) {
	b.ReportAllocs()
	var worst float64
	for i := 0; i < b.N; i++ {
		params := core.DefaultParams(testbed.PoolName)
		params.WarmupPeriod = 5 * time.Minute
		params.WarmupWaitTime = 5 * time.Second
		params.RegularWaitTime = 5 * time.Second
		params.ResetPeriod = time.Hour
		mutate(&params)
		tb := testbed.New(testbed.Config{
			Seed: 400 + int64(i), Access: testbed.Wireless, Monitor: true, NTPCorrection: true,
		})
		s := tb.RunMNTP(params, 30*time.Minute, false)
		worst = stats.MaxAbs(s.Reported())
	}
	b.ReportMetric(worst, "maxOffsetMs/op")
}

func BenchmarkAblationFull(b *testing.B) {
	ablationRun(b, func(p *core.Params) {})
}

func BenchmarkAblationNoGating(b *testing.B) {
	ablationRun(b, func(p *core.Params) { p.DisableGating = true })
}

func BenchmarkAblationNoFilter(b *testing.B) {
	ablationRun(b, func(p *core.Params) { p.DisableFilter = true })
}

func BenchmarkAblationNoGatingNoFilter(b *testing.B) {
	ablationRun(b, func(p *core.Params) {
		p.DisableGating = true
		p.DisableFilter = true
	})
}

func BenchmarkAblationNoFalseTickerRejection(b *testing.B) {
	ablationRun(b, func(p *core.Params) { p.DisableFalseTickerRejection = true })
}

// --- Serving capacity: loadgen-driven open-loop runs against the
// sharded real-UDP server. The reported served/s is the throughput
// the server actually answered (not the offered rate); comparing the
// shard counts quantifies the SO_REUSEPORT scaling. Sub-benchmarks
// skip where the platform cannot bind a REUSEPORT group.

func benchmarkServerCapacity(b *testing.B, shards int) {
	if shards > 1 && !ntpnet.ReusePortAvailable() {
		b.Skip("SO_REUSEPORT unavailable; multi-shard capacity not measurable")
	}
	var servedPerSec float64
	for i := 0; i < b.N; i++ {
		srv := ntpnet.NewServer(clock.System{}, 2)
		srv.Shards = shards
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		rep, err := loadgen.Run(loadgen.Config{
			Target:   addr.String(),
			Rate:     150000, // past single-shard capacity: expose the serving limit
			Duration: 300 * time.Millisecond,
			Senders:  4,
			Arrival:  "fixed",
			Timeout:  200 * time.Millisecond,
			Seed:     int64(i),
		})
		if err != nil {
			srv.Close()
			b.Fatal(err)
		}
		served := srv.Snapshot().Served
		srv.Close()
		servedPerSec = float64(served) / rep.DurationSec
	}
	b.ReportMetric(servedPerSec, "served/s")
	b.ReportMetric(0, "ns/op") // wall time is fixed by the run length, not meaningful per-op
}

func BenchmarkServerCapacityShards1(b *testing.B) { benchmarkServerCapacity(b, 1) }
func BenchmarkServerCapacityShards2(b *testing.B) { benchmarkServerCapacity(b, 2) }
