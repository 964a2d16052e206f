package ntpnet

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"mntp/internal/hist"
	"mntp/internal/overload"
)

// Metrics counts server outcomes. All counters are atomic: the serve
// pool updates them concurrently without a lock, and readers may
// snapshot them at any time.
type Metrics struct {
	// Served counts valid client requests answered with time.
	Served atomic.Uint64
	// Limited counts requests answered with a RATE kiss-of-death.
	Limited atomic.Uint64
	// Dropped counts decodable packets ignored for not being mode-3
	// client requests.
	Dropped atomic.Uint64
	// Malformed counts datagrams that failed to decode.
	Malformed atomic.Uint64
	// WriteErrors counts replies the socket failed to send.
	WriteErrors atomic.Uint64
	// Shed counts new-flow requests refused with RATE by the
	// admission controller while Degraded.
	Shed atomic.Uint64
	// ShedDropped counts datagrams dropped before parsing while
	// Overloaded.
	ShedDropped atomic.Uint64
	// Panics counts worker goroutines that died to a handler panic
	// and were respawned.
	Panics atomic.Uint64
	// NTSServed counts authenticated NTS requests answered with a
	// protected reply (a subset of Served).
	NTSServed atomic.Uint64
	// NTSNaks counts NTS requests whose verification failed and were
	// answered with an NTS NAK kiss-of-death.
	NTSNaks atomic.Uint64

	// Latency is the request-handling latency distribution (receive
	// timestamp to reply written).
	Latency hist.Histogram
}

// Snapshot is a consistent-enough copy of the counters for reporting
// (individual counters are read atomically; the set is not a single
// atomic transaction, which is fine for monitoring). With the latency
// histogram it is ~8 KB, so it travels by pointer.
type Snapshot struct {
	Served, Limited, Dropped, Malformed, WriteErrors uint64
	// Shed / ShedDropped / Panics mirror the Metrics counters of the
	// same names. Restarts counts watchdog-initiated worker-pool
	// restarts (a server-level counter, set only on the aggregate
	// snapshot). Health is the admission controller's state at
	// snapshot time (Healthy when overload control is off or on
	// per-shard snapshots).
	Shed, ShedDropped, Panics, Restarts uint64
	// NTSServed / NTSNaks mirror the Metrics counters: authenticated
	// requests answered, and NTS verification failures NAKed.
	NTSServed, NTSNaks uint64
	Health             overload.State
	// Latency is the handling-latency distribution.
	Latency hist.Snapshot
}

// Merge adds o's counts into s. A sharded server keeps one Metrics
// per shard so the fast path never bounces a cache line between
// shards; Merge folds the shard-local views into the aggregate.
func (s *Snapshot) Merge(o *Snapshot) {
	s.Served += o.Served
	s.Limited += o.Limited
	s.Dropped += o.Dropped
	s.Malformed += o.Malformed
	s.WriteErrors += o.WriteErrors
	s.Shed += o.Shed
	s.ShedDropped += o.ShedDropped
	s.Panics += o.Panics
	s.Restarts += o.Restarts
	s.NTSServed += o.NTSServed
	s.NTSNaks += o.NTSNaks
	if o.Health > s.Health {
		s.Health = o.Health // the merged view reports the worst state
	}
	s.Latency.Merge(&o.Latency)
}

// Snapshot reads all counters.
func (m *Metrics) Snapshot() *Snapshot {
	s := new(Snapshot)
	s.Served = m.Served.Load()
	s.Limited = m.Limited.Load()
	s.Dropped = m.Dropped.Load()
	s.Malformed = m.Malformed.Load()
	s.WriteErrors = m.WriteErrors.Load()
	s.Shed = m.Shed.Load()
	s.ShedDropped = m.ShedDropped.Load()
	s.Panics = m.Panics.Load()
	s.NTSServed = m.NTSServed.Load()
	s.NTSNaks = m.NTSNaks.Load()
	s.Latency = m.Latency.Snapshot()
	return s
}

// LatencyQuantile returns the q-th (0 ≤ q ≤ 1) quantile of the
// handling latency, and false when nothing has been observed.
func (s *Snapshot) LatencyQuantile(q float64) (time.Duration, bool) {
	return s.Latency.Quantile(q)
}

// String renders a one-line summary for periodic logging.
func (s *Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "served=%d limited=%d shed=%d shed-dropped=%d dropped=%d malformed=%d write-errors=%d panics=%d restarts=%d health=%s",
		s.Served, s.Limited, s.Shed, s.ShedDropped, s.Dropped, s.Malformed,
		s.WriteErrors, s.Panics, s.Restarts, s.Health)
	if s.NTSServed > 0 || s.NTSNaks > 0 {
		fmt.Fprintf(&b, " nts-served=%d nts-naks=%d", s.NTSServed, s.NTSNaks)
	}
	if p50, ok := s.LatencyQuantile(0.50); ok {
		p99, _ := s.LatencyQuantile(0.99)
		fmt.Fprintf(&b, " latency p50=%v p99=%v", p50, p99)
	}
	return b.String()
}
