package ntpnet

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"mntp/internal/hist"
	"mntp/internal/overload"
)

// outcome is what the server concluded about one datagram (see
// Server.decide). It indexes Metrics' counters; Snapshot publishes
// each under the exported field of the same name.
type outcome uint8

const (
	// served: a valid client request answered with time.
	served outcome = iota
	// limited: answered with a RATE kiss-of-death by the rate limit.
	limited
	// shed: a new-flow request refused with RATE by the admission
	// controller while Degraded.
	shed
	// ntsNak: an NTS request whose verification failed, answered with
	// an NTS NAK kiss-of-death.
	ntsNak
	// shedDropped: dropped before parsing while Overloaded.
	shedDropped
	// malformed: a datagram that failed to decode.
	malformed
	// dropped: decodable but ignored — not a mode-3 client request, or
	// an NTS reply that could not be sealed.
	dropped
	// writeError: a reply the socket failed to send.
	writeError
	numOutcomes
)

// replies reports whether decide filled a reply for handle to send.
func (o outcome) replies() bool { return o <= ntsNak }

// Metrics counts server outcomes. All counters are atomic: the serve
// pool updates them concurrently without a lock, and readers may
// snapshot them at any time.
type Metrics struct {
	n [numOutcomes]atomic.Uint64
	// Panics counts worker goroutines that died to a handler panic
	// and were respawned.
	Panics atomic.Uint64
	// NTSServed counts authenticated NTS requests answered with a
	// protected reply (a subset of served).
	NTSServed atomic.Uint64

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
	// Shed / ShedDropped count outcomes like the five above, Panics
	// mirrors the Metrics counter. Restarts counts watchdog-initiated
	// worker-pool restarts (a server-level counter, set only on the
	// aggregate snapshot). Health is the admission controller's state
	// at snapshot time (Healthy when overload control is off or on
	// per-shard snapshots).
	Shed, ShedDropped, Panics, Restarts uint64
	// NTSServed / NTSNaks: authenticated requests answered (a subset
	// of Served), and the ntsNak outcome's count.
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
	s.Served = m.n[served].Load()
	s.Limited = m.n[limited].Load()
	s.Dropped = m.n[dropped].Load()
	s.Malformed = m.n[malformed].Load()
	s.WriteErrors = m.n[writeError].Load()
	s.Shed = m.n[shed].Load()
	s.ShedDropped = m.n[shedDropped].Load()
	s.Panics = m.Panics.Load()
	s.NTSServed = m.NTSServed.Load()
	s.NTSNaks = m.n[ntsNak].Load()
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
