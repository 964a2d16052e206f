// Package hist is the tree's one duration-distribution type: the
// server's handling latency, the load generator's round-trip times
// and the fleet engine's virtual RTTs all record into a Histogram,
// so their quantiles share one bucket layout and compare one-to-one.
// A recorder that only one goroutine ever touches (the fleet engine in
// ModeSim) may call Snapshot.Record on a Snapshot it owns instead: the
// same buckets, no atomics.
package hist

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// The histogram is an HDR-style log-bucketed counter array: values
// (nanoseconds) are bucketed by their power of two, with subBuckets
// linear sub-buckets inside each doubling, so the relative quantile
// error is bounded by 1/subBuckets (~6%) across the full range —
// microsecond loopback replies and multi-second stalls land in one
// fixed-size, allocation-free, atomically updated array. Recording is
// wait-free (two atomic adds plus a max CAS), so 50k+ recordings per
// second from concurrent goroutines cost no lock.
const (
	subBits    = 4
	subBuckets = 1 << subBits // 16 linear sub-buckets per doubling
	// numBuckets covers every uint64 nanosecond value: bits.Len64
	// tops out at 64, so the largest exponent is 64-(subBits+1)=59
	// and the largest index is subBuckets*60+15.
	numBuckets = subBuckets*(64-subBits) + subBuckets
)

// bucketIndex maps a nanosecond value to its histogram bucket.
func bucketIndex(u uint64) int {
	if u < subBuckets {
		return int(u)
	}
	exp := bits.Len64(u) - (subBits + 1)
	return subBuckets*exp + int(u>>uint(exp))
}

// bucketBound returns the largest value mapping to bucket i — the
// value a quantile lookup reports for the bucket.
func bucketBound(i int) uint64 {
	if i < subBuckets {
		return uint64(i)
	}
	exp := i/subBuckets - 1
	sub := uint64(i%subBuckets + subBuckets)
	return (sub+1)<<uint(exp) - 1
}

// Histogram accumulates a duration distribution. The zero value is
// ready to use; all methods are safe for concurrent use.
type Histogram struct {
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64
	buckets [numBuckets]atomic.Uint64
}

// Record adds one observation (negative values clamp to 0).
func (h *Histogram) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[bucketIndex(uint64(d))].Add(1)
	h.sum.Add(int64(d))
	for {
		m := h.max.Load()
		if int64(d) <= m || h.max.CompareAndSwap(m, int64(d)) {
			break
		}
	}
}

// Snapshot is a point-in-time copy of the distribution (~8 KB: pass
// it by pointer). Counts are read bucket-atomically; the set is not
// one transaction, which is fine for reporting. The count is the sum
// of the buckets as read, so it always agrees with them.
type Snapshot struct {
	count   uint64
	sum     int64
	max     int64
	buckets [numBuckets]uint64
}

// Snapshot copies the distribution recorded so far.
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	s.sum = h.sum.Load()
	s.max = h.max.Load()
	for i := range h.buckets {
		s.buckets[i] = h.buckets[i].Load()
		s.count += s.buckets[i]
	}
	return s
}

// Record adds one observation to s as Histogram.Record would, without
// atomics: only for a Snapshot that a single goroutine owns.
func (s *Snapshot) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.buckets[bucketIndex(uint64(d))]++
	s.count++
	s.sum += int64(d)
	if int64(d) > s.max {
		s.max = int64(d)
	}
}

// Sub returns the interval distribution s−prev (bucket-wise). Max is
// carried from s: a cumulative maximum cannot be un-merged, so
// interval rows report the max seen so far.
func (s *Snapshot) Sub(prev *Snapshot) Snapshot {
	out := *s
	out.count -= prev.count
	out.sum -= prev.sum
	for i := range out.buckets {
		out.buckets[i] -= prev.buckets[i]
	}
	return out
}

// Merge adds o's observations into s (bucket-wise): the result is
// the snapshot of one histogram that recorded both streams.
func (s *Snapshot) Merge(o *Snapshot) {
	s.count += o.count
	s.sum += o.sum
	if o.max > s.max {
		s.max = o.max
	}
	for i := range s.buckets {
		s.buckets[i] += o.buckets[i]
	}
}

// Count returns the number of observations.
func (s *Snapshot) Count() uint64 { return s.count }

// Max returns the largest observation.
func (s *Snapshot) Max() time.Duration { return time.Duration(s.max) }

// Mean returns the mean observation (0 when empty).
func (s *Snapshot) Mean() time.Duration {
	if s.count == 0 {
		return 0
	}
	return time.Duration(s.sum / int64(s.count))
}

// Quantile returns the q-th (0 ≤ q ≤ 1) quantile as the upper bound
// of the bucket holding it, and false when the distribution is
// empty.
func (s *Snapshot) Quantile(q float64) (time.Duration, bool) {
	if s.count == 0 {
		return 0, false
	}
	target := uint64(q * float64(s.count))
	if target == 0 {
		target = 1
	}
	if target > s.count {
		target = s.count
	}
	var cum uint64
	for i := range s.buckets {
		cum += s.buckets[i]
		if cum >= target {
			return time.Duration(bucketBound(i)), true
		}
	}
	return time.Duration(s.max), true
}
