package hist

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestBucketIndexBoundRoundTrip(t *testing.T) {
	// Every value must land in a bucket whose bound is ≥ the value,
	// with bounded relative error (one sub-bucket ≈ 1/16).
	values := []uint64{0, 1, 15, 16, 17, 31, 32, 100, 1000, 12345,
		1 << 20, 1<<20 + 1, 987654321, 1 << 40, 1<<62 + 12345}
	for _, u := range values {
		i := bucketIndex(u)
		if i < 0 || i >= numBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", u, i)
		}
		b := bucketBound(i)
		if b < u {
			t.Errorf("bound(%d)=%d below value %d", i, b, u)
		}
		if u >= subBuckets && float64(b-u) > float64(u)/subBuckets+1 {
			t.Errorf("bound(%d)=%d too far above value %d", i, b, u)
		}
		// Bound must be the largest value of its own bucket.
		if bucketIndex(b) != i {
			t.Errorf("bound %d of bucket %d maps to bucket %d", b, i, bucketIndex(b))
		}
		if bucketIndex(b+1) == i {
			t.Errorf("bound+1 %d still maps to bucket %d", b+1, i)
		}
	}
}

func TestQuantiles(t *testing.T) {
	var h Histogram
	// 1000 samples: 990 at ~1ms, 10 at ~100ms.
	for i := 0; i < 990; i++ {
		h.Record(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Record(100 * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count() != 1000 {
		t.Fatalf("count = %d", s.Count())
	}
	p50, ok := s.Quantile(0.50)
	if !ok || p50 < time.Millisecond || p50 > time.Millisecond+time.Millisecond/8 {
		t.Errorf("p50 = %v, %v", p50, ok)
	}
	if p99, _ := s.Quantile(0.99); p99 > 2*time.Millisecond {
		t.Errorf("p99 = %v, want ~1ms (990/1000 at 1ms)", p99)
	}
	if p999, _ := s.Quantile(0.999); p999 < 100*time.Millisecond || p999 > 110*time.Millisecond {
		t.Errorf("p99.9 = %v, want ~100ms", p999)
	}
	if m := s.Mean(); m < time.Millisecond || m > 3*time.Millisecond {
		t.Errorf("mean = %v", m)
	}
	if s.Max() != 100*time.Millisecond {
		t.Errorf("max = %v", s.Max())
	}
	// Empty distribution.
	var empty Histogram
	es := empty.Snapshot()
	if _, ok := es.Quantile(0.5); ok {
		t.Error("empty histogram produced a quantile")
	}
	// A negative duration clamps to zero instead of indexing out of range.
	empty.Record(-time.Second)
	es = empty.Snapshot()
	if q, ok := es.Quantile(1); !ok || q != 0 {
		t.Errorf("negative observation: got (%v, %v), want (0, true)", q, ok)
	}
}

// TestQuantileWithinOneBucketStep holds every reported quantile to
// the layout's promise on a known sample: at or above the exact order
// statistic, by no more than one sub-bucket (1/16 = 6.25 %).
func TestQuantileWithinOneBucketStep(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sample := make([]time.Duration, 10000)
	var h Histogram
	for i := range sample {
		// Log-uniform over 10 µs … 1 s: every doubling is populated.
		sample[i] = time.Duration(10e3 * math.Pow(1e5, rng.Float64()))
		h.Record(sample[i])
	}
	sort.Slice(sample, func(a, b int) bool { return sample[a] < sample[b] })
	s := h.Snapshot()
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		exact := sample[int(q*float64(len(sample)))-1]
		got, _ := s.Quantile(q)
		if got < exact || float64(got-exact) > float64(exact)/subBuckets {
			t.Errorf("q=%v: got %v, exact %v (allowed +%v)", q, got, exact, exact/subBuckets)
		}
	}
}

func TestConcurrentRecord(t *testing.T) {
	const goroutines, each = 8, 5000
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Record(time.Duration(g*each+i) * time.Microsecond)
			}
		}(g)
	}
	// Snapshots taken mid-flight must be self-consistent too.
	for i := 0; i < 100; i++ {
		s := h.Snapshot()
		if got := sumBuckets(&s); s.Count() != got {
			t.Fatalf("mid-flight Count = %d, Σ buckets = %d", s.Count(), got)
		}
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count() != goroutines*each || s.Count() != sumBuckets(&s) {
		t.Errorf("Count = %d, Σ buckets = %d, want %d", s.Count(), sumBuckets(&s), goroutines*each)
	}
	if want := time.Duration(goroutines*each-1) * time.Microsecond; s.Max() != want {
		t.Errorf("Max = %v, want %v", s.Max(), want)
	}
}

func sumBuckets(s *Snapshot) uint64 {
	var n uint64
	for _, c := range s.buckets {
		n += c
	}
	return n
}

func TestMergeEqualsUnion(t *testing.T) {
	var a, b, union Histogram
	for i := 1; i <= 300; i++ {
		d := time.Duration(i*i) * time.Microsecond
		if i%3 == 0 {
			a.Record(d)
		} else {
			b.Record(d)
		}
		union.Record(d)
	}
	merged, sb, want := a.Snapshot(), b.Snapshot(), union.Snapshot()
	merged.Merge(&sb)
	if merged != want {
		t.Errorf("Merge(a,b) differs from recording the union: count %d vs %d, max %v vs %v, mean %v vs %v",
			merged.Count(), want.Count(), merged.Max(), want.Max(), merged.Mean(), want.Mean())
	}
}

// TestSnapshotRecordEqualsHistogram: the plain single-goroutine Record
// leaves a Snapshot equal to the one a Histogram that saw the same
// stream returns — negative values, the maximum arriving mid-stream and
// a following Merge included.
func TestSnapshotRecordEqualsHistogram(t *testing.T) {
	var h Histogram
	var plain Snapshot
	for i := -3; i <= 300; i++ {
		d := time.Duration(i*(350-i)) * time.Microsecond
		h.Record(d)
		plain.Record(d)
	}
	if want := h.Snapshot(); plain != want {
		t.Errorf("Snapshot.Record differs from Histogram.Record: count %d vs %d, max %v vs %v, mean %v vs %v",
			plain.Count(), want.Count(), plain.Max(), want.Max(), plain.Mean(), want.Mean())
	}
	merged, twice, same := h.Snapshot(), h.Snapshot(), h.Snapshot()
	merged.Merge(&plain)
	twice.Merge(&same)
	if merged != twice {
		t.Error("merging a recorded-into Snapshot differs from merging the Histogram's own")
	}
}

func TestSubEqualsInterval(t *testing.T) {
	var h, interval Histogram
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	before := h.Snapshot()
	for i := 1; i <= 50; i++ {
		d := time.Duration(i) * 100 * time.Microsecond
		h.Record(d)
		interval.Record(d)
	}
	after := h.Snapshot()
	got, want := after.Sub(&before), interval.Snapshot()
	// Max is cumulative by contract: it cannot be un-merged.
	if got.Max() != after.Max() {
		t.Errorf("interval Max = %v, want the cumulative %v", got.Max(), after.Max())
	}
	got.max = want.max
	if got != want {
		t.Errorf("Sub differs from the interval's own histogram: count %d vs %d, mean %v vs %v",
			got.Count(), want.Count(), got.Mean(), want.Mean())
	}
	if q, _ := got.Quantile(0.5); q < 2500*time.Microsecond || q > 2700*time.Microsecond {
		t.Errorf("interval p50 = %v, want ~2.5ms", q)
	}
}
