package tuner

import (
	"testing"
	"time"
)

// TestEmulateZeroIntervalDoesNotPanic: only ReadTrace validates the
// interval, so a trace built in code may carry none; every wait is then
// one record rather than a division by zero.
func TestEmulateZeroIntervalDoesNotPanic(t *testing.T) {
	tr := syntheticTrace(3, 20)
	for _, interval := range []time.Duration{0, -5 * time.Second} {
		tr.Interval = interval
		res := Emulate(tr, Table2Configs()[0].Params())
		if res.Requests == 0 || res.Accepted == 0 {
			t.Errorf("interval %v: %+v, want a replay that sends and accepts", interval, res)
		}
	}
}

// TestEmulateAllocations: a replay allocates for its cycle (filter,
// scratch, the corrected offsets), never per record — four times the
// trace under one cycle costs the same number of allocations.
func TestEmulateAllocations(t *testing.T) {
	full := syntheticTrace(1, 20)
	quarter := &Trace{Interval: full.Interval, Records: full.Records[:len(full.Records)/4]}
	p := Table2Configs()[5].Params() // warm-up throughout: every record is a round
	count := func(tr *Trace) float64 {
		return testing.AllocsPerRun(5, func() { Emulate(tr, p) })
	}
	q, f := count(quarter), count(full)
	if f > q || f > 12 {
		t.Errorf("%d records: %v allocs, %d records: %v allocs; want equal and ≤ 12",
			len(quarter.Records), q, len(full.Records), f)
	}
}

var emulateSink Result

func BenchmarkEmulate(b *testing.B) {
	tr := syntheticTrace(1, 20)
	cfgs := Table2Configs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emulateSink = Emulate(tr, cfgs[i%len(cfgs)].Params())
	}
}
