package ntptime

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestFromTimeKnownValues(t *testing.T) {
	// The Unix epoch is exactly 2208988800 s after the NTP epoch.
	ts := FromTime(time.Unix(0, 0))
	if got := ts.seconds(); got != unixToNTPOffset {
		t.Errorf("epoch seconds = %d, want %d", got, unixToNTPOffset)
	}
	if got := ts.fraction(); got != 0 {
		t.Errorf("epoch fraction = %d, want 0", got)
	}

	// Half a second is fraction 2^31.
	ts = FromTime(time.Unix(0, 500_000_000))
	if got := ts.fraction(); got != 1<<31 {
		t.Errorf("half-second fraction = %#x, want %#x", got, uint32(1<<31))
	}
}

// era0Pivot resolves every timestamp of NTP era 0 (1900–2036) that
// lies within 68 years of it, which covers the round-trip tests'
// 1970–2036 domain.
var era0Pivot = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

func TestTimestampRoundTripEra0(t *testing.T) {
	cases := []time.Time{
		time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2016, 11, 14, 9, 30, 15, 123456789, time.UTC),
		time.Date(2026, 7, 6, 12, 0, 0, 999999999, time.UTC),
		time.Date(1999, 12, 31, 23, 59, 59, 1, time.UTC),
	}
	for _, want := range cases {
		got := FromTime(want).Time(era0Pivot)
		if d := got.Sub(want); d < -time.Nanosecond || d > time.Nanosecond {
			t.Errorf("round trip %v -> %v (err %v)", want, got, d)
		}
	}
}

func TestTimeWithPivotCrossesEra(t *testing.T) {
	// A date past the 2036 era rollover must round-trip when the pivot
	// is nearby, even though the wire format wrapped.
	want := time.Date(2040, 6, 1, 0, 0, 0, 0, time.UTC)
	ts := FromTime(want)
	got := ts.Time(time.Date(2039, 1, 1, 0, 0, 0, 0, time.UTC))
	if !got.Equal(want) {
		t.Errorf("era-1 round trip: got %v, want %v", got, want)
	}
	// And a 2016 date with a 2016 pivot stays in era 0.
	want = time.Date(2016, 11, 14, 0, 0, 0, 0, time.UTC)
	got = FromTime(want).Time(time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC))
	if !got.Equal(want) {
		t.Errorf("era-0 round trip: got %v, want %v", got, want)
	}
}

func TestSubSignsAndMagnitude(t *testing.T) {
	base := time.Date(2016, 11, 14, 10, 0, 0, 0, time.UTC)
	a := FromTime(base)
	b := FromTime(base.Add(1500 * time.Millisecond))
	if d := b.Sub(a); d != 1500*time.Millisecond {
		t.Errorf("b-a = %v, want 1.5s", d)
	}
	if d := a.Sub(b); d != -1500*time.Millisecond {
		t.Errorf("a-b = %v, want -1.5s", d)
	}
}

func TestSubAcrossEraWrap(t *testing.T) {
	// Timestamps that straddle the era boundary still subtract to a
	// small signed difference.
	var nearEnd Timestamp = Timestamp(math.MaxUint64 - (1<<32)/2) // ~0.5s before wrap
	// One second later, past the wrap.
	nearStart := nearEnd + 1<<32
	if d := nearStart.Sub(nearEnd); d != time.Second {
		t.Errorf("wrap sub = %v, want 1s", d)
	}
}

// Sub inverts adding a duration: the timestamps of t and t+d are d
// apart, to the rounding of the 2^-32 s fraction.
func TestAddSubInverse(t *testing.T) {
	base := time.Date(2016, 3, 1, 2, 3, 4, 5678, time.UTC)
	ts := FromTime(base)
	for _, d := range []time.Duration{0, time.Nanosecond, time.Millisecond,
		-37 * time.Millisecond, 90 * time.Minute, -4 * time.Hour} {
		got := FromTime(base.Add(d)).Sub(ts)
		if diff := got - d; diff < -2 || diff > 2 {
			t.Errorf("FromTime(t+%v).Sub(FromTime(t)) = %v (err %dns)", d, got, diff)
		}
	}
}

func TestShortFormat(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want Short
	}{
		{0, 0},
		{time.Second, 1 << 16},
		{500 * time.Millisecond, 1 << 15},
		{-time.Second, 0}, // negative saturates to zero
	}
	for _, c := range cases {
		if got := DurationToShort(c.d); got != c.want {
			t.Errorf("DurationToShort(%v) = %#x, want %#x", c.d, got, c.want)
		}
	}
	if got := Short(1 << 16).Duration(); got != time.Second {
		t.Errorf("Short(1s).Duration() = %v", got)
	}
}

func TestShortSaturation(t *testing.T) {
	if got := DurationToShort(20 * time.Hour); got != Short(math.MaxUint32) {
		t.Errorf("oversized duration = %#x, want saturation", got)
	}
}

// Property: converting any in-era-0 time to a Timestamp and back is
// accurate to within one nanosecond.
func TestQuickRoundTrip(t *testing.T) {
	f := func(unixSec uint32, nanos uint32) bool {
		// Era 0 ends at Unix second 2^32 − 2208988800 ≈ 2085978496
		// (year 2036); keep the domain inside it.
		want := time.Unix(int64(unixSec%2_085_978_496), int64(nanos%1_000_000_000)).UTC()
		got := FromTime(want).Time(era0Pivot)
		d := got.Sub(want)
		return d >= -time.Nanosecond && d <= time.Nanosecond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Sub is antisymmetric to within one nanosecond (floor
// rounding of the 2^-32 s fraction can differ by one unit between the
// two directions).
func TestQuickSubAntisymmetric(t *testing.T) {
	f := func(a, b uint64) bool {
		ta, tb := Timestamp(a), Timestamp(b)
		sum := ta.Sub(tb) + tb.Sub(ta)
		return sum >= -time.Nanosecond && sum <= time.Nanosecond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Short round trip through Duration is accurate to half a
// short-format unit (~7.6 µs).
func TestQuickShortRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		s := Short(v)
		back := DurationToShort(s.Duration())
		diff := int64(back) - int64(s)
		return diff >= -1 && diff <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIsZero(t *testing.T) {
	if !Timestamp(0).IsZero() {
		t.Error("zero timestamp should be zero")
	}
	if FromTime(time.Now()).IsZero() {
		t.Error("current time should not be zero")
	}
}
