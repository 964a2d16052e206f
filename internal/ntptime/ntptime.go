// Package ntptime implements the NTP on-wire time formats of RFC 5905:
// the 64-bit timestamp format (32.32 fixed point seconds since the NTP
// era epoch, 1900-01-01T00:00:00Z) and the 32-bit short format (16.16
// fixed point) used for root delay and root dispersion.
//
// The package converts between these formats, time.Time and
// time.Duration, handling the NTP era pivot so that dates well past the
// era-0 rollover in 2036 round-trip correctly.
package ntptime

import (
	"math"
	"time"
)

// Timestamp is the NTP 64-bit timestamp format: the upper 32 bits count
// seconds since the NTP epoch and the lower 32 bits are the binary
// fraction of a second (resolution 2^-32 s ≈ 233 ps).
type Timestamp uint64

// Short is the NTP 32-bit short format: 16 bits of seconds and 16 bits
// of fraction (resolution 2^-16 s ≈ 15.3 µs). It is used for root delay
// and root dispersion.
type Short uint32

// eraSeconds is the number of seconds in one NTP era.
const eraSeconds = int64(1) << 32

const (
	fracScale      = 1 << 32 // scale of the 64-bit timestamp fraction
	shortFracScale = 1 << 16 // scale of the short-format fraction
	nanosPerSec    = int64(time.Second)
)

// seconds returns the integral seconds field of the timestamp.
func (t Timestamp) seconds() uint32 { return uint32(t >> 32) }

// fraction returns the fractional seconds field of the timestamp.
func (t Timestamp) fraction() uint32 { return uint32(t) }

// IsZero reports whether the timestamp is the special "unset" value.
// RFC 5905 reserves the all-zeros timestamp to mean "unknown".
func (t Timestamp) IsZero() bool { return t == 0 }

// FromTime converts a time.Time to an NTP timestamp. The era is folded:
// the returned value is the time's position within its NTP era, which is
// how timestamps appear on the wire.
func FromTime(t time.Time) Timestamp {
	secs := t.Unix() + unixToNTPOffset
	nanos := int64(t.Nanosecond())
	// Round the fraction to the nearest representable 2^-32 s unit.
	frac := (nanos<<32 + nanosPerSec/2) / nanosPerSec
	if frac >= fracScale {
		frac -= fracScale
		secs++
	}
	return Timestamp(uint64(uint32(secs))<<32 | uint64(uint32(frac)))
}

// unixToNTPOffset is the number of seconds between the NTP epoch
// (1900-01-01) and the Unix epoch (1970-01-01): 70 years including 17
// leap days.
const unixToNTPOffset = 2208988800

// Time converts an NTP timestamp to a time.Time, resolving the era
// ambiguity against the supplied pivot: the result is the instant that
// corresponds to the timestamp's within-era position in the era that
// places it within ±68 years of the pivot.
func (t Timestamp) Time(pivot time.Time) time.Time {
	secInEra := int64(t.seconds())
	nanos := (int64(t.fraction())*nanosPerSec + fracScale/2) >> 32
	pivotNTP := pivot.Unix() + unixToNTPOffset
	era := (pivotNTP - secInEra + eraSeconds/2) / eraSeconds
	ntpSec := era*eraSeconds + secInEra
	return time.Unix(ntpSec-unixToNTPOffset, nanos).UTC()
}

// Sub returns the signed duration t−u interpreted in the shortest
// direction around the era circle. This is how offsets are computed from
// wire timestamps without resolving eras first: the two timestamps are
// assumed to be within ±68 years of each other.
func (t Timestamp) Sub(u Timestamp) time.Duration {
	d := int64(t) - int64(u) // wraps correctly modulo 2^64
	// d is in units of 2^-32 seconds. Convert to nanoseconds with
	// rounding while avoiding overflow: split into seconds and fraction.
	sec := d >> 32
	frac := d - sec<<32
	return time.Duration(sec*nanosPerSec + (frac*nanosPerSec)>>32)
}

// DurationToShort converts a duration to the 16.16 short format,
// saturating at the format's bounds [0, 65536). Negative durations
// saturate to zero: root delay and dispersion are non-negative.
func DurationToShort(d time.Duration) Short {
	if d < 0 {
		return 0
	}
	sec := int64(d) / nanosPerSec
	if sec >= shortFracScale {
		return Short(math.MaxUint32)
	}
	nanos := int64(d) % nanosPerSec
	frac := (nanos<<16 + nanosPerSec/2) / nanosPerSec
	v := sec<<16 + frac
	if v > math.MaxUint32 {
		v = math.MaxUint32
	}
	return Short(v)
}

// Duration converts the short format to a time.Duration.
func (s Short) Duration() time.Duration {
	sec := int64(s >> 16)
	frac := int64(s & 0xffff)
	return time.Duration(sec*nanosPerSec + (frac*nanosPerSec+shortFracScale/2)>>16)
}
