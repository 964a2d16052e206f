// Package energy models mobile radio energy consumption, the concern
// that motivates MNTP's request pacing (§3.4 of the paper): periodic
// small transfers keep the cellular radio in high-power states far
// longer than the transfers themselves (the "tail energy" findings of
// Balasubramanian et al., which the paper cites), so synchronization
// protocols are compared not just on accuracy but on how often they
// wake the radio. §7 names "benchmarking of MNTP against SNTP and NTP
// in terms of metrics like processor and battery performance" as
// future work; this package provides the battery half.
//
// The model is a radio state machine: a transfer promotes the radio
// (paying promotion energy), keeps it active for the transfer
// duration, and leaves it in a high-power tail state until the tail
// timer expires or another transfer arrives. Transfers closer
// together than the tail share one promotion and one tail.
package energy

import (
	"fmt"
	"sort"
	"time"
)

// Joules is an energy amount.
type Joules float64

// RadioModel parameterizes one radio technology.
type RadioModel struct {
	Name string
	// PromotionTime/PromotionPower: idle→active transition.
	PromotionTime  time.Duration
	PromotionPower float64 // watts
	// ActivePower during a transfer.
	ActivePower float64
	// Tail is the high-power dwell after the last activity;
	// TailPower its draw.
	Tail      time.Duration
	TailPower float64
}

// ThreeG returns a 3G/WCDMA model with the magnitudes of
// Balasubramanian et al. (IMC 2009): ~2 s promotion, ~12.5 s
// high-power tail — the regime where "a few 100B transfers
// periodically ... consume more energy than bulk one-shot transfers".
func ThreeG() RadioModel {
	return RadioModel{
		Name:          "3g",
		PromotionTime: 2 * time.Second, PromotionPower: 0.53,
		ActivePower: 0.68,
		Tail:        12500 * time.Millisecond, TailPower: 0.46,
	}
}

// WiFi returns an 802.11 PSM model: cheap promotions and a very short
// tail, which is why the same polling schedule costs far less on WiFi.
func WiFi() RadioModel {
	return RadioModel{
		Name:          "wifi",
		PromotionTime: 80 * time.Millisecond, PromotionPower: 0.9,
		ActivePower: 0.7,
		Tail:        240 * time.Millisecond, TailPower: 0.25,
	}
}

// Meter accumulates network activity windows and computes the radio
// energy they imply under a model.
type Meter struct {
	Model RadioModel
	spans []span
}

type span struct{ start, end time.Duration }

// NewMeter creates a meter for the model.
func NewMeter(m RadioModel) *Meter { return &Meter{Model: m} }

// Activity records a transfer starting at the given virtual time and
// lasting dur (e.g. one request/response exchange of duration RTT).
func (m *Meter) Activity(at, dur time.Duration) {
	if dur < time.Millisecond {
		dur = time.Millisecond // a datagram still wakes the radio
	}
	m.spans = append(m.spans, span{start: at, end: at + dur})
}

// Events returns the number of recorded transfers.
func (m *Meter) Events() int { return len(m.spans) }

// Span is one recorded activity window.
type Span struct{ Start, End time.Duration }

// Spans returns the recorded activity windows (insertion order),
// allowing the same activity to be re-scored under another model.
func (m *Meter) Spans() []Span {
	out := make([]Span, len(m.spans))
	for i, s := range m.spans {
		out[i] = Span{Start: s.start, End: s.end}
	}
	return out
}

// Energy computes the total radio energy of the recorded activity.
func (m *Meter) Energy() Joules {
	if len(m.spans) == 0 {
		return 0
	}
	spans := make([]span, len(m.spans))
	copy(spans, m.spans)
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })

	// Merge transfers whose gaps fall within the tail: they share one
	// radio burst.
	var bursts []span
	cur := spans[0]
	for _, s := range spans[1:] {
		if s.start <= cur.end+m.Model.Tail {
			if s.end > cur.end {
				cur.end = s.end
			}
			continue
		}
		bursts = append(bursts, cur)
		cur = s
	}
	bursts = append(bursts, cur)

	var total float64
	for _, b := range bursts {
		total += m.Model.PromotionTime.Seconds() * m.Model.PromotionPower
		total += (b.end - b.start).Seconds() * m.Model.ActivePower
		total += m.Model.Tail.Seconds() * m.Model.TailPower
	}
	return Joules(total)
}

// Bursts returns the number of radio wake-ups (promotions) implied by
// the recorded activity.
func (m *Meter) Bursts() int {
	if len(m.spans) == 0 {
		return 0
	}
	spans := make([]span, len(m.spans))
	copy(spans, m.spans)
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	bursts := 1
	end := spans[0].end
	for _, s := range spans[1:] {
		if s.start > end+m.Model.Tail {
			bursts++
		}
		if s.end > end {
			end = s.end
		}
	}
	return bursts
}

// PerDay scales an energy measured over the given duration to a
// 24-hour figure.
func PerDay(e Joules, over time.Duration) Joules {
	if over <= 0 {
		return 0
	}
	return e * Joules(24*time.Hour) / Joules(over)
}

// String renders joules compactly.
func (j Joules) String() string { return fmt.Sprintf("%.1fJ", float64(j)) }
