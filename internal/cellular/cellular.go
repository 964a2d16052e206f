// Package cellular models the 4G path of the paper's §3.3 experiment
// (a Galaxy S4 on a live LTE network) and the mobile-provider latency
// profiles of the §3.1 log study (providers SP 22–25, with median
// minimum OWDs around 550 ms and large interquartile ranges).
//
// The model captures the LTE mechanisms that dominate user-plane
// latency for sparse UDP traffic like SNTP:
//
//   - an RRC state machine: after an inactivity timeout the radio
//     falls back to idle, and the next packet pays a connection
//     promotion delay of a few hundred milliseconds;
//   - scheduling-grant asymmetry: uplink transmissions wait for grants,
//     so the uplink OWD systematically exceeds the downlink OWD — the
//     asymmetry that biases SNTP offsets (mean ≈ 192 ms in Figure 5);
//   - heavy-tailed base delay: lognormal OWD with provider-profile
//     parameters.
package cellular

import (
	"math"
	"math/rand"
	"time"

	"mntp/internal/netsim"
)

// Profile parameterizes one cellular provider path.
type Profile struct {
	// BaseOWDMedian is the median one-way delay in the connected
	// state, downlink direction.
	BaseOWDMedian time.Duration
	// Sigma is the lognormal shape parameter (log-scale standard
	// deviation) of the base delay.
	Sigma float64
	// UplinkGrantBase is the fixed part of the uplink scheduling-grant
	// wait; UplinkGrantMean is the mean of the exponential part on
	// top of it.
	UplinkGrantBase time.Duration
	UplinkGrantMean time.Duration
	// HandoverProb is the per-uplink-packet probability of a
	// handover/reconnection event adding HandoverMin..HandoverMax of
	// delay (the source of the paper's ~840 ms extremes).
	HandoverProb             float64
	HandoverMin, HandoverMax time.Duration
	// PromotionMin/PromotionMax bound the idle→connected promotion
	// delay paid by the first packet after idle.
	PromotionMin, PromotionMax time.Duration
	// IdleTimeout is the inactivity period after which the RRC state
	// drops back to idle.
	IdleTimeout time.Duration
	// LossProb is the residual end-to-end loss probability.
	LossProb float64
}

// LTE2016 is the §3.3 experiment profile: a mid-tier US LTE network of
// 2016. Calibrated so an SNTP client polling every 5 s sees offsets
// with mean ≈ 190 ms, σ ≈ 55 ms and occasional ~800 ms extremes.
func LTE2016() Profile {
	return Profile{
		BaseOWDMedian:   55 * time.Millisecond,
		Sigma:           0.35,
		UplinkGrantBase: 250 * time.Millisecond,
		UplinkGrantMean: 90 * time.Millisecond,
		PromotionMin:    260 * time.Millisecond,
		PromotionMax:    600 * time.Millisecond,
		IdleTimeout:     10 * time.Second,
		LossProb:        0.015,
		HandoverProb:    0.006,
		HandoverMin:     500 * time.Millisecond,
		HandoverMax:     1400 * time.Millisecond,
	}
}

// Path is a cellular path model implementing netsim.PathModel.
type Path struct {
	prof Profile
	rng  *rand.Rand
	// lastActivity tracks RRC state: a packet arriving more than
	// IdleTimeout after the previous one pays the promotion delay.
	lastActivity time.Duration
	everActive   bool
}

// NewPath creates a cellular path with the given profile and seed.
func NewPath(prof Profile, seed int64) *Path {
	return &Path{prof: prof, rng: rand.New(rand.NewSource(seed))}
}

// SampleOneWay implements netsim.PathModel.
func (p *Path) SampleOneWay(now time.Duration, dir netsim.Direction) (time.Duration, bool) {
	if p.prof.LossProb > 0 && p.rng.Float64() < p.prof.LossProb {
		return 0, true
	}

	// Lognormal base delay around the profile median.
	mu := math.Log(p.prof.BaseOWDMedian.Seconds())
	d := time.Duration(math.Exp(mu+p.prof.Sigma*p.rng.NormFloat64()) * float64(time.Second))

	// RRC promotion applies to uplink packets after inactivity (the
	// client initiates; by the time the response comes back the radio
	// is connected).
	if dir == netsim.Uplink {
		if p.everActive && now-p.lastActivity > p.prof.IdleTimeout {
			span := p.prof.PromotionMax - p.prof.PromotionMin
			promo := p.prof.PromotionMin
			if span > 0 {
				promo += time.Duration(p.rng.Int63n(int64(span)))
			}
			d += promo
		} else if !p.everActive {
			// First packet ever also promotes.
			d += p.prof.PromotionMin
		}
		// Scheduling-grant wait: fixed part plus exponential tail.
		d += p.prof.UplinkGrantBase
		d += time.Duration(p.rng.ExpFloat64() * float64(p.prof.UplinkGrantMean))
		// Occasional handover/reconnection spike.
		if p.prof.HandoverProb > 0 && p.rng.Float64() < p.prof.HandoverProb {
			span := p.prof.HandoverMax - p.prof.HandoverMin
			d += p.prof.HandoverMin
			if span > 0 {
				d += time.Duration(p.rng.Int63n(int64(span)))
			}
		}
		p.lastActivity = now
		p.everActive = true
	}
	return d, false
}

var _ netsim.PathModel = (*Path)(nil)
