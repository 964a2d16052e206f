// Package wireless models the 802.11 last hop of the paper's testbed
// (§3.2): a stochastic channel whose observable surface is exactly what
// MNTP consumes — RSSI and noise hints — and what packets experience —
// one-way delay and loss — with the two coupled through shared channel
// state (signal strength, interference bursts and medium occupancy).
//
// The model composes:
//
//   - a log-distance signal path: RSSI = TxPower − PathLoss + shadowing,
//     where shadowing is a Gauss–Markov (Ornstein–Uhlenbeck) process and
//     TxPower is the WAP actuator the monitor node manipulates;
//   - an interference/noise process: a quiet floor with Markov-modulated
//     bursts whose arrival rate grows with medium occupancy (adjacent
//     channel traffic), mirroring the paper's cross-traffic injection;
//   - an occupancy process: ambient load plus the download load the
//     monitor node injects, driving queueing delay and collision loss;
//   - per-packet delay and loss: base access delay, occupancy-driven
//     queueing (the bufferbloat spikes behind the paper's 600 ms /
//     1.58 s outliers), SNR-driven MAC retries and Gilbert-style loss.
//
// Channel state advances on a fixed quantum of virtual time, so the
// realized channel is independent of when it is observed — experiments
// with different polling schedules see the same underlying channel.
package wireless

import (
	"math"
	"math/rand"
	"sync"
	"time"

	"mntp/internal/hints"
	"mntp/internal/netsim"
)

// Params selects one realization of the channel model. The model
// itself is fixed: its calibration is the constant block below.
type Params struct {
	// RTSCTS enables the RTS/CTS handshake. The paper disabled it and
	// notes "given the introduction of additional variable delays due
	// to RTS/CTS, we would expect the performance of SNTP to be even
	// worse with this feature enabled" (§3.2): each packet pays a
	// reservation handshake whose wait grows with occupancy, in
	// exchange for fewer collision losses.
	RTSCTS bool
	// Seed drives all channel randomness.
	Seed int64
}

// The channel's calibration. The float64 ones are typed so that every
// expression they enter rounds as it would with a variable operand.
const (
	// txPowerDBm is the WAP transmit power the testbed starts from
	// (the legal indoor maximum).
	txPowerDBm float64 = 20
	// pathLossDB is the static path loss between WAP and client (a
	// same-room 5 GHz link).
	pathLossDB float64 = 75
	// shadowSigmaDB is the stationary standard deviation of shadow
	// fading and shadowTau its correlation time.
	shadowSigmaDB float64 = 3.5
	shadowTau             = 25 * time.Second
	// fastSigmaDB is per-reading measurement jitter on hints.
	fastSigmaDB float64 = 1
	// noiseFloorDBm is the quiet-channel noise level.
	noiseFloorDBm float64 = -93
	// burstNoiseDBm is the mean noise level during an interference
	// burst — above the paper's −70 dBm gate.
	burstNoiseDBm float64 = -67
	// burstRatePerMin is the quiet-channel burst arrival rate,
	// burstLoadRatePerMin the extra rate at full occupancy and
	// burstMean the mean burst duration.
	burstRatePerMin     float64 = 0.25
	burstLoadRatePerMin float64 = 2.2
	burstMean                   = 14 * time.Second
	// ambientLoad is the baseline medium occupancy without injected
	// cross traffic.
	ambientLoad float64 = 0.08
	// loadNoiseDB couples medium occupancy into the measured noise
	// level: co-channel traffic raises the noise indication by
	// loadNoiseDB·occupancy dB above the floor (a saturated channel
	// reads ≈ −60 dBm). This is what makes heavy cross traffic visible
	// to MNTP's hints, as it was on the paper's testbed.
	loadNoiseDB float64 = 34
	// baseDelay is the uncontended access delay.
	baseDelay = 3 * time.Millisecond
	// queueScale scales occupancy-driven queueing delay: mean queue
	// wait = queueScale·ρ/(1−ρ).
	queueScale = 45 * time.Millisecond
	// retrySlot is the mean per-retry penalty when SNR is poor.
	retrySlot = 22 * time.Millisecond
	// maxDelay is the tail-drop bound: a packet whose access delay
	// would exceed it is dropped instead (finite queue; matches the
	// ~1 s worst offsets of the paper's uncorrected wireless runs).
	maxDelay = 1100 * time.Millisecond
)

// quantum is the state-integration step; quantumSec is it in seconds.
const (
	quantum    = 500 * time.Millisecond
	quantumSec = float64(quantum) / float64(time.Second)
)

// Channel is the simulated 802.11 channel. It implements
// hints.Provider and netsim.PathModel. Safe for use from scheduler
// callbacks and Procs (which never run concurrently), and internally
// locked for defensive safety.
type Channel struct {
	mu sync.Mutex

	p       Params
	timeNow func() time.Duration
	rng     *rand.Rand // state-evolution randomness (quantized)
	pktRng  *rand.Rand // per-packet randomness
	obsRng  *rand.Rand // per-observation measurement jitter

	last       time.Duration
	shadow     float64 // dB around 0
	inBurst    bool
	burstNoise float64 // dBm, sampled at burst entry
	txPower    float64
	load       float64 // injected cross-traffic occupancy 0..1

	// Per-quantum constants of the state integration.
	shadowKeep    float64 // OU decay exp(−quantum/shadowTau)
	shadowKick    float64 // OU innovation scale shadowSigmaDB·√(1−keep²)
	burstExitProb float64 // quantum/burstMean
}

// NewChannel creates a channel over the given virtual time source.
func NewChannel(p Params, timeNow func() time.Duration) *Channel {
	keep := math.Exp(-quantumSec / shadowTau.Seconds())
	return &Channel{
		p:       p,
		timeNow: timeNow,
		rng:     rand.New(rand.NewSource(p.Seed)),
		pktRng:  rand.New(rand.NewSource(p.Seed ^ 0x7f4a7c15_9e3779b9)),
		obsRng:  rand.New(rand.NewSource(p.Seed ^ 0x4c957f2d_5851f42d)),
		txPower: txPowerDBm,

		shadowKeep:    keep,
		shadowKick:    shadowSigmaDB * math.Sqrt(1-keep*keep),
		burstExitProb: quantumSec / burstMean.Seconds(),
	}
}

// advanceTo integrates channel state to virtual time t (mu held).
func (c *Channel) advanceTo(t time.Duration) {
	for c.last+quantum <= t {
		// Ornstein–Uhlenbeck shadowing.
		c.shadow = c.shadow*c.shadowKeep + c.shadowKick*c.rng.NormFloat64()
		// Markov-modulated interference bursts.
		if c.inBurst {
			if c.rng.Float64() < c.burstExitProb {
				c.inBurst = false
			}
		} else {
			ratePerSec := (burstRatePerMin + burstLoadRatePerMin*c.occupancyLocked()) / 60
			if c.rng.Float64() < ratePerSec*quantumSec {
				c.inBurst = true
				c.burstNoise = burstNoiseDBm + 2*c.rng.NormFloat64()
			}
		}
		c.last += quantum
	}
}

// occupancyLocked returns total medium occupancy in [0, 0.97].
func (c *Channel) occupancyLocked() float64 {
	rho := ambientLoad + c.load
	if rho > 0.97 {
		rho = 0.97
	}
	if rho < 0 {
		rho = 0
	}
	return rho
}

// rssiLocked returns the current mean RSSI (no measurement jitter).
func (c *Channel) rssiLocked() float64 { return c.txPower - pathLossDB + c.shadow }

// noiseLocked returns the current mean noise level: the quiet floor
// raised by occupancy-coupled co-channel interference, or the burst
// level during an interference burst, whichever is louder.
func (c *Channel) noiseLocked() float64 {
	n := noiseFloorDBm + loadNoiseDB*c.occupancyLocked()
	if c.inBurst && c.burstNoise > n {
		return c.burstNoise
	}
	return n
}

// Hints implements hints.Provider: one measured reading of RSSI and
// noise, including per-reading measurement jitter.
func (c *Channel) Hints() hints.Hints {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advanceTo(c.timeNow())
	return hints.Hints{
		RSSI:  c.rssiLocked() + fastSigmaDB*c.obsRng.NormFloat64(),
		Noise: c.noiseLocked() + 0.5*fastSigmaDB*c.obsRng.NormFloat64(),
	}
}

// State is a harness-facing snapshot of the channel's hidden state.
type State struct {
	RSSI, Noise float64
	SNR         float64
	Occupancy   float64
	InBurst     bool
	TxPower     float64
}

// StateNow returns the current hidden state (no measurement jitter);
// the Figure 7 signals plot and tests use it.
func (c *Channel) StateNow() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advanceTo(c.timeNow())
	r, n := c.rssiLocked(), c.noiseLocked()
	return State{
		RSSI: r, Noise: n, SNR: r - n,
		Occupancy: c.occupancyLocked(), InBurst: c.inBurst, TxPower: c.txPower,
	}
}

// SetTxPower sets the WAP transmit power in dBm, clamped to [0, 20] —
// the programmable actuator of the paper's scriptable tool.
func (c *Channel) SetTxPower(dbm float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advanceTo(c.timeNow())
	if dbm < 0 {
		dbm = 0
	}
	if dbm > 20 {
		dbm = 20
	}
	c.txPower = dbm
}

// TxPower returns the current transmit power.
func (c *Channel) TxPower() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.txPower
}

// AddLoad adds delta to the injected cross-traffic occupancy (use a
// negative delta when a download completes).
func (c *Channel) AddLoad(delta float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advanceTo(c.timeNow())
	c.load += delta
	if c.load < 0 {
		c.load = 0
	}
}

// SampleOneWay implements netsim.PathModel for the wireless hop.
func (c *Channel) SampleOneWay(now time.Duration, _ netsim.Direction) (time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advanceTo(now)

	snr := c.rssiLocked() - c.noiseLocked()
	rho := c.occupancyLocked()

	// Loss: SNR-driven corruption (post-L2-retry residual) plus
	// occupancy-driven collision loss.
	pLoss := 0.001
	if snr < 25 {
		pLoss += (25 - snr) * 0.018
	}
	collision := 0.18 * rho * rho
	if c.p.RTSCTS {
		// The handshake largely eliminates data-frame collisions
		// (hidden terminals reserve the medium first).
		collision *= 0.25
	}
	pLoss += collision
	if pLoss > 0.55 {
		pLoss = 0.55
	}
	if c.pktRng.Float64() < pLoss {
		return 0, true
	}

	// Delay: base + per-packet jitter + occupancy queueing + SNR
	// retries + rare heavy spikes when the channel is both busy and
	// noisy (queue buildup behind retransmissions).
	d := baseDelay
	d += time.Duration(c.pktRng.ExpFloat64() * float64(2*time.Millisecond))
	if c.p.RTSCTS {
		// RTS/CTS reservation: a fixed handshake plus a variable wait
		// for the medium reservation that grows sharply with
		// contention — the "additional variable delays" of §3.2.
		d += time.Millisecond
		d += time.Duration(c.pktRng.ExpFloat64() * float64(14*time.Millisecond) * rho / (1 - rho))
	}
	if rho > 0.05 {
		mean := float64(queueScale) * rho / (1 - rho)
		d += time.Duration(c.pktRng.ExpFloat64() * mean)
	}
	if snr < 22 {
		// Geometric number of MAC retries, harsher at lower SNR.
		pRetry := (22 - snr) * 0.05
		if pRetry > 0.85 {
			pRetry = 0.85
		}
		for retries := 0; retries < 7 && c.pktRng.Float64() < pRetry; retries++ {
			d += time.Duration((0.5 + c.pktRng.Float64()) * float64(retrySlot))
		}
	}
	if rho > 0.5 && snr < 22 && c.pktRng.Float64() < 0.22 {
		d += time.Duration(c.pktRng.ExpFloat64() * float64(200*time.Millisecond))
	}
	if d > maxDelay {
		return 0, true // tail drop: the queue is finite
	}
	return d, false
}

var (
	_ hints.Provider   = (*Channel)(nil)
	_ netsim.PathModel = (*Channel)(nil)
)
