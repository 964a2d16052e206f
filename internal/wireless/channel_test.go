package wireless

import (
	"testing"
	"time"

	"mntp/internal/hints"
	"mntp/internal/netsim"
	"mntp/internal/stats"
)

// manual is a controllable virtual time source.
type manual struct{ t time.Duration }

func (m *manual) now() time.Duration { return m.t }

func newTestChannel(seed int64) (*Channel, *manual) {
	mt := &manual{}
	return NewChannel(Params{Seed: seed}, mt.now), mt
}

func TestGoodChannelIsFavorable(t *testing.T) {
	ch, mt := newTestChannel(1)
	th := hints.Default()
	favorable := 0
	const n = 600
	for i := 0; i < n; i++ {
		mt.t += time.Second
		if th.Favorable(ch.Hints()) {
			favorable++
		}
	}
	// Default params (full power, ambient load only): the channel
	// should be favorable the large majority of the time.
	if frac := float64(favorable) / n; frac < 0.7 {
		t.Errorf("favorable fraction at full power = %v, want > 0.7", frac)
	}
}

func TestLowPowerClosesGate(t *testing.T) {
	ch, mt := newTestChannel(2)
	ch.SetTxPower(0) // RSSI ≈ −72 + shadow: frequently below −75
	th := hints.Default()
	favorable := 0
	const n = 600
	for i := 0; i < n; i++ {
		mt.t += time.Second
		if th.Favorable(ch.Hints()) {
			favorable++
		}
	}
	if frac := float64(favorable) / n; frac > 0.6 {
		t.Errorf("favorable fraction at zero power = %v, want < 0.6", frac)
	}
}

func TestTxPowerClamped(t *testing.T) {
	ch, _ := newTestChannel(3)
	ch.SetTxPower(99)
	if got := ch.TxPower(); got != 20 {
		t.Errorf("power = %v, want clamp to 20", got)
	}
	ch.SetTxPower(-5)
	if got := ch.TxPower(); got != 0 {
		t.Errorf("power = %v, want clamp to 0", got)
	}
}

func TestLoadChangesDelay(t *testing.T) {
	// Compare mean delay between an idle and a saturated channel.
	meanDelay := func(load float64, seed int64) float64 {
		ch, mt := newTestChannel(seed)
		ch.AddLoad(load)
		var acc stats.Online
		for i := 0; i < 3000; i++ {
			mt.t += 200 * time.Millisecond
			d, lost := ch.SampleOneWay(mt.t, netsim.Uplink)
			if !lost {
				acc.Add(float64(d) / float64(time.Millisecond))
			}
		}
		return acc.Mean()
	}
	idle := meanDelay(0, 4)
	busy := meanDelay(0.8, 4)
	if idle > 15 {
		t.Errorf("idle mean delay = %vms, want < 15ms", idle)
	}
	if busy < 4*idle {
		t.Errorf("busy mean delay %vms not ≫ idle %vms", busy, idle)
	}
}

func TestLoadIncreasesLoss(t *testing.T) {
	lossFrac := func(load float64) float64 {
		ch, mt := newTestChannel(5)
		ch.AddLoad(load)
		lost := 0
		const n = 4000
		for i := 0; i < n; i++ {
			mt.t += 100 * time.Millisecond
			if _, l := ch.SampleOneWay(mt.t, netsim.Uplink); l {
				lost++
			}
		}
		return float64(lost) / n
	}
	if idle, busy := lossFrac(0), lossFrac(0.85); busy < idle+0.05 {
		t.Errorf("loss idle=%v busy=%v, want busy significantly higher", idle, busy)
	}
}

func TestAddLoadFloorsAtZero(t *testing.T) {
	ch, _ := newTestChannel(6)
	ch.AddLoad(0.3)
	ch.AddLoad(-1)
	if got := ch.load; got != 0 {
		t.Errorf("load = %v, want 0", got)
	}
}

func TestStateDeterministicPerSeed(t *testing.T) {
	run := func() []float64 {
		ch, mt := newTestChannel(7)
		var out []float64
		for i := 0; i < 100; i++ {
			mt.t += time.Second
			s := ch.StateNow()
			out = append(out, s.RSSI, s.Noise)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("state diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestStateIndependentOfObservationPattern(t *testing.T) {
	// Observing hints frequently must not change the hidden state
	// trajectory.
	final := func(observations int) State {
		ch, mt := newTestChannel(8)
		for i := 0; i < observations; i++ {
			mt.t = time.Duration(i+1) * 5 * time.Minute / time.Duration(observations)
			ch.Hints()
		}
		mt.t = 5 * time.Minute
		return ch.StateNow()
	}
	a, b := final(3), final(300)
	if a.RSSI != b.RSSI || a.Noise != b.Noise || a.InBurst != b.InBurst {
		t.Errorf("state depends on observation pattern: %+v vs %+v", a, b)
	}
}

func TestBurstsOccur(t *testing.T) {
	ch, mt := newTestChannel(9)
	ch.AddLoad(0.6) // bursts arrive faster under load
	bursts := 0
	for i := 0; i < 7200; i++ { // 1 h at 500 ms
		mt.t += 500 * time.Millisecond
		if ch.StateNow().InBurst {
			bursts++
		}
	}
	if bursts == 0 {
		t.Error("no interference bursts in an hour under load")
	}
	// Burst noise must violate the paper's noise gate.
	ch2, mt2 := newTestChannel(10)
	ch2.AddLoad(0.9)
	for i := 0; i < 72000; i++ {
		mt2.t += 500 * time.Millisecond
		if s := ch2.StateNow(); s.InBurst {
			if s.Noise < -75 {
				t.Errorf("burst noise %v too quiet to matter", s.Noise)
			}
			return
		}
	}
	t.Error("no burst found in 10 h under heavy load")
}

func TestDelaySpikesUnderStress(t *testing.T) {
	// A busy, low-power channel must occasionally produce the paper's
	// multi-hundred-ms delays.
	ch, mt := newTestChannel(11)
	ch.SetTxPower(3)
	ch.AddLoad(0.75)
	var maxD time.Duration
	for i := 0; i < 5000; i++ {
		mt.t += 200 * time.Millisecond
		d, lost := ch.SampleOneWay(mt.t, netsim.Uplink)
		if !lost && d > maxD {
			maxD = d
		}
	}
	if maxD < 200*time.Millisecond {
		t.Errorf("max stressed delay = %v, want spikes > 200ms", maxD)
	}
}

func TestHintsCorrelateWithDelays(t *testing.T) {
	// The cross-layer premise: favorable hints should predict smaller
	// delays. Compare mean delays conditioned on the gate.
	ch, mt := newTestChannel(12)
	ch.SetTxPower(6) // marginal power: gate opens and closes
	ch.AddLoad(0.5)
	th := hints.Default()
	var fav, unfav []float64
	for i := 0; i < 20000; i++ {
		mt.t += 250 * time.Millisecond
		favorable := th.Favorable(hints.Hints{
			RSSI:  ch.StateNow().RSSI,
			Noise: ch.StateNow().Noise,
		})
		d, lost := ch.SampleOneWay(mt.t, netsim.Uplink)
		if lost {
			continue
		}
		ms := float64(d) / float64(time.Millisecond)
		if favorable {
			fav = append(fav, ms)
		} else {
			unfav = append(unfav, ms)
		}
	}
	if len(fav) == 0 || len(unfav) == 0 {
		t.Skip("channel never switched regimes under this seed")
	}
	if stats.Mean(fav) >= stats.Mean(unfav) {
		t.Errorf("favorable mean %vms ≥ unfavorable %vms: hints do not predict delay",
			stats.Mean(fav), stats.Mean(unfav))
	}
}

func TestRTSCTSAddsDelayVariance(t *testing.T) {
	// The §3.2 expectation: RTS/CTS introduces additional variable
	// delays (while reducing collision loss).
	run := func(rtscts bool) (meanMs, lossFrac float64) {
		ch := NewChannel(Params{Seed: 40, RTSCTS: rtscts}, (&manual{}).now)
		ch.AddLoad(0.5)
		var acc stats.Online
		lost := 0
		const n = 8000
		for i := 0; i < n; i++ {
			d, l := ch.SampleOneWay(time.Duration(i)*250*time.Millisecond, netsim.Uplink)
			if l {
				lost++
				continue
			}
			acc.Add(float64(d) / float64(time.Millisecond))
		}
		return acc.Mean(), float64(lost) / n
	}
	meanOff, lossOff := run(false)
	meanOn, lossOn := run(true)
	if meanOn <= meanOff {
		t.Errorf("RTS/CTS mean delay %.2fms not above %.2fms", meanOn, meanOff)
	}
	if lossOn >= lossOff {
		t.Errorf("RTS/CTS loss %.3f not below %.3f", lossOn, lossOff)
	}
}
