package clock

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

var epoch = time.Date(2016, 11, 14, 0, 0, 0, 0, time.UTC)

// manualTime is a controllable true-time source.
type manualTime struct{ t time.Duration }

func (m *manualTime) now() time.Duration { return m.t }

func TestTrueClockExact(t *testing.T) {
	mt := &manualTime{}
	c := NewTrue(epoch, mt.now)
	if !c.Now().Equal(epoch) {
		t.Error("true clock at t=0 should be epoch")
	}
	mt.t = 90 * time.Minute
	if !c.Now().Equal(epoch.Add(90 * time.Minute)) {
		t.Error("true clock should track exactly")
	}
}

func TestSimInitialOffset(t *testing.T) {
	mt := &manualTime{}
	cfg := Config{InitialOffset: 250 * time.Millisecond, Seed: 1}
	c := NewSim(cfg, epoch, mt.now)
	if got := c.TrueOffset(); got != 250*time.Millisecond {
		t.Errorf("initial offset = %v", got)
	}
}

func TestSimConstantSkew(t *testing.T) {
	mt := &manualTime{}
	cfg := Config{SkewPPM: 20, Seed: 1} // no wander, no temperature
	c := NewSim(cfg, epoch, mt.now)
	mt.t = time.Hour
	// 20 ppm over 1 h = 72 ms.
	got := c.TrueOffset()
	want := 72 * time.Millisecond
	if d := got - want; d < -time.Millisecond || d > time.Millisecond {
		t.Errorf("1h skew offset = %v, want ~%v", got, want)
	}
}

func TestSimStep(t *testing.T) {
	mt := &manualTime{}
	c := NewSim(Config{Seed: 1}, epoch, mt.now)
	c.Step(-30 * time.Millisecond)
	if got := c.TrueOffset(); got != -30*time.Millisecond {
		t.Errorf("after step, offset = %v", got)
	}
}

func TestSimFreqCorrectionCancelsSkew(t *testing.T) {
	mt := &manualTime{}
	cfg := Config{SkewPPM: 20, Seed: 1}
	c := NewSim(cfg, epoch, mt.now)
	c.AdjustFreq(-20e-6)
	if got := c.FreqCorrection(); got != -20e-6 {
		t.Errorf("FreqCorrection = %v", got)
	}
	mt.t = 4 * time.Hour
	got := c.TrueOffset()
	if got < -time.Millisecond || got > time.Millisecond {
		t.Errorf("corrected clock drifted %v over 4h", got)
	}
}

func TestSimWanderIsDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) time.Duration {
		mt := &manualTime{}
		c := NewSim(Config{WanderPPMPerSqrtHour: 5, Seed: seed}, epoch, mt.now)
		mt.t = 2 * time.Hour
		return c.TrueOffset()
	}
	if run(7) != run(7) {
		t.Error("same seed must give identical wander")
	}
	if run(7) == run(8) {
		t.Error("different seeds should give different wander")
	}
}

func TestSimWanderIndependentOfQueryPattern(t *testing.T) {
	// Querying every second vs once at the end must integrate the same
	// noise path (fixed-quantum integration).
	one := func() time.Duration {
		mt := &manualTime{}
		c := NewSim(Config{WanderPPMPerSqrtHour: 5, Seed: 3}, epoch, mt.now)
		mt.t = 10 * time.Minute
		return c.TrueOffset()
	}()
	many := func() time.Duration {
		mt := &manualTime{}
		c := NewSim(Config{WanderPPMPerSqrtHour: 5, Seed: 3}, epoch, mt.now)
		for s := time.Duration(1); s <= 600; s++ {
			mt.t = s * time.Second
			c.Now()
		}
		return c.TrueOffset()
	}()
	if one != many {
		t.Errorf("query-pattern dependence: %v vs %v", one, many)
	}
}

func TestSimTemperatureModulation(t *testing.T) {
	mt := &manualTime{}
	cfg := Config{
		TempCoeffPPMPerC: 1, TempAmplitudeC: 10, TempPeriod: time.Hour, Seed: 1,
	}
	c := NewSim(cfg, epoch, mt.now)
	// Over one full period the sinusoid integrates to ~zero; at the
	// quarter period the integral is maximal. Just assert the effect
	// exists and is bounded.
	mt.t = 15 * time.Minute
	quarter := c.TrueOffset()
	if quarter == 0 {
		t.Error("temperature term had no effect")
	}
	// Max possible: 10 ppm for 900 s = 9 ms.
	if d := quarter; d < -9*time.Millisecond || d > 9*time.Millisecond {
		t.Errorf("temperature effect out of bounds: %v", d)
	}
}

func TestFixedClock(t *testing.T) {
	mt := &manualTime{}
	f := &Fixed{Base: NewTrue(epoch, mt.now), Error: 100 * time.Millisecond}
	if got := f.Now().Sub(epoch); got != 100*time.Millisecond {
		t.Errorf("fixed error = %v", got)
	}
}

func TestNowMonotoneUnderForwardTrueTime(t *testing.T) {
	mt := &manualTime{}
	c := NewSim(DefaultConfig(9), epoch, mt.now)
	prev := c.Now()
	for s := 1; s <= 300; s++ {
		mt.t = time.Duration(s) * time.Second
		cur := c.Now()
		if cur.Before(prev) {
			t.Fatalf("clock went backwards at %ds: %v < %v", s, cur, prev)
		}
		prev = cur
	}
}

// Property: for a drift-free, noise-free clock, Now() == epoch+true for
// any query time.
func TestQuickPerfectClockIdentity(t *testing.T) {
	f := func(secs uint16) bool {
		mt := &manualTime{t: time.Duration(secs) * time.Second}
		c := NewSim(Config{Seed: 1}, epoch, mt.now)
		return c.Now().Equal(epoch.Add(mt.t))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: offset error grows linearly with skew: doubling elapsed
// time doubles the accumulated offset (no wander configured).
func TestQuickSkewLinearity(t *testing.T) {
	f := func(ppmRaw uint8, minutes uint8) bool {
		ppm := float64(ppmRaw%100) + 1
		m := time.Duration(minutes%120+1) * time.Minute
		mt := &manualTime{}
		c := NewSim(Config{SkewPPM: ppm, Seed: 1}, epoch, mt.now)
		mt.t = m
		first := c.TrueOffset().Seconds()
		mt.t = 2 * m
		second := c.TrueOffset().Seconds()
		return math.Abs(second-2*first) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// refSim is Sim's oscillator state with advanceTo and tempFreq as they
// stood before the loop invariants were hoisted: every step recomputes
// the skew product, tests the temperature configuration and multiplies
// by the step length. It is the reference the hoisted loop is held to.
type refSim struct {
	cfg        Config
	rng        *rand.Rand
	lastTrue   time.Duration
	offset     float64
	wander     float64
	adjFreq    float64
	wanderStep float64
}

func (s *refSim) advanceTo(t time.Duration) {
	if t <= s.lastTrue {
		return
	}
	for s.lastTrue < t {
		step := quantum
		if rem := t - s.lastTrue; rem < step {
			step = rem
		}
		dt := step.Seconds()
		// Frequency error during this step.
		freq := s.cfg.SkewPPM*1e-6 + s.wander + s.tempFreq(s.lastTrue) + s.adjFreq
		s.offset += freq * dt
		// Random-walk the wander once per full quantum.
		if step == quantum {
			s.wander += s.wanderStep * s.rng.NormFloat64()
		}
		s.lastTrue += step
	}
}

func (s *refSim) tempFreq(t time.Duration) float64 {
	if s.cfg.TempAmplitudeC == 0 || s.cfg.TempPeriod <= 0 || s.cfg.TempCoeffPPMPerC == 0 {
		return 0
	}
	phase := 2 * math.Pi * float64(t) / float64(s.cfg.TempPeriod)
	tempDelta := s.cfg.TempAmplitudeC * math.Sin(phase)
	return s.cfg.TempCoeffPPMPerC * 1e-6 * tempDelta
}

// TestAdvanceMatchesReference drives a Sim and the reference through
// the same seeded read patterns — reads inside a quantum, jumps over
// several, reads landing exactly on a quantum edge, steps and frequency
// trims in between, with the temperature term and the wander each on
// and off — and requires the same state bit for bit and the same next
// random draw.
func TestAdvanceMatchesReference(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("a fused multiply-add may legally round the two loops differently; the goldens are amd64's")
	}
	for seed := int64(1); seed <= 24; seed++ {
		plan := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig(seed)
		cfg.InitialOffset = time.Duration(plan.Intn(2000)-1000) * time.Microsecond
		cfg.SkewPPM = plan.Float64()*80 - 40
		switch seed % 4 {
		case 1:
			cfg.TempAmplitudeC = 0
		case 2:
			cfg.WanderPPMPerSqrtHour = 0
		case 3:
			cfg.TempPeriod = 0
			cfg.WanderPPMPerSqrtHour = 0
		}
		mt := &manualTime{}
		c := NewSim(cfg, epoch, mt.now)
		ref := &refSim{
			cfg:        cfg,
			rng:        rand.New(rand.NewSource(cfg.Seed)),
			offset:     cfg.InitialOffset.Seconds(),
			wanderStep: c.wanderStep,
		}
		for i := 0; i < 1000; i++ {
			switch plan.Intn(5) {
			case 0: // no time passes
			case 1: // inside a quantum
				mt.t += time.Duration(1 + plan.Int63n(int64(quantum)-1))
			case 2: // over several quanta, ending inside one
				mt.t += time.Duration(plan.Int63n(int64(12 * quantum)))
			case 3: // exactly onto a quantum edge of the integrated state
				mt.t = c.lastTrue + time.Duration(1+plan.Intn(4))*quantum
			case 4: // a long idle stretch
				mt.t += time.Duration(plan.Int63n(int64(10 * time.Minute)))
			}
			switch plan.Intn(6) {
			case 0:
				d := time.Duration(plan.Intn(2000)-1000) * time.Microsecond
				c.Step(d)
				ref.advanceTo(mt.t)
				ref.offset += d.Seconds()
			case 1:
				f := (plan.Float64() - 0.5) * 100e-6
				c.AdjustFreq(f)
				ref.advanceTo(mt.t)
				ref.adjFreq = f
			case 2:
				c.TrueOffset()
				ref.advanceTo(mt.t)
			default:
				c.Now()
				ref.advanceTo(mt.t)
			}
			if math.Float64bits(c.offset) != math.Float64bits(ref.offset) ||
				math.Float64bits(c.wander) != math.Float64bits(ref.wander) ||
				c.lastTrue != ref.lastTrue {
				t.Fatalf("seed %d op %d at %v: offset %v wander %v lastTrue %v, reference %v %v %v",
					seed, i, mt.t, c.offset, c.wander, c.lastTrue, ref.offset, ref.wander, ref.lastTrue)
			}
		}
		if got, want := c.rng.Int63(), ref.rng.Int63(); got != want {
			t.Fatalf("seed %d: next draw %d, reference %d", seed, got, want)
		}
	}
}

// BenchmarkSimAdvance prices one simulated second of the default
// oscillator inside advanceTo — a sine, a normal draw and the sums
// around them: the clock is read once a minute, so the per-read cost
// (mutex, time arithmetic) is a sixtieth of an op.
func BenchmarkSimAdvance(b *testing.B) {
	mt := &manualTime{}
	c := NewSim(DefaultConfig(1), epoch, mt.now)
	for i := 0; i < b.N; i += 60 {
		mt.t += time.Minute
		c.Now()
	}
}
