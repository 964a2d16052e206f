package sources

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"mntp/internal/exchange"
	"mntp/internal/ntppkt"
)

// manualClock is an advanceable test clock, safe for concurrent use.
type manualClock struct {
	mu sync.Mutex
	t  time.Time
}

func newManualClock() *manualClock {
	return &manualClock{t: time.Date(2016, 11, 14, 0, 0, 0, 0, time.UTC)}
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func mkSample(offset, delay time.Duration) exchange.Sample {
	return exchange.Sample{Offset: offset, Delay: delay}
}

func statusOf(t *testing.T, p *Pool, name string) SourceStatus {
	t.Helper()
	for _, st := range p.Status() {
		if st.Name == name {
			return st
		}
	}
	t.Fatalf("no status for source %q", name)
	return SourceStatus{}
}

func TestReachRegisterAndSmoothing(t *testing.T) {
	clk := newManualClock()
	p := New(clk, nil, Config{Servers: []string{"a"}})

	for i := 0; i < 3; i++ {
		p.ReportSample("a", mkSample(time.Millisecond, 10*time.Millisecond))
	}
	st := statusOf(t, p, "a")
	if st.Reach != 0b111 {
		t.Errorf("reach after 3 successes = %08b, want 00000111", st.Reach)
	}
	if st.Delay != 10*time.Millisecond {
		t.Errorf("smoothed delay = %v, want 10ms (constant input)", st.Delay)
	}
	if st.Jitter != 0 {
		t.Errorf("jitter = %v with constant delay, want 0", st.Jitter)
	}

	p.ReportError("a", errors.New("timeout"))
	st = statusOf(t, p, "a")
	if st.Reach != 0b1110 {
		t.Errorf("reach after failure = %08b, want 00001110", st.Reach)
	}
	if st.Failures != 1 {
		t.Errorf("failures = %d, want 1", st.Failures)
	}

	// A varying delay moves the EWMA and raises jitter.
	p.ReportSample("a", mkSample(time.Millisecond, 50*time.Millisecond))
	st = statusOf(t, p, "a")
	if st.Delay <= 10*time.Millisecond || st.Delay >= 50*time.Millisecond {
		t.Errorf("smoothed delay = %v, want between 10ms and 50ms", st.Delay)
	}
	if st.Jitter == 0 {
		t.Error("jitter stayed 0 after a 40ms delay excursion")
	}
}

func TestScoreRankingPrefersHealthy(t *testing.T) {
	clk := newManualClock()
	p := New(clk, nil, Config{Servers: []string{"good", "flaky", "unpolled"}})

	for i := 0; i < 8; i++ {
		p.ReportSample("good", mkSample(0, 5*time.Millisecond))
		// flaky answers once in four attempts, with worse delay.
		if i%4 == 0 {
			p.ReportSample("flaky", mkSample(0, 80*time.Millisecond))
		} else {
			p.ReportError("flaky", errors.New("timeout"))
		}
	}

	good := statusOf(t, p, "good")
	flaky := statusOf(t, p, "flaky")
	unpolled := statusOf(t, p, "unpolled")
	if !(good.Score > unpolled.Score && unpolled.Score > flaky.Score) {
		t.Errorf("score order: good=%.3f unpolled=%.3f flaky=%.3f, want good > unpolled > flaky",
			good.Score, unpolled.Score, flaky.Score)
	}
	if unpolled.Score != unpolledScore {
		t.Errorf("unpolled score = %.3f, want the neutral prior %.3f", unpolled.Score, unpolledScore)
	}
	if r := p.rankedLocked(p.now(), nil); len(r) == 0 || p.srcs[r[0]].name != "good" {
		t.Errorf("ranking %v, want \"good\" first", r)
	}
}

func TestKoDExponentialHoldDown(t *testing.T) {
	clk := newManualClock()
	base := time.Minute
	p := New(clk, nil, Config{Servers: []string{"a", "b"}, KoDBaseHold: base})

	p.ReportError("a", ntppkt.ErrKissOfDeath)
	st := statusOf(t, p, "a")
	if !st.KoD || st.KoDStreak != 1 || st.KoDs != 1 {
		t.Fatalf("after first KoD: KoD=%v streak=%d kods=%d, want true/1/1", st.KoD, st.KoDStreak, st.KoDs)
	}
	if got := st.KoDUntil.Sub(clk.Now()); got != base {
		t.Errorf("first hold-down = %v, want %v", got, base)
	}
	if names := p.EligibleNames(); len(names) != 1 || names[0] != "b" {
		t.Errorf("eligible during hold-down = %v, want [b]", names)
	}
	if statusOf(t, p, "a").Score != 0 {
		t.Error("held-down source must score 0")
	}

	// Hold-down expires: eligible again; a repeat KoD doubles the hold.
	clk.Advance(base + time.Second)
	if names := p.EligibleNames(); len(names) != 2 {
		t.Fatalf("eligible after expiry = %v, want both", names)
	}
	p.ReportError("a", ntppkt.ErrKissOfDeath)
	st = statusOf(t, p, "a")
	if got := st.KoDUntil.Sub(clk.Now()); got != 2*base {
		t.Errorf("second hold-down = %v, want %v (exponential)", got, 2*base)
	}
	if st.KoDStreak != 2 {
		t.Errorf("streak = %d, want 2", st.KoDStreak)
	}

	// The exponential back-off caps at kodMaxHold.
	for i := 0; i < 12; i++ {
		clk.Advance(9 * time.Hour)
		p.ReportError("a", ntppkt.ErrKissOfDeath)
	}
	st = statusOf(t, p, "a")
	if got := st.KoDUntil.Sub(clk.Now()); got != 8*time.Hour {
		t.Errorf("capped hold-down = %v, want the default 8h cap", got)
	}

	// A clean reply clears the streak and the hold-down.
	clk.Advance(9 * time.Hour)
	p.ReportSample("a", mkSample(0, time.Millisecond))
	st = statusOf(t, p, "a")
	if st.KoD || st.KoDStreak != 0 {
		t.Errorf("after clean reply: KoD=%v streak=%d, want cleared", st.KoD, st.KoDStreak)
	}
	p.ReportError("a", ntppkt.ErrKissOfDeath)
	if got := statusOf(t, p, "a").KoDUntil.Sub(clk.Now()); got != base {
		t.Errorf("hold-down after streak reset = %v, want %v (back to base)", got, base)
	}
}

func TestFalsetickerDemotionAndDecay(t *testing.T) {
	clk := newManualClock()
	p := New(clk, nil, Config{Servers: []string{"a", "b"}})
	p.ReportSample("a", mkSample(0, time.Millisecond))
	p.ReportSample("b", mkSample(0, time.Millisecond))
	before := statusOf(t, p, "b").Score

	p.MarkResult([]string{"a"}, []string{"b"})
	st := statusOf(t, p, "b")
	if st.Falseticker != 1 {
		t.Fatalf("falseticker weight = %v, want 1", st.Falseticker)
	}
	if st.Score >= before/2+1e-12 {
		t.Errorf("score after demotion = %.4f, want halved from %.4f", st.Score, before)
	}

	// Weight accumulates up to the cap…
	for i := 0; i < 10; i++ {
		p.MarkResult(nil, []string{"b"})
	}
	if w := statusOf(t, p, "b").Falseticker; w != maxFalsetickerWeight {
		t.Errorf("weight = %v, want capped at %v", w, maxFalsetickerWeight)
	}
	// …and decays by half per survived round.
	p.MarkResult([]string{"b"}, nil)
	if w := statusOf(t, p, "b").Falseticker; w != maxFalsetickerWeight/2.0 {
		t.Errorf("weight after survival = %v, want %v", w, maxFalsetickerWeight/2.0)
	}
}

func TestFormatStatus(t *testing.T) {
	clk := newManualClock()
	p := New(clk, nil, Config{Servers: []string{"alpha", "beta"}})
	p.ReportSample("alpha", mkSample(0, time.Millisecond))
	p.ReportError("beta", ntppkt.ErrKissOfDeath)

	out := FormatStatus(p.Status())
	for _, want := range []string{"alpha", "beta", "kod-holddown(x1)"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatStatus output missing %q:\n%s", want, out)
		}
	}
}
