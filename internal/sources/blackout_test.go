package sources

import (
	"errors"
	"math"
	"testing"
	"time"

	"mntp/internal/exchange"
	"mntp/internal/ntppkt"
)

// TestTotalBlackout drives a warmed-up pool through rounds where every
// source drops 100% of packets: reach must decay to zero, no score may
// go NaN/Inf, and MeasureBest must surface a typed error while still
// billing the attempts it made.
func TestTotalBlackout(t *testing.T) {
	clk := newManualClock()
	up := true
	tr := exchange.TransportFunc(func(server string, req *ntppkt.Packet) (*ntppkt.Packet, time.Time, error) {
		if !up {
			return nil, time.Time{}, errors.New("network unreachable")
		}
		return memServer(clk, clk, 0, 4*time.Millisecond)(server, req)
	})
	p := New(clk, tr, Config{Servers: []string{"a", "b", "c"}, FailoverTries: 2})

	// Warm the pool up on a healthy network.
	for i := 0; i < 4; i++ {
		p.Round()
		clk.Advance(15 * time.Second)
	}
	for _, st := range p.Status() {
		if st.Reach == 0 {
			t.Fatalf("source %s unreached during warm-up", st.Name)
		}
	}

	// Total blackout: every exchange fails for 10 rounds.
	up = false
	for i := 0; i < 10; i++ {
		s, outs, err := p.MeasureBest()
		if err == nil {
			t.Fatalf("round %d: MeasureBest succeeded during blackout: %+v", i, s)
		}
		if !errors.Is(err, errAllSourcesFailed) {
			t.Fatalf("round %d: err = %v, want ErrAllSourcesFailed", i, err)
		}
		if errors.Is(err, errNoEligibleSource) {
			t.Fatalf("round %d: blackout misreported as hold-down", i)
		}
		if len(outs) != 3 {
			t.Fatalf("round %d: attempts = %d, want 3 (1 + FailoverTries 2)", i, len(outs))
		}
		clk.Advance(15 * time.Second)
	}

	for _, st := range p.Status() {
		if st.Reach != 0 {
			t.Errorf("source %s reach = %08b after 10 dark rounds, want 0", st.Name, st.Reach)
		}
		if math.IsNaN(st.Score) || math.IsInf(st.Score, 0) {
			t.Errorf("source %s score = %v, want finite", st.Name, st.Score)
		}
		if st.Score < 0 {
			t.Errorf("source %s score = %v, want ≥ 0", st.Name, st.Score)
		}
		if st.Failures == 0 {
			t.Errorf("source %s recorded no failures", st.Name)
		}
	}

	// Recovery: the pool climbs back without intervention.
	up = true
	if _, _, err := p.MeasureBest(); err != nil {
		t.Fatalf("MeasureBest after recovery: %v", err)
	}
}

// TestResetHealth checks the NetworkChanged path: reach and smoothed
// delay/jitter reset (they describe the old path) while lifetime
// counters, falseticker demotion and KoD hold-downs survive.
func TestResetHealth(t *testing.T) {
	clk := newManualClock()
	tr := memServer(clk, clk, 0, 50*time.Millisecond)
	p := New(clk, tr, Config{Servers: []string{"a", "b"}, KoDBaseHold: time.Hour})
	for i := 0; i < 5; i++ {
		p.Round()
		clk.Advance(15 * time.Second)
	}
	p.MarkResult(nil, []string{"b"})
	p.ReportError("b", ntppkt.ErrKissOfDeath)

	before := statusOf(t, p, "a")
	if before.Reach == 0 || before.Delay == 0 {
		t.Fatalf("setup failed: %+v", before)
	}

	p.ResetHealth()

	a := statusOf(t, p, "a")
	if a.Reach != 0 || a.Delay != 0 || a.Jitter != 0 {
		t.Errorf("path state survived reset: %+v", a)
	}
	if a.Exchanges != before.Exchanges {
		t.Errorf("lifetime exchanges reset: %d → %d", before.Exchanges, a.Exchanges)
	}
	b := statusOf(t, p, "b")
	if b.Falseticker == 0 {
		t.Error("falseticker demotion dropped by path reset")
	}
	if !b.KoD {
		t.Error("KoD hold-down dropped by path reset")
	}
	// An unpolled-looking source scores the neutral prior, not NaN.
	if math.IsNaN(a.Score) {
		t.Errorf("score after reset = NaN")
	}
}
