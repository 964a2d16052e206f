package energy

import (
	"errors"
	"math"
	"testing"
	"time"

	"mntp/internal/ntppkt"
)

func almost(a, b Joules, rel float64) bool {
	return math.Abs(float64(a-b)) <= rel*math.Abs(float64(b))
}

func TestSingleTransferEnergy(t *testing.T) {
	m := NewMeter(ThreeG())
	m.Activity(0, 100*time.Millisecond)
	// promotion 2s·0.53 + active 0.1s·0.68 + tail 12.5s·0.46.
	want := Joules(2*0.53 + 0.1*0.68 + 12.5*0.46)
	if got := m.Energy(); !almost(got, want, 1e-9) {
		t.Errorf("energy = %v, want %v", got, want)
	}
	if m.Bursts() != 1 {
		t.Errorf("bursts = %d", m.Bursts())
	}
}

func TestCloseTransfersShareOneBurst(t *testing.T) {
	m := NewMeter(ThreeG())
	// Three transfers 5 s apart: all within one 12.5 s tail.
	for i := 0; i < 3; i++ {
		m.Activity(time.Duration(i)*5*time.Second, 100*time.Millisecond)
	}
	if m.Bursts() != 1 {
		t.Fatalf("bursts = %d, want 1 (tail merging)", m.Bursts())
	}
	// One promotion + one tail despite three transfers.
	single := NewMeter(ThreeG())
	single.Activity(0, 100*time.Millisecond)
	if m.Energy() >= 3*single.Energy() {
		t.Errorf("merged bursts should cost less than 3 separate ones")
	}
}

func TestDistantTransfersSeparateBursts(t *testing.T) {
	m := NewMeter(ThreeG())
	m.Activity(0, 100*time.Millisecond)
	m.Activity(time.Minute, 100*time.Millisecond)
	if m.Bursts() != 2 {
		t.Errorf("bursts = %d, want 2", m.Bursts())
	}
	single := NewMeter(ThreeG())
	single.Activity(0, 100*time.Millisecond)
	if !almost(m.Energy(), 2*single.Energy(), 1e-9) {
		t.Errorf("two distant transfers = %v, want 2x single %v", m.Energy(), single.Energy())
	}
}

func TestPeriodicSmallTransfersCostlyOn3G(t *testing.T) {
	// The Balasubramanian finding the paper leans on: periodic small
	// transfers (one per minute over an hour) cost far more than one
	// bulk transfer of the same total active time.
	periodic := NewMeter(ThreeG())
	for i := 0; i < 60; i++ {
		periodic.Activity(time.Duration(i)*time.Minute, 500*time.Millisecond)
	}
	bulk := NewMeter(ThreeG())
	bulk.Activity(0, 30*time.Second) // same 30 s of active radio
	if periodic.Energy() < 10*bulk.Energy() {
		t.Errorf("periodic %v not ≫ bulk %v", periodic.Energy(), bulk.Energy())
	}
}

func TestWiFiCheaperThan3GForPolling(t *testing.T) {
	poll := func(model RadioModel) Joules {
		m := NewMeter(model)
		for i := 0; i < 120; i++ {
			m.Activity(time.Duration(i)*30*time.Second, 50*time.Millisecond)
		}
		return m.Energy()
	}
	if wifi, cg := poll(WiFi()), poll(ThreeG()); wifi >= cg/10 {
		t.Errorf("wifi polling %v not ≪ 3G %v", wifi, cg)
	}
}

func TestEmptyMeter(t *testing.T) {
	m := NewMeter(ThreeG())
	if m.Energy() != 0 || m.Bursts() != 0 || m.Events() != 0 {
		t.Error("empty meter non-zero")
	}
}

func TestUnsortedActivityHandled(t *testing.T) {
	a := NewMeter(ThreeG())
	a.Activity(time.Minute, 100*time.Millisecond)
	a.Activity(0, 100*time.Millisecond)
	b := NewMeter(ThreeG())
	b.Activity(0, 100*time.Millisecond)
	b.Activity(time.Minute, 100*time.Millisecond)
	if a.Energy() != b.Energy() {
		t.Error("energy depends on insertion order")
	}
}

func TestPerDay(t *testing.T) {
	if got := PerDay(10, 6*time.Hour); got != 40 {
		t.Errorf("PerDay = %v, want 40", got)
	}
	if got := PerDay(10, 0); got != 0 {
		t.Errorf("PerDay(0 duration) = %v", got)
	}
}

// fakeTransport answers instantly, optionally failing.
type fakeTransport struct {
	fail  bool
	now   *time.Duration
	rtt   time.Duration
	calls int
}

func (f *fakeTransport) Exchange(server string, req *ntppkt.Packet) (*ntppkt.Packet, time.Time, error) {
	f.calls++
	*f.now += f.rtt
	if f.fail {
		return nil, time.Time{}, errors.New("lost")
	}
	return &ntppkt.Packet{Mode: ntppkt.ModeServer}, time.Time{}, nil
}

func TestMeteredTransportRecordsExchanges(t *testing.T) {
	now := time.Duration(0)
	inner := &fakeTransport{now: &now, rtt: 80 * time.Millisecond}
	meter := NewMeter(WiFi())
	mt := &MeteredTransport{Inner: inner, Meter: meter, Now: func() time.Duration { return now }}

	req := ntppkt.NewSNTPClient(ntppkt.Version4, 0)
	for i := 0; i < 5; i++ {
		now += time.Minute
		mt.Exchange("srv", req)
	}
	if meter.Events() != 5 {
		t.Errorf("events = %d", meter.Events())
	}
	if meter.Energy() <= 0 {
		t.Error("no energy recorded")
	}
}

func TestMeteredTransportRecordsFailuresToo(t *testing.T) {
	// A timed-out request still kept the radio awake.
	now := time.Duration(0)
	inner := &fakeTransport{now: &now, rtt: 2 * time.Second, fail: true}
	meter := NewMeter(ThreeG())
	mt := &MeteredTransport{Inner: inner, Meter: meter, Now: func() time.Duration { return now }}
	if _, _, err := mt.Exchange("srv", ntppkt.NewSNTPClient(ntppkt.Version4, 0)); err == nil {
		t.Fatal("expected failure")
	}
	if meter.Events() != 1 {
		t.Error("failed exchange not metered")
	}
}
