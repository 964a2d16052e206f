package exchange

import (
	"errors"
	"strings"
	"testing"
	"time"

	"mntp/internal/ntppkt"
	"mntp/internal/ntptime"
)

var epoch = time.Date(2016, 11, 14, 0, 0, 0, 0, time.UTC)

// scriptedTransport replies with fixed server-side timestamps offset
// from the request by the configured deltas.
type scriptedTransport struct {
	upDelay, procDelay, downDelay time.Duration
	serverAhead                   time.Duration
	clk                           *manualClock
	fail                          error
	mutate                        func(*ntppkt.Packet)
	lastReq                       *ntppkt.Packet
}

type manualClock struct{ t time.Time }

func (m *manualClock) Now() time.Time { return m.t }

func (s *scriptedTransport) Exchange(server string, req *ntppkt.Packet) (*ntppkt.Packet, time.Time, error) {
	s.lastReq = req
	if s.fail != nil {
		return nil, time.Time{}, s.fail
	}
	// True time == client clock here (client perfect); server is ahead
	// by serverAhead.
	t1 := s.clk.t
	recv := t1.Add(s.upDelay).Add(s.serverAhead)
	xmit := recv.Add(s.procDelay)
	t4 := t1.Add(s.upDelay + s.procDelay + s.downDelay)
	s.clk.t = t4
	resp := &ntppkt.Packet{
		Leap: ntppkt.LeapNone, Version: req.Version, Mode: ntppkt.ModeServer,
		Stratum: 2, Origin: req.Transmit,
		Receive: ntptime.FromTime(recv), Transmit: ntptime.FromTime(xmit),
	}
	if s.mutate != nil {
		s.mutate(resp)
	}
	return resp, t4, nil
}

func TestMeasureSymmetric(t *testing.T) {
	clk := &manualClock{t: epoch}
	tr := &scriptedTransport{
		upDelay: 30 * time.Millisecond, downDelay: 30 * time.Millisecond,
		procDelay: 0, serverAhead: 200 * time.Millisecond, clk: clk,
	}
	s, err := Measure(clk, tr, "srv", ntppkt.Version4, true)
	if err != nil {
		t.Fatal(err)
	}
	if d := s.Offset - 200*time.Millisecond; d < -time.Millisecond || d > time.Millisecond {
		t.Errorf("offset = %v, want ~200ms", s.Offset)
	}
	if d := s.Delay - 60*time.Millisecond; d < -time.Millisecond || d > time.Millisecond {
		t.Errorf("delay = %v, want ~60ms", s.Delay)
	}
	if !s.When.Equal(s.T4) {
		t.Error("When != T4")
	}
}

func TestMeasureExcludesProcessingFromDelay(t *testing.T) {
	clk := &manualClock{t: epoch}
	tr := &scriptedTransport{
		upDelay: 10 * time.Millisecond, downDelay: 10 * time.Millisecond,
		procDelay: 500 * time.Millisecond, clk: clk,
	}
	s, err := Measure(clk, tr, "srv", ntppkt.Version4, true)
	if err != nil {
		t.Fatal(err)
	}
	// δ subtracts the server hold time (T3−T2).
	if d := s.Delay - 20*time.Millisecond; d < -time.Millisecond || d > time.Millisecond {
		t.Errorf("delay = %v, want ~20ms", s.Delay)
	}
}

func TestMeasureSimpleVsFullRequestShape(t *testing.T) {
	clk := &manualClock{t: epoch}
	tr := &scriptedTransport{clk: clk}
	if _, err := Measure(clk, tr, "srv", ntppkt.Version4, true); err != nil {
		t.Fatal(err)
	}
	if !tr.lastReq.IsSNTPRequest() {
		t.Error("simple=true should send an SNTP-shaped request")
	}
	clk.t = epoch
	if _, err := Measure(clk, tr, "srv", ntppkt.Version4, false); err != nil {
		t.Fatal(err)
	}
	if tr.lastReq.IsSNTPRequest() {
		t.Error("simple=false should send a full client request")
	}
}

func TestMeasureTransportError(t *testing.T) {
	clk := &manualClock{t: epoch}
	sentinel := errors.New("boom")
	tr := &scriptedTransport{clk: clk, fail: sentinel}
	if _, err := Measure(clk, tr, "srv", ntppkt.Version4, true); !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want sentinel", err)
	}
}

func TestMeasureRejectsInvalidReply(t *testing.T) {
	clk := &manualClock{t: epoch}
	tr := &scriptedTransport{clk: clk, mutate: func(p *ntppkt.Packet) {
		p.Leap = ntppkt.LeapNotSync
	}}
	if _, err := Measure(clk, tr, "srv", ntppkt.Version4, true); err == nil || !strings.Contains(err.Error(), "unsynchronized") {
		t.Errorf("err = %v, want the unsynchronized-server refusal", err)
	}
}

func TestMeasureRejectsBogusOrigin(t *testing.T) {
	clk := &manualClock{t: epoch}
	tr := &scriptedTransport{clk: clk, mutate: func(p *ntppkt.Packet) {
		p.Origin++
	}}
	if _, err := Measure(clk, tr, "srv", ntppkt.Version4, true); err == nil || !strings.Contains(err.Error(), "origin timestamp") {
		t.Errorf("err = %v, want the bogus-origin refusal", err)
	}
}

func TestMeasureClientFastSeesNegativeOffset(t *testing.T) {
	clk := &manualClock{t: epoch}
	tr := &scriptedTransport{
		upDelay: 5 * time.Millisecond, downDelay: 5 * time.Millisecond,
		serverAhead: -150 * time.Millisecond, clk: clk, // server behind = client fast
	}
	s, err := Measure(clk, tr, "srv", ntppkt.Version4, true)
	if err != nil {
		t.Fatal(err)
	}
	if d := s.Offset + 150*time.Millisecond; d < -time.Millisecond || d > time.Millisecond {
		t.Errorf("offset = %v, want ~-150ms", s.Offset)
	}
}

func TestTransportFuncAdapts(t *testing.T) {
	clk := &manualClock{t: epoch}
	inner := &scriptedTransport{
		upDelay: 10 * time.Millisecond, downDelay: 10 * time.Millisecond,
		serverAhead: 50 * time.Millisecond, clk: clk,
	}
	var calls int
	tr := TransportFunc(func(server string, req *ntppkt.Packet) (*ntppkt.Packet, time.Time, error) {
		calls++
		return inner.Exchange(server, req)
	})
	s, err := Measure(clk, tr, "srv", ntppkt.Version4, true)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("calls = %d, want 1", calls)
	}
	if s.Offset != 50*time.Millisecond {
		t.Errorf("offset = %v, want 50ms", s.Offset)
	}
}
