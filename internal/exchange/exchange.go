// Package exchange defines the transport abstraction shared by every
// synchronization client in this repository (SNTP, full NTP and MNTP)
// and the four-timestamp offset/delay computation of RFC 5905 §8.
//
// The same client code runs over the simulated network
// (netsim.Transport) and real UDP (ntpnet.Client) because both satisfy
// Transport.
package exchange

import (
	"sync"
	"time"

	"mntp/internal/clock"
	"mntp/internal/ntppkt"
	"mntp/internal/ntptime"
)

// Transport performs one NTP request/response exchange with the named
// server. It returns the reply packet and the client-clock time at
// which the reply was received (T4). The caller stamps req.Transmit
// (T1) before the call.
//
// Nothing may keep req once Exchange has returned, and the reply is
// valid until the next Exchange on the same transport: copy to keep it.
type Transport interface {
	Exchange(server string, req *ntppkt.Packet) (resp *ntppkt.Packet, t4 time.Time, err error)
}

// TransportFunc adapts a function to Transport, the way
// http.HandlerFunc adapts handlers. Tests and transport decorators
// (counting, fault injection) use it to wrap an inner transport
// without declaring a type.
type TransportFunc func(server string, req *ntppkt.Packet) (*ntppkt.Packet, time.Time, error)

// Exchange implements Transport.
func (f TransportFunc) Exchange(server string, req *ntppkt.Packet) (*ntppkt.Packet, time.Time, error) {
	return f(server, req)
}

// Sample is one completed measurement: the four timestamps and the
// derived clock offset θ and round-trip delay δ.
//
//	θ = ((T2 − T1) + (T3 − T4)) / 2
//	δ = (T4 − T1) − (T3 − T2)
//
// Offset is how far the server's clock is ahead of the client's: a
// client that is fast measures a negative offset.
type Sample struct {
	Server string
	// T1 and T4 are client-clock times (request transmit, reply
	// receive); T2 and T3 are the server-clock wire timestamps.
	T1, T4 time.Time
	T2, T3 ntptime.Timestamp
	Offset time.Duration
	Delay  time.Duration
	// Stratum and RootDelay/RootDisp describe the server's quality,
	// used by the full NTP client's selection machinery.
	Stratum             uint8
	RootDelay, RootDisp time.Duration
	// When is the client-clock time the sample was completed (== T4);
	// kept separate for clarity in filter bookkeeping.
	When time.Time
}

// requests recycles Measure's request packets, which cross an interface
// call and so cannot live on the stack. A Measure abandoned by its
// caller keeps its packet until its Exchange comes back.
var requests = sync.Pool{New: func() any { return new(ntppkt.Packet) }}

// Measure performs one exchange with the server using the client's
// clock for T1/T4 and returns the computed Sample. If simple is true a
// minimal SNTP-shaped request is sent, otherwise a full NTP client
// request. The reply is validated per RFC 4330 before computation;
// the Sample holds copies of what it needs from it.
func Measure(clk clock.Clock, tr Transport, server string, version uint8, simple bool) (Sample, error) {
	t1 := clk.Now()
	t1ts := ntptime.FromTime(t1)
	req := requests.Get().(*ntppkt.Packet)
	defer requests.Put(req)
	if simple {
		*req = *ntppkt.NewSNTPClient(version, t1ts)
	} else {
		*req = *ntppkt.NewClient(version, t1ts)
	}
	resp, t4, err := tr.Exchange(server, req)
	if err != nil {
		return Sample{}, err
	}
	if err := resp.ValidateServerReply(t1ts); err != nil {
		return Sample{}, err
	}
	t4ts := ntptime.FromTime(t4)
	offset := (resp.Receive.Sub(t1ts) + resp.Transmit.Sub(t4ts)) / 2
	delay := t4ts.Sub(t1ts) - resp.Transmit.Sub(resp.Receive)
	if delay < 0 {
		// Guard against pathological asymmetry/rounding; RFC 4330
		// floors the delay at zero for subsequent arithmetic.
		delay = 0
	}
	return Sample{
		Server: server,
		T1:     t1, T4: t4,
		T2: resp.Receive, T3: resp.Transmit,
		Offset:    offset,
		Delay:     delay,
		Stratum:   resp.Stratum,
		RootDelay: resp.RootDelay.Duration(),
		RootDisp:  resp.RootDisp.Duration(),
		When:      t4,
	}, nil
}
