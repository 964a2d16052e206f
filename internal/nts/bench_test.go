package nts

import (
	"testing"

	"mntp/internal/ntppkt"
	"mntp/internal/ntptime"
)

// benchExchange captures one steady-state exchange — a full jar, so
// the request carries one cookie and no placeholders (232 B each way)
// — as the decoded packets the server and the client see.
type benchExchange struct {
	ring    *KeyRing
	sess    *Session
	st      *RequestState
	request ntppkt.Packet // as decoded by the server
	reply   ntppkt.Packet // as decoded by the client
}

func newBenchExchange(tb testing.TB) *benchExchange {
	tb.Helper()
	ring := testRing(tb, 3)
	x := &benchExchange{ring: ring, sess: newTestSession(tb, ring, DefaultJarCapacity)}
	var err error
	req := ntppkt.NewClient(ntppkt.Version4, ntptime.Timestamp(0x123456789abc0000))
	if x.st, err = x.sess.ProtectRequest(req); err != nil {
		tb.Fatalf("ProtectRequest: %v", err)
	}
	if err := x.request.DecodeInto(req.Encode(nil)); err != nil {
		tb.Fatalf("decode request: %v", err)
	}
	sreq, err := VerifyRequest(ring, &x.request)
	if err != nil {
		tb.Fatalf("VerifyRequest: %v", err)
	}
	resp := x.bareReply(nil)
	if err := ProtectResponse(ring, sreq, &resp); err != nil {
		tb.Fatalf("ProtectResponse: %v", err)
	}
	if err := x.reply.DecodeInto(resp.Encode(nil)); err != nil {
		tb.Fatalf("decode reply: %v", err)
	}
	if err := x.sess.VerifyReply(&x.reply, x.st); err != nil {
		tb.Fatalf("VerifyReply: %v", err)
	}
	return x
}

// bareReply is the reply before protection, built on ext's backing
// array the way a serve loop reuses its reply's.
func (x *benchExchange) bareReply(ext []ntppkt.ExtField) ntppkt.Packet {
	return ntppkt.Packet{
		Version: ntppkt.Version4, Mode: ntppkt.ModeServer, Stratum: 2,
		Origin: x.request.Transmit, Transmit: ntptime.Timestamp(0x1234567900000000),
		Ext: ext[:0],
	}
}

// serveOnce is the server's half as internal/ntpnet runs it: one
// ServerRequest and one reply packet, reused.
func (x *benchExchange) serveOnce(tb testing.TB, sr *ServerRequest, resp *ntppkt.Packet) {
	if err := sr.Verify(x.ring, &x.request); err != nil {
		tb.Fatalf("Verify: %v", err)
	}
	*resp = x.bareReply(resp.Ext)
	if err := ProtectResponse(x.ring, sr, resp); err != nil {
		tb.Fatalf("ProtectResponse: %v", err)
	}
}

// clientOnce is the client's half: protect a fresh request, then
// verify the captured reply as the answer to it.
func (x *benchExchange) clientOnce(tb testing.TB, req *ntppkt.Packet) {
	ext := req.Ext[:0]
	*req = *ntppkt.NewClient(ntppkt.Version4, x.request.Transmit)
	req.Ext = ext
	st, err := x.sess.ProtectRequest(req)
	if err != nil {
		tb.Fatalf("ProtectRequest: %v", err)
	}
	// The captured reply echoes the captured request's identifier.
	copy(st.UID, x.st.UID)
	if err := x.sess.VerifyReply(&x.reply, st); err != nil {
		tb.Fatalf("VerifyReply: %v", err)
	}
}

func BenchmarkVerifyRequest(b *testing.B) {
	x := newBenchExchange(b)
	var sr ServerRequest
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sr.Verify(x.ring, &x.request); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProtectResponse(b *testing.B) {
	x := newBenchExchange(b)
	var sr ServerRequest
	if err := sr.Verify(x.ring, &x.request); err != nil {
		b.Fatal(err)
	}
	var resp ntppkt.Packet
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp = x.bareReply(resp.Ext)
		if err := ProtectResponse(x.ring, &sr, &resp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionRoundTrip is one whole exchange: client protect,
// server verify and seal, client verify, with the wire in between.
func BenchmarkSessionRoundTrip(b *testing.B) {
	x := newBenchExchange(b)
	var (
		sr                 ServerRequest
		req, onWire, resp  ntppkt.Packet
		back               ntppkt.Packet
		reqWire, replyWire []byte
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ext := req.Ext[:0]
		req = *ntppkt.NewClient(ntppkt.Version4, ntptime.Timestamp(i+1)<<32)
		req.Ext = ext
		st, err := x.sess.ProtectRequest(&req)
		if err != nil {
			b.Fatal(err)
		}
		reqWire = req.Encode(reqWire[:0])
		if err := onWire.DecodeInto(reqWire); err != nil {
			b.Fatal(err)
		}
		if err := sr.Verify(x.ring, &onWire); err != nil {
			b.Fatal(err)
		}
		resp = x.bareReply(resp.Ext)
		if err := ProtectResponse(x.ring, &sr, &resp); err != nil {
			b.Fatal(err)
		}
		replyWire = resp.Encode(replyWire[:0])
		if err := back.DecodeInto(replyWire); err != nil {
			b.Fatal(err)
		}
		if err := x.sess.VerifyReply(&back, st); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSteadyStateAllocations pins what the expanded-key core is for.
// A serve loop that reuses its ServerRequest and reply allocates
// nothing: the key schedules are expanded in place (on the crypto/aes
// fallback, three schedules come back by pointer). A client pays four:
// the RequestState, the packet's extension-field slice, the
// authenticator body the packet keeps, and the jar's copy of the one
// re-supplied cookie.
func TestSteadyStateAllocations(t *testing.T) {
	forEachAESPath(t, func(t *testing.T) {
		x := newBenchExchange(t)
		var sr ServerRequest
		var resp ntppkt.Packet
		x.serveOnce(t, &sr, &resp) // first use sizes the reused buffers
		want := 0.0
		if !useAESNI {
			want = 3
		}
		if got := testing.AllocsPerRun(200, func() { x.serveOnce(t, &sr, &resp) }); got > want {
			t.Errorf("server verify + seal: %v allocations per request, want <= %v", got, want)
		}
	})
	if raceEnabled {
		return
	}
	x := newBenchExchange(t)
	client := func() {
		var req ntppkt.Packet // a fresh packet each time, as a client builds one
		x.clientOnce(t, &req)
	}
	if got := testing.AllocsPerRun(200, client); got > 4 {
		t.Errorf("client protect + verify: %v allocations per exchange, want <= 4", got)
	}
}
