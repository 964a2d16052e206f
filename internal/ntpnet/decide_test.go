package ntpnet

import (
	"bytes"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mntp/internal/clock"
	"mntp/internal/ntppkt"
	"mntp/internal/ntptime"
	"mntp/internal/nts"
	"mntp/internal/overload"
)

// stepClock advances one millisecond per reading, so consecutive
// stamps are distinct and ordered without any real time passing.
type stepClock struct{ n atomic.Int64 }

func (c *stepClock) Now() time.Time {
	return time.Date(2016, 11, 14, 0, 0, 0, 0, time.UTC).Add(time.Duration(c.n.Add(1)) * time.Millisecond)
}

// forcedController returns a controller pinned in state st by a slow
// signal alone (no sojourn was ever observed, so ShedProb is ShedMin:
// every unestablished flow loses the Degraded coin toss).
func forcedController(st overload.State) *overload.Controller {
	c := overload.New(overload.Config{MaxInFlight: 1, ProbeEvery: 4, ShedMin: 1, RecoveryInterval: time.Hour})
	switch st {
	case overload.Degraded:
		c.Evaluate(time.Now(), overload.Signals{TableOccupancy: 1})
	case overload.Overloaded:
		c.Evaluate(time.Now(), overload.Signals{MaxShardInFlight: 1})
	}
	return c
}

var (
	srcA = net.IPv4(192, 0, 2, 1)
	srcB = net.IPv4(192, 0, 2, 2)
)

// plainRequest encodes a mode-3 request with a recognisable transmit
// stamp (the origin the reply must echo).
func plainRequest(version uint8, mode ntppkt.Mode) []byte {
	p := ntppkt.Packet{Version: version, Mode: mode, Poll: 6, Transmit: ntptime.Timestamp(0xdeadbeef<<32 | uint64(version))}
	return p.Encode(nil)
}

// ntsRequest encodes a request protected under a cookie from ring,
// returning the datagram and the unique identifier it carries.
func ntsRequest(t *testing.T, ring *nts.KeyRing) (pkt, uid []byte) {
	t.Helper()
	c2s, s2c := bytes.Repeat([]byte{0x11}, nts.SIVKeyLen), bytes.Repeat([]byte{0xee}, nts.SIVKeyLen)
	cookie, err := ring.SealCookie(nts.AEADAESSIVCMAC256, c2s, s2c)
	if err != nil {
		t.Fatalf("SealCookie: %v", err)
	}
	sess := &nts.Session{AEAD: nts.AEADAESSIVCMAC256, C2S: c2s, S2C: s2c}
	sess.AddCookies([][]byte{cookie})
	p := ntppkt.NewSNTPClient(ntppkt.Version4, ntptime.Timestamp(0xfeedface<<32))
	st, err := sess.ProtectRequest(p)
	if err != nil {
		t.Fatalf("ProtectRequest: %v", err)
	}
	return p.Encode(nil), st.UID
}

// TestDecide drives the whole request path — the policy "what does
// this server do with a datagram" — on servers that never bound a
// socket: a stepping clock, controller state forced through
// overload.Controller, the limiter installed directly. Each row is one
// datagram against a fresh server, decided twice: as one of the seven
// in eight that are not measured (timed off) and as the worker's sample
// (timed on). Timing must change nothing but verdict.crypto — same
// outcome, same reply — and off the tick crypto is zero.
func TestDecide(t *testing.T) {
	var timed bool // the pass the row is in; read by the rows' checks
	ring, err := nts.NewKeyRing(2)
	if err != nil {
		t.Fatal(err)
	}
	goodNTS, goodUID := ntsRequest(t, ring)
	forged, forgedUID := ntsRequest(t, ring)
	forged[len(forged)-1] ^= 0xff // corrupt the authenticator's ciphertext

	// isKiss: every kiss carries the code, echoes the origin and never
	// carries time.
	isKiss := func(code [4]byte) func(*testing.T, *ntppkt.Packet, *ntppkt.Packet, verdict) {
		return func(t *testing.T, req, resp *ntppkt.Packet, v verdict) {
			if resp.Stratum != ntppkt.StratumKoD || resp.RefID != code || resp.Mode != ntppkt.ModeServer {
				t.Errorf("reply stratum=%d refid=%q mode=%d, want a %q kiss", resp.Stratum, resp.RefID, resp.Mode, code)
			}
			if resp.Origin != req.Transmit {
				t.Errorf("kiss origin %v does not echo the request's transmit %v", resp.Origin, req.Transmit)
			}
			if resp.Receive != 0 || resp.Transmit != 0 || resp.RefTime != 0 {
				t.Errorf("kiss carries time: ref=%v recv=%v xmit=%v", resp.RefTime, resp.Receive, resp.Transmit)
			}
		}
	}
	isTime := func(version uint8) func(*testing.T, *ntppkt.Packet, *ntppkt.Packet, verdict) {
		return func(t *testing.T, req, resp *ntppkt.Packet, v verdict) {
			if resp.Version != version || resp.Mode != ntppkt.ModeServer || resp.Poll != req.Poll {
				t.Errorf("reply version=%d mode=%d poll=%d, want version %d, mode 4, poll %d", resp.Version, resp.Mode, resp.Poll, version, req.Poll)
			}
			if resp.Stratum != 5 {
				t.Errorf("stratum = %d, want the reloaded 5", resp.Stratum)
			}
			if resp.Origin != req.Transmit {
				t.Errorf("origin %v does not echo the request's transmit %v", resp.Origin, req.Transmit)
			}
			if resp.Receive != ntptime.FromTime(v.recv) || resp.Receive == 0 || resp.Receive > resp.Transmit {
				t.Errorf("receive %v (verdict %v), transmit %v: want receive = verdict's stamp, nonzero, ≤ transmit", resp.Receive, v.recv, resp.Transmit)
			}
		}
	}

	for _, tc := range []struct {
		name  string
		state overload.State
		limit int      // RateLimit; 0 = no limiter
		seen  []net.IP // sources that already hold rate-limit state
		nts   bool     // server holds the key ring
		skip  int      // datagrams decided (and early-dropped) before the row's
		pkt   []byte
		src   net.IP
		want  outcome
		hook  int32 // FaultHook calls the row's datagram must cause
		check func(t *testing.T, req, resp *ntppkt.Packet, v verdict)
	}{
		{name: "served v4", pkt: plainRequest(4, ntppkt.ModeClient), src: srcA, want: served, hook: 1, check: isTime(4)},
		{name: "version 3 answered as 3", pkt: plainRequest(3, ntppkt.ModeClient), src: srcA, want: served, hook: 1, check: isTime(3)},
		{name: "version 1 answered as 4", pkt: plainRequest(1, ntppkt.ModeClient), src: srcA, want: served, hook: 1, check: isTime(4)},
		{name: "version 7 answered as 4", pkt: plainRequest(7, ntppkt.ModeClient), src: srcA, want: served, hook: 1, check: isTime(4)},
		{name: "undecodable", pkt: make([]byte, 10), src: srcA, want: malformed, hook: 1},
		{name: "not mode 3", pkt: plainRequest(4, ntppkt.ModeServer), src: srcA, want: dropped, hook: 1},
		{name: "overloaded drops before parsing", state: overload.Overloaded, pkt: make([]byte, 10), src: srcA, want: shedDropped,
			check: func(t *testing.T, _, _ *ntppkt.Packet, v verdict) {
				if !v.recv.IsZero() {
					t.Errorf("early drop took a receive stamp (%v): it ran past admission", v.recv)
				}
			}},
		{name: "overloaded admits the probe", state: overload.Overloaded, skip: 3, pkt: plainRequest(4, ntppkt.ModeClient), src: srcA, want: served, hook: 1, check: isTime(4)},
		{name: "over the limit", limit: 1, seen: []net.IP{srcA}, pkt: plainRequest(4, ntppkt.ModeClient), src: srcA, want: limited, hook: 1, check: isKiss(ntppkt.KissRate)},
		{name: "under the limit", limit: 1, seen: []net.IP{srcA}, pkt: plainRequest(4, ntppkt.ModeClient), src: srcB, want: served, hook: 1, check: isTime(4)},
		{name: "degraded sheds an unknown flow", state: overload.Degraded, limit: 100, seen: []net.IP{srcA}, pkt: plainRequest(4, ntppkt.ModeClient), src: srcB, want: shed, hook: 1, check: isKiss(ntppkt.KissRate)},
		{name: "degraded sheds every flow without a table", state: overload.Degraded, pkt: plainRequest(4, ntppkt.ModeClient), src: srcA, want: shed, hook: 1, check: isKiss(ntppkt.KissRate)},
		{name: "degraded keeps an established flow", state: overload.Degraded, limit: 100, seen: []net.IP{srcA}, pkt: plainRequest(4, ntppkt.ModeClient), src: srcA, want: served, hook: 1, check: isTime(4)},
		{name: "degraded keeps a verified NTS request", state: overload.Degraded, limit: 100, nts: true, pkt: goodNTS, src: srcB, want: served, hook: 1,
			check: func(t *testing.T, req, resp *ntppkt.Packet, v verdict) {
				isTime(4)(t, req, resp, v)
				if !v.nts || (v.crypto > 0) != timed {
					t.Errorf("timed=%v: verdict nts=%v crypto=%v, want an NTS-served reply with AEAD time exactly when timed", timed, v.nts, v.crypto)
				}
				if uid, _ := resp.FindExt(ntppkt.ExtUniqueIdentifier); uid == nil || !bytes.Equal(uid.Value, goodUID) {
					t.Error("protected reply does not echo the unique identifier")
				}
				if _, i := resp.FindExt(ntppkt.ExtNTSAuthenticator); i < 0 {
					t.Error("protected reply carries no authenticator")
				}
			}},
		{name: "NTS request on a plain server is served plain", pkt: goodNTS, src: srcA, want: served, hook: 1,
			check: func(t *testing.T, req, resp *ntppkt.Packet, v verdict) {
				isTime(4)(t, req, resp, v)
				if v.nts || len(resp.Ext) != 0 {
					t.Errorf("verdict nts=%v, %d reply extension fields: want an unauthenticated reply", v.nts, len(resp.Ext))
				}
			}},
		{name: "bad authenticator", nts: true, pkt: forged, src: srcA, want: ntsNak, hook: 1,
			check: func(t *testing.T, req, resp *ntppkt.Packet, v verdict) {
				isKiss(ntppkt.KissNTSN)(t, req, resp, v)
				if uid, _ := resp.FindExt(ntppkt.ExtUniqueIdentifier); uid == nil || !bytes.Equal(uid.Value, forgedUID) {
					t.Error("NAK does not echo the request's unique identifier")
				}
				if _, i := resp.FindExt(ntppkt.ExtNTSAuthenticator); i >= 0 || len(resp.Ext) != 1 {
					t.Errorf("NAK carries %d extension fields (authenticator at %d), want the identifier alone", len(resp.Ext), i)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var outcomes [2]outcome
			var replies [2][]byte
			for pass := range outcomes {
				timed = pass == 1
				clk := new(stepClock)
				s := NewServer(clk, 2)
				s.Stratum = 5
				s.Reload()
				var hooked atomic.Int32
				s.FaultHook = func(int) { hooked.Add(1) }
				if tc.state != overload.Healthy {
					s.ctrl = forcedController(tc.state)
				}
				if tc.nts {
					s.NTS = ring
				}
				if tc.limit > 0 {
					lim := newRateLimiter(tc.limit, time.Minute, DefaultMaxClients)
					for _, ip := range tc.seen {
						lim.over(keyFromIP(ip), clk.Now())
					}
					s.limiter.Store(lim)
				}
				w := worker{timed: timed}
				req, resp := &w.req, &w.resp
				for i := 0; i < tc.skip; i++ {
					if v := s.decide(0, tc.pkt, tc.src, &w); v.outcome != shedDropped {
						t.Fatalf("datagram %d: outcome %d, want an early drop", i, v.outcome)
					}
				}
				if n := hooked.Load(); n != 0 {
					t.Fatalf("FaultHook ran %d times for early-dropped datagrams", n)
				}
				v := s.decide(0, tc.pkt, tc.src, &w)
				if v.outcome != tc.want {
					t.Fatalf("timed=%v: outcome = %d, want %d", timed, v.outcome, tc.want)
				}
				if n := hooked.Load(); n != tc.hook {
					t.Errorf("FaultHook ran %d times, want %d", n, tc.hook)
				}
				if !timed && v.crypto != 0 {
					t.Errorf("crypto = %v off the tick, want 0: a clock was read for a measurement nobody takes", v.crypto)
				}
				if tc.check != nil {
					tc.check(t, req, resp, v)
				}
				outcomes[pass] = v.outcome
				if v.outcome.replies() {
					replies[pass] = replyImage(resp)
				}
			}
			if outcomes[0] != outcomes[1] || !bytes.Equal(replies[0], replies[1]) {
				t.Errorf("timing changed the conclusion: outcome %d, reply %x untimed; outcome %d, reply %x timed",
					outcomes[0], replies[0], outcomes[1], replies[1])
			}
		})
	}
}

// replyImage is resp's wire image with what legitimately differs
// between two replies to one request blanked: the fields made of fresh
// randomness (re-supplied cookies, the authenticator's nonce and
// ciphertext) keep their length and lose their content. The stamps
// need no blanking: both passes read the stepping clock equally often.
func replyImage(resp *ntppkt.Packet) []byte {
	img := *resp
	img.Ext = append([]ntppkt.ExtField(nil), resp.Ext...)
	for i, ef := range img.Ext {
		if ef.Type == ntppkt.ExtNTSCookie || ef.Type == ntppkt.ExtNTSAuthenticator {
			img.Ext[i].Value = make([]byte, len(ef.Value))
		}
	}
	return img.Encode(nil)
}

// ntsAllocs is what one NTS request allocates: nothing on amd64, where
// internal/nts expands its AES keys in place with AES-NI, and elsewhere
// the three key schedules crypto/aes returns by pointer.
func ntsAllocs() float64 {
	if runtime.GOARCH == "amd64" {
		return 0
	}
	return 3
}

// TestDecideAllocations: a worker reuses everything it builds a reply
// in — the decoded request, the reply and its extension-field slice,
// the NTS state with its key schedules, the wire image — so a request
// allocates nothing, NTS or not (see ntsAllocs).
func TestDecideAllocations(t *testing.T) {
	ring, err := nts.NewKeyRing(2)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(&stepClock{}, 2)
	s.NTS = ring
	protected, _ := ntsRequest(t, ring)
	var w worker
	for _, tc := range []struct {
		name string
		pkt  []byte
		want float64
	}{
		{"nts", protected, ntsAllocs()},
		{"plain after nts", plainRequest(ntppkt.Version4, ntppkt.ModeClient), 0},
	} {
		serve := func() {
			if v := s.decide(0, tc.pkt, srcA, &w); v.outcome != served {
				t.Fatalf("%s: outcome %d, want served", tc.name, v.outcome)
			}
			w.out = w.resp.Encode(w.out[:0])
		}
		serve() // the first request sizes the buffers
		if got := testing.AllocsPerRun(100, serve); got > tc.want {
			t.Errorf("%s: %v allocations per request, want <= %v", tc.name, got, tc.want)
		}
	}
}

// TestOutcomeSnapshotFields: every outcome lands in its own named
// Snapshot field (TestDecide pins which outcome each conclusion is).
func TestOutcomeSnapshotFields(t *testing.T) {
	var m metrics
	for o := outcome(0); o < numOutcomes; o++ {
		m.n[o].Add(uint64(o) + 1)
	}
	s := m.snapshot()
	for _, f := range []struct {
		name string
		got  uint64
		o    outcome
	}{
		{"Served", s.Served, served}, {"Limited", s.Limited, limited}, {"Shed", s.Shed, shed},
		{"NTSNaks", s.NTSNaks, ntsNak}, {"ShedDropped", s.ShedDropped, shedDropped},
		{"Malformed", s.Malformed, malformed}, {"Dropped", s.Dropped, dropped},
		{"WriteErrors", s.WriteErrors, writeError},
	} {
		if f.got != uint64(f.o)+1 {
			t.Errorf("Snapshot.%s = %d, want outcome %d's count %d", f.name, f.got, f.o, f.o+1)
		}
	}
	if s.Panics != 0 || s.NTSServed != 0 || s.Restarts != 0 {
		t.Errorf("outcome counts leaked into panics=%d nts-served=%d restarts=%d", s.Panics, s.NTSServed, s.Restarts)
	}
}

// TestRefusedTrafficFeedsSojourn: the overload controller must see the
// queueing delay of every datagram, whatever its outcome. Over-limit
// traffic is exactly what fills the socket queue in a flood; when only
// served requests fed the 1-in-8 sampler, a source pinned at its limit
// left the controller blind.
func TestRefusedTrafficFeedsSojourn(t *testing.T) {
	srv := NewServer(clock.System{}, 2)
	srv.Workers = 1
	srv.RateLimit = 1
	srv.RateWindow = time.Minute
	srv.WatchdogInterval = -1
	srv.Overload = &overload.Config{Target: time.Minute} // never leaves Healthy
	srv.FaultHook = func(int) { time.Sleep(time.Millisecond) }
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.DialUDP("udp", nil, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const n = 64
	for i := 0; i < n; i++ {
		sendRequest(t, conn)
		if _, ok := readReply(t, conn, 2*time.Second); !ok {
			t.Fatalf("request %d: no reply", i)
		}
	}
	snap := finalSnapshot(srv)
	if snap.Served != 1 || snap.Limited != n-1 {
		t.Fatalf("served=%d limited=%d, want 1 and %d", snap.Served, snap.Limited, n-1)
	}
	if got := srv.OverloadStats().Sojourn; got <= 0 {
		t.Errorf("sojourn EWMA = %v after %d refused requests held 1ms each: the controller never saw them", got, n-1)
	}
}
