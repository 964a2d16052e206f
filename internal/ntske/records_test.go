package ntske

import (
	"bytes"
	"crypto/tls"
	"io"
	"testing"
	"time"

	"mntp/internal/nts"
)

// handshakeSeeds runs real NTS-KE exchanges against a loopback server
// and returns, in wire form, the request KeyExchange sends, the
// server's reply to it (its sealed cookies included) and the server's
// error reply to a request that offers no AEAD.
func handshakeSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	ring, err := nts.NewKeyRing(2)
	if err != nil {
		tb.Fatal(err)
	}
	addr, cfg := testKE(tb, ring, 11123)
	cfg.NextProtos = []string{alpn}
	cfg.MinVersion = tls.VersionTLS13
	exchange := func(req []byte) []byte {
		conn, err := tls.Dial("tcp", addr, cfg)
		if err != nil {
			tb.Fatal(err)
		}
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Write(req); err != nil {
			tb.Fatal(err)
		}
		reply, err := io.ReadAll(conn)
		if err != nil {
			tb.Fatal(err)
		}
		return reply
	}

	var req []byte
	req = appendUint16Record(req, recNextProtocol, true, protocolNTPv4)
	req = appendUint16Record(req, recAEADAlgorithm, true, nts.AEADAESSIVCMAC256)
	req = appendRecord(req, recEndOfMessage, true, nil)
	var noAEAD []byte
	noAEAD = appendUint16Record(noAEAD, recNextProtocol, true, protocolNTPv4)
	noAEAD = appendRecord(noAEAD, recEndOfMessage, true, nil)
	return [][]byte{req, exchange(req), exchange(noAEAD)}
}

// FuzzReadMessage: readMessage parses bytes from an unauthenticated
// peer before any other check, so on any input it must return without
// panicking, and a message it accepts must survive a round trip: its
// records, re-encoded through appendRecord and closed by End of
// Message, are exactly the bytes it consumed and parse back identical.
func FuzzReadMessage(f *testing.F) {
	seeds := handshakeSeeds(f)
	for _, s := range seeds {
		f.Add(s)
	}
	if recs, err := readMessage(bytes.NewReader(seeds[1])); err != nil || len(recs) <= nts.DefaultJarCapacity {
		f.Fatalf("the server's reply parses to %d records (%v), want protocol, AEAD and %d cookies", len(recs), err, nts.DefaultJarCapacity)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		recs, err := readMessage(r)
		if err != nil {
			return
		}
		var enc []byte
		for _, rec := range recs {
			enc = appendRecord(enc, rec.Type, rec.Critical, rec.Body)
		}
		enc = appendRecord(enc, recEndOfMessage, true, nil)
		if consumed := data[:len(data)-r.Len()]; !bytes.Equal(enc, consumed) {
			t.Fatalf("re-encoding of %d records is\n%x\nbut readMessage consumed\n%x", len(recs), enc, consumed)
		}
		again, err := readMessage(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded message rejected: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("re-encoded message has %d records, want %d", len(again), len(recs))
		}
		for i := range recs {
			a, b := recs[i], again[i]
			if a.Type != b.Type || a.Critical != b.Critical || !bytes.Equal(a.Body, b.Body) {
				t.Fatalf("record %d: parsed %+v, re-parsed %+v", i, a, b)
			}
		}
	})
}
