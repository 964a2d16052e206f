package pcap

import (
	"bytes"
	"encoding/binary"
	"io"
	"net/netip"
	"testing"
	"testing/quick"
	"time"
)

func TestFileRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2016, 11, 14, 12, 0, 0, 123456000, time.UTC)
	packets := [][]byte{
		{0x45, 1, 2, 3},
		{0x60, 9, 8},
		make([]byte, 300),
	}
	for i, p := range packets {
		if err := w.WritePacket(base.Add(time.Duration(i)*time.Second), p); err != nil {
			t.Fatal(err)
		}
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.LinkType != linkTypeRaw {
		t.Errorf("link type = %d", r.LinkType)
	}
	for i := range packets {
		pkt, err := r.ReadPacket()
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		want := base.Add(time.Duration(i) * time.Second)
		if !pkt.Timestamp.Equal(want) {
			t.Errorf("packet %d ts = %v, want %v", i, pkt.Timestamp, want)
		}
		if !bytes.Equal(pkt.Data, packets[i]) {
			t.Errorf("packet %d data mismatch", i)
		}
		if pkt.OrigLen != len(packets[i]) {
			t.Errorf("packet %d origlen = %d", i, pkt.OrigLen)
		}
	}
	if _, err := r.ReadPacket(); err != io.EOF {
		t.Errorf("end err = %v, want EOF", err)
	}
}

func TestReaderRejectsBadMagic(t *testing.T) {
	bad := make([]byte, 24)
	if _, err := NewReader(bytes.NewReader(bad)); err != errBadMagic {
		t.Errorf("err = %v", err)
	}
}

func TestReaderRejectsShortHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Error("short header accepted")
	}
}

func TestReaderRejectsWrongLinkType(t *testing.T) {
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint32(hdr[0:], 0xa1b2c3d4)
	binary.LittleEndian.PutUint32(hdr[20:], 1) // EN10MB
	if _, err := NewReader(bytes.NewReader(hdr)); err == nil {
		t.Error("wrong link type accepted")
	}
}

func TestUDPRoundTripIPv4(t *testing.T) {
	d := UDPDatagram{
		Src:     netip.MustParseAddr("10.3.7.9"),
		Dst:     netip.MustParseAddr("192.0.2.1"),
		SrcPort: 45000, DstPort: 123,
		Payload: []byte("ntp-payload-here"),
	}
	raw, err := EncodeUDP(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeUDP(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Src != d.Src || got.Dst != d.Dst ||
		got.SrcPort != d.SrcPort || got.DstPort != d.DstPort ||
		!bytes.Equal(got.Payload, d.Payload) {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

func TestUDPRoundTripIPv6(t *testing.T) {
	d := UDPDatagram{
		Src:     netip.MustParseAddr("2001:db8::1"),
		Dst:     netip.MustParseAddr("2001:db8::123"),
		SrcPort: 50123, DstPort: 123,
		Payload: make([]byte, 48),
	}
	raw, err := EncodeUDP(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeUDP(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Src != d.Src || got.Dst != d.Dst || len(got.Payload) != 48 {
		t.Errorf("v6 round trip mismatch: %+v", got)
	}
}

func TestEncodeRejectsMixedFamilies(t *testing.T) {
	d := UDPDatagram{
		Src: netip.MustParseAddr("10.0.0.1"),
		Dst: netip.MustParseAddr("2001:db8::1"),
	}
	if _, err := EncodeUDP(d); err == nil {
		t.Error("mixed families accepted")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x45},          // truncated v4
		{0x60, 0, 0, 0}, // truncated v6
		{0x15, 0, 0, 0}, // version 1
		append([]byte{0x45, 0, 0, 20, 0, 0, 0, 0, 64, 6}, make([]byte, 10)...), // TCP
	}
	for i, c := range cases {
		if _, err := DecodeUDP(c); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestIPv4ChecksumValid(t *testing.T) {
	d := UDPDatagram{
		Src:     netip.MustParseAddr("10.1.2.3"),
		Dst:     netip.MustParseAddr("10.4.5.6"),
		SrcPort: 1, DstPort: 2, Payload: []byte{1},
	}
	raw, err := EncodeUDP(d)
	if err != nil {
		t.Fatal(err)
	}
	// Verify: summing the full header including the stored checksum
	// must produce 0xffff.
	var sum uint32
	for i := 0; i+1 < ipv4HeaderLen; i += 2 {
		sum += uint32(binary.BigEndian.Uint16(raw[i:]))
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	if sum != 0xffff {
		t.Errorf("header checksum invalid: folded sum %#x", sum)
	}
}

// Property: Encode→Decode is the identity for random payloads/ports.
func TestQuickUDPRoundTrip(t *testing.T) {
	f := func(a, b [4]byte, sp, dp uint16, payload []byte) bool {
		d := UDPDatagram{
			Src: netip.AddrFrom4(a), Dst: netip.AddrFrom4(b),
			SrcPort: sp, DstPort: dp, Payload: payload,
		}
		if len(payload) > 60000 {
			return true
		}
		raw, err := EncodeUDP(d)
		if err != nil {
			return false
		}
		got, err := DecodeUDP(raw)
		if err != nil {
			return false
		}
		return got.Src == d.Src && got.Dst == d.Dst &&
			got.SrcPort == sp && got.DstPort == dp &&
			bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
