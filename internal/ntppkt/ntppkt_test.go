package ntppkt

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"mntp/internal/ntptime"
)

func samplePacket() *Packet {
	return &Packet{
		Leap:      LeapNone,
		Version:   Version4,
		Mode:      ModeServer,
		Stratum:   2,
		Poll:      6,
		Precision: -23,
		RootDelay: ntptime.DurationToShort(30 * time.Millisecond),
		RootDisp:  ntptime.DurationToShort(5 * time.Millisecond),
		RefID:     [4]byte{192, 0, 2, 1},
		RefTime:   ntptime.FromTime(time.Date(2016, 11, 14, 9, 0, 0, 0, time.UTC)),
		Origin:    ntptime.FromTime(time.Date(2016, 11, 14, 9, 0, 1, 0, time.UTC)),
		Receive:   ntptime.FromTime(time.Date(2016, 11, 14, 9, 0, 1, 50000000, time.UTC)),
		Transmit:  ntptime.FromTime(time.Date(2016, 11, 14, 9, 0, 1, 50100000, time.UTC)),
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	want := samplePacket()
	wire := want.Encode(nil)
	if len(wire) != HeaderLen {
		t.Fatalf("encoded length = %d, want %d", len(wire), HeaderLen)
	}
	got := new(Packet)
	err := got.DecodeInto(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestEncodeFirstOctet(t *testing.T) {
	p := &Packet{Leap: LeapNotSync, Version: Version4, Mode: ModeClient}
	wire := p.Encode(nil)
	// LI=3 (11), VN=4 (100), mode=3 (011) -> 0b11100011 = 0xe3.
	if wire[0] != 0xe3 {
		t.Errorf("first octet = %#x, want 0xe3", wire[0])
	}
}

func TestDecodeShortPacket(t *testing.T) {
	if err := new(Packet).DecodeInto(make([]byte, 47)); err != errShortPacket {
		t.Errorf("err = %v, want ErrShortPacket", err)
	}
}

// Regression for the silent-trailer bug: decoding used to ignore all
// bytes past the header, so truncated extension fields and arbitrary
// forged trailers decoded as clean packets. Strict parsing rejects
// anything that is neither a well-formed extension field nor a legacy
// MAC.
func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	base := samplePacket().Encode(nil)
	cases := []struct {
		name    string
		trailer []byte
		want    error
	}{
		{"8 garbage bytes", []byte{1, 2, 3, 4, 5, 6, 7, 8}, errTrailingBytes},
		{"truncated EF header", []byte{0x01, 0x04, 0x00}, errTrailingBytes},
		{"EF length past end", append([]byte{0x01, 0x04, 0x00, 0x40}, make([]byte, 28)...), errExtTruncated},
		{"EF length below minimum", append([]byte{0x01, 0x04, 0x00, 0x08}, make([]byte, 28)...), errExtLength},
		{"EF length unaligned", append([]byte{0x01, 0x04, 0x00, 0x12}, make([]byte, 28)...), errExtLength},
		{"16-byte trailer is not a MAC", make([]byte, 16), errTrailingBytes},
	}
	for _, c := range cases {
		if err := new(Packet).DecodeInto(append(append([]byte{}, base...), c.trailer...)); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

func TestDecodeExtensionFields(t *testing.T) {
	p := samplePacket()
	p.Ext = []ExtField{
		{Type: ExtUniqueIdentifier, Value: bytes.Repeat([]byte{0xAB}, 32)},
		{Type: ExtNTSCookie, Value: bytes.Repeat([]byte{0xCD}, 104)},
	}
	wire := p.Encode(nil)
	got := new(Packet)
	err := got.DecodeInto(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Ext) != 2 ||
		got.Ext[0].Type != ExtUniqueIdentifier || !bytes.Equal(got.Ext[0].Value, p.Ext[0].Value) ||
		got.Ext[1].Type != ExtNTSCookie || !bytes.Equal(got.Ext[1].Value, p.Ext[1].Value) {
		t.Fatalf("extension fields did not round-trip: %+v", got.Ext)
	}
	if out := got.Encode(nil); !bytes.Equal(out, wire) {
		t.Fatalf("re-encode differs:\n in  %x\n out %x", wire, out)
	}
	if ef, i := got.FindExt(ExtNTSCookie); i != 1 || ef == nil {
		t.Fatalf("FindExt(cookie) = %v, %d", ef, i)
	}
	if ef, i := got.FindExt(ExtNTSAuthenticator); i != -1 || ef != nil {
		t.Fatalf("FindExt(absent) = %v, %d", ef, i)
	}
}

// A short extension-field body is padded up to the RFC 7822 minimum
// of 16 octets on encode, and the padding survives a round trip
// inside Value so the re-encode is byte-identical.
func TestEncodePadsShortExtension(t *testing.T) {
	p := samplePacket()
	// 28-byte minimum trailer rule means a lone 16-byte EF cannot be
	// parsed back (it reads as a MAC-sized trailer), so a second,
	// large field keeps the packet parseable.
	p.Ext = []ExtField{
		{Type: 0x0042, Value: []byte{1, 2, 3}},
		{Type: 0x0043, Value: make([]byte, 28)},
	}
	wire := p.Encode(nil)
	got := new(Packet)
	err := got.DecodeInto(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Ext[0].Value) != minExtLen-ExtHeaderLen {
		t.Fatalf("padded body length = %d, want %d", len(got.Ext[0].Value), minExtLen-ExtHeaderLen)
	}
	if out := got.Encode(nil); !bytes.Equal(out, wire) {
		t.Fatalf("re-encode differs after padding round trip")
	}
}

func TestDecodeLegacyMAC(t *testing.T) {
	for _, n := range []int{4, 20, 24} {
		wire := samplePacket().Encode(nil)
		mac := bytes.Repeat([]byte{0x5A}, n)
		wire = append(wire, mac...)
		got := new(Packet)
		err := got.DecodeInto(wire)
		if err != nil {
			t.Fatalf("MAC length %d rejected: %v", n, err)
		}
		if !bytes.Equal(got.LegacyMAC, mac) {
			t.Fatalf("MAC length %d not captured", n)
		}
		if out := got.Encode(nil); !bytes.Equal(out, wire) {
			t.Fatalf("MAC length %d: re-encode differs", n)
		}
	}
}

func TestDecodeExtensionThenMAC(t *testing.T) {
	p := samplePacket()
	p.Ext = []ExtField{{Type: 0x0042, Value: make([]byte, 28)}}
	wire := p.Encode(nil)
	wire = append(wire, bytes.Repeat([]byte{9}, 20)...)
	got := new(Packet)
	err := got.DecodeInto(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Ext) != 1 || len(got.LegacyMAC) != 20 {
		t.Fatalf("ext=%d mac=%d, want 1 and 20", len(got.Ext), len(got.LegacyMAC))
	}
}

func TestDecodeTooManyExtensions(t *testing.T) {
	p := samplePacket()
	for i := 0; i <= maxExtFields; i++ {
		p.Ext = append(p.Ext, ExtField{Type: 0x0042, Value: make([]byte, 28)})
	}
	if err := new(Packet).DecodeInto(p.Encode(nil)); !errors.Is(err, errExtCount) {
		t.Fatalf("err = %v, want ErrExtCount", err)
	}
}

func TestSNTPClientShape(t *testing.T) {
	tx := ntptime.FromTime(time.Date(2016, 11, 14, 9, 0, 0, 0, time.UTC))
	p := NewSNTPClient(Version4, tx)
	wire := p.Encode(nil)
	// Everything except the first octet and the transmit timestamp must
	// be zero (the paper's description of SNTP packets, §2).
	if !bytes.Equal(wire[1:40], make([]byte, 39)) {
		t.Errorf("SNTP client packet has non-zero middle bytes: %x", wire[1:40])
	}
	dec := new(Packet)
	err := dec.DecodeInto(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.IsSNTPRequest() {
		t.Error("minimal SNTP request not classified as SNTP")
	}
	if dec.Transmit != tx {
		t.Error("transmit timestamp lost")
	}
}

func TestFullClientNotClassifiedSNTP(t *testing.T) {
	p := NewClient(Version4, ntptime.FromTime(time.Now()))
	p.Poll = 6
	if p.IsSNTPRequest() {
		t.Error("full NTP client misclassified as SNTP")
	}
}

func TestValidateServerReply(t *testing.T) {
	origin := ntptime.FromTime(time.Date(2016, 11, 14, 9, 0, 0, 0, time.UTC))
	good := func() *Packet {
		p := samplePacket()
		p.Origin = origin
		return p
	}

	if err := good().ValidateServerReply(origin); err != nil {
		t.Errorf("valid reply rejected: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*Packet)
		want   error
	}{
		{"bad version", func(p *Packet) { p.Version = 2 }, errBadVersion},
		{"bad mode", func(p *Packet) { p.Mode = ModeClient }, errBadMode},
		{"kiss of death", func(p *Packet) { p.Stratum = 0; p.RefID = KissRate }, ErrKissOfDeath},
		{"high stratum", func(p *Packet) { p.Stratum = 16 }, errUnsynchronized},
		{"leap not sync", func(p *Packet) { p.Leap = LeapNotSync }, errUnsynchronized},
		{"zero transmit", func(p *Packet) { p.Transmit = 0 }, errZeroTransmit},
		{"bogus origin", func(p *Packet) { p.Origin = origin + 1 }, errBogusOrigin},
	}
	for _, c := range cases {
		p := good()
		c.mutate(p)
		err := p.ValidateServerReply(origin)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !errorsIs(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

func errorsIs(err, target error) bool {
	for err != nil {
		if err == target {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// Property: any 48-byte buffer decodes, re-encodes to the same bytes
// except the reserved high version bit patterns, and field extraction
// is consistent.
func TestQuickWireRoundTrip(t *testing.T) {
	f := func(raw [HeaderLen]byte) bool {
		p := new(Packet)
		err := p.DecodeInto(raw[:])
		if err != nil {
			return false
		}
		out := p.Encode(nil)
		return bytes.Equal(out, raw[:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: struct -> wire -> struct is the identity for all field
// values representable on the wire.
func TestQuickStructRoundTrip(t *testing.T) {
	f := func(leap, mode uint8, stratum uint8, poll, prec int8,
		rd, rdisp uint32, refid [4]byte, rt, or, rx, tx uint64) bool {
		want := Packet{
			Leap: Leap(leap % 4), Version: Version4, Mode: Mode(mode % 8),
			Stratum: stratum, Poll: poll, Precision: prec,
			RootDelay: ntptime.Short(rd), RootDisp: ntptime.Short(rdisp),
			RefID:   refid,
			RefTime: ntptime.Timestamp(rt), Origin: ntptime.Timestamp(or),
			Receive: ntptime.Timestamp(rx), Transmit: ntptime.Timestamp(tx),
		}
		var got Packet
		if err := got.DecodeInto(want.Encode(nil)); err != nil {
			return false
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncode(b *testing.B) {
	p := samplePacket()
	buf := make([]byte, 0, HeaderLen)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = p.Encode(buf[:0])
	}
}

func BenchmarkDecode(b *testing.B) {
	wire := samplePacket().Encode(nil)
	var p Packet
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := p.DecodeInto(wire); err != nil {
			b.Fatal(err)
		}
	}
}
