package ntppkt

import (
	"bytes"
	"testing"
)

// FuzzDecode checks that arbitrary byte strings never panic the
// decoder and that anything that decodes — header, extension fields
// and legacy MAC included — re-encodes to the identical byte string.
// The seeds cover the existing wire-format corpus (bare headers,
// runts, garbage trailers) plus extension-field and MAC shapes.
func FuzzDecode(f *testing.F) {
	f.Add(make([]byte, HeaderLen))
	f.Add(samplePacket().Encode(nil))
	f.Add([]byte{0xe3})
	f.Add(append(samplePacket().Encode(nil), 0xde, 0xad))
	ext := samplePacket()
	ext.Ext = []ExtField{
		{Type: ExtUniqueIdentifier, Value: bytes.Repeat([]byte{0x11}, 32)},
		{Type: ExtNTSCookie, Value: bytes.Repeat([]byte{0x22}, 104)},
		{Type: ExtNTSAuthenticator, Value: bytes.Repeat([]byte{0x33}, 36)},
	}
	f.Add(ext.Encode(nil))
	f.Add(append(samplePacket().Encode(nil), bytes.Repeat([]byte{0x44}, 20)...)) // legacy MAC
	f.Add(append(samplePacket().Encode(nil), 0x01, 0x04, 0x00, 0x08))            // undersized EF length
	f.Add(append(samplePacket().Encode(nil), 0x01, 0x04, 0xff, 0xfc))            // overlength EF
	f.Fuzz(func(t *testing.T, data []byte) {
		p := new(Packet)
		err := p.DecodeInto(data)
		if err != nil {
			if len(data) == HeaderLen {
				t.Fatalf("bare 48-byte header failed to decode: %v", err)
			}
			return
		}
		out := p.Encode(nil)
		if !bytes.Equal(out, data) {
			t.Fatalf("re-encode mismatch:\n in  %x\n out %x", data, out)
		}
		// Decoding the re-encode must be stable (no don't-care bits
		// anywhere in the accepted wire image).
		q := new(Packet)
		err = q.DecodeInto(out)
		if err != nil {
			t.Fatalf("re-encoded packet failed to decode: %v", err)
		}
		if again := q.Encode(nil); !bytes.Equal(again, out) {
			t.Fatalf("second re-encode differs")
		}
	})
}
