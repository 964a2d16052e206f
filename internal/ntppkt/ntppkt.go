// Package ntppkt implements the NTP packet wire format of RFC 5905 §7.3
// (shared by SNTP, RFC 4330). It provides encoding, decoding, field
// validation and the SNTP-style minimal client packet described in the
// MNTP paper (§2): "SNTP sets all fields in an NTP packet to zero except
// the first octet".
package ntppkt

import (
	"encoding/binary"
	"errors"
	"fmt"

	"mntp/internal/ntptime"
)

// HeaderLen is the length in bytes of an NTP packet without extensions
// or authentication.
const HeaderLen = 48

// Leap indicator values (RFC 5905 figure 9).
type Leap uint8

const (
	LeapNone    Leap = 0 // no warning
	LeapNotSync Leap = 3 // unknown (clock unsynchronized)
)

// Mode values (RFC 5905 figure 10).
type Mode uint8

const (
	ModeClient    Mode = 3
	ModeServer    Mode = 4
	ModeBroadcast Mode = 5
)

// Version numbers in current use.
const (
	Version3 = 3
	Version4 = 4
)

// Stratum values of note (RFC 5905 figure 11).
const (
	StratumKoD       = 0  // kiss-of-death / unspecified
	stratumMaxSecond = 15 // maximum valid secondary stratum
)

// Common kiss-of-death codes carried in the reference ID when stratum=0.
var (
	KissRate = [4]byte{'R', 'A', 'T', 'E'}
	// KissNTSN is the NTS NAK (RFC 8915 §5.7): the server could not
	// authenticate an NTS-protected request and the client must
	// re-run NTS-KE.
	KissNTSN = [4]byte{'N', 'T', 'S', 'N'}
)

// Extension-field framing constants (RFC 7822).
const (
	// ExtHeaderLen is the 4-byte type+length header of every
	// extension field.
	ExtHeaderLen = 4
	// minExtLen is the smallest legal extension-field length
	// (header included): RFC 7822 §3 requires at least 16 octets so
	// a field can never be confused with a legacy MAC.
	minExtLen = 16
	// minLastExtLen is the smallest trailer that is parsed as an
	// extension field rather than a legacy MAC: RFC 7822 resolves
	// the ambiguity by requiring the last extension field to be at
	// least 28 octets, since a MAC is at most 24.
	minLastExtLen = 28
	// maxExtFields bounds the parser: more fields than this in one
	// packet is rejected as malformed rather than looped over.
	maxExtFields = 32
)

// NTS extension-field types (RFC 8915 §7.6).
const (
	ExtUniqueIdentifier     uint16 = 0x0104
	ExtNTSCookie            uint16 = 0x0204
	ExtNTSCookiePlaceholder uint16 = 0x0304
	ExtNTSAuthenticator     uint16 = 0x0404
)

// ExtField is one extension field: the 16-bit type and the body bytes
// after the 4-byte header, exactly as they appear on the wire
// (including any padding the sender added). Keeping the body verbatim
// makes Encode∘DecodeInto the identity, which the NTS authenticator
// depends on: its associated data is the wire image of the header and
// every preceding field, reconstructed by re-encoding.
//
// Decoded Value slices alias the buffer passed to DecodeInto; callers
// that retain a Packet beyond the buffer's lifetime must copy.
type ExtField struct {
	Type  uint16
	Value []byte
}

// Packet is a decoded NTP packet header.
type Packet struct {
	Leap      Leap
	Version   uint8
	Mode      Mode
	Stratum   uint8
	Poll      int8 // log2 seconds
	Precision int8 // log2 seconds
	RootDelay ntptime.Short
	RootDisp  ntptime.Short
	RefID     [4]byte
	RefTime   ntptime.Timestamp // time the system clock was last set
	Origin    ntptime.Timestamp // T1: client transmit time, echoed
	Receive   ntptime.Timestamp // T2: server receive time
	Transmit  ntptime.Timestamp // T3: server transmit time

	// Ext holds the extension fields after the 48-byte header, in
	// wire order. Nil for a bare header.
	Ext []ExtField
	// LegacyMAC holds a trailing RFC 7822 legacy MAC verbatim: a
	// 4-byte crypto-NAK or a 20/24-byte keyid+digest. Nil when
	// absent. It is re-emitted unchanged by Encode.
	LegacyMAC []byte
}

// Errors returned by DecodeInto and Validate.
var (
	errShortPacket = errors.New("ntppkt: packet shorter than 48 bytes")
	// errExtTruncated: an extension field's declared length runs past
	// the end of the packet.
	errExtTruncated = errors.New("ntppkt: truncated extension field")
	// errExtLength: an extension field's declared length is below the
	// RFC 7822 minimum or not a multiple of 4.
	errExtLength = errors.New("ntppkt: bad extension-field length")
	// errExtCount: more than maxExtFields extension fields.
	errExtCount = errors.New("ntppkt: too many extension fields")
	// errTrailingBytes: bytes after the header that are neither valid
	// extension fields nor a legacy MAC. Before strict parsing these
	// were silently ignored, which let truncated or forged trailers
	// pass as clean packets.
	errTrailingBytes  = errors.New("ntppkt: trailing bytes are neither extension fields nor a MAC")
	errBadVersion     = errors.New("ntppkt: unsupported protocol version")
	errBadMode        = errors.New("ntppkt: unexpected mode")
	ErrKissOfDeath    = errors.New("ntppkt: kiss-of-death packet")
	errUnsynchronized = errors.New("ntppkt: server unsynchronized")
	errBogusOrigin    = errors.New("ntppkt: origin timestamp does not match request")
	errZeroTransmit   = errors.New("ntppkt: zero transmit timestamp")
)

// NewClient returns a full NTP client (mode 3) request packet with the
// given version and transmit timestamp. The remaining fields carry the
// client's notion of its own quality, as ntpd would populate them.
func NewClient(version uint8, transmit ntptime.Timestamp) *Packet {
	return &Packet{
		Leap:      LeapNone,
		Version:   version,
		Mode:      ModeClient,
		Precision: -20, // ~1 µs, typical for a software clock
		Transmit:  transmit,
	}
}

// NewSNTPClient returns a minimal SNTP client request: all fields zero
// except the first octet (LI=0/unknown, VN, mode 3) and the transmit
// timestamp, which the client needs echoed back as the origin for T1.
// RFC 4330 permits (and common mobile implementations use) exactly this
// shape; the zeroed stratum/poll/precision/root fields are what the log
// analyzer in internal/ntplog keys on to classify a client as SNTP.
func NewSNTPClient(version uint8, transmit ntptime.Timestamp) *Packet {
	return &Packet{
		Leap:     LeapNotSync,
		Version:  version,
		Mode:     ModeClient,
		Transmit: transmit,
	}
}

// Encode appends the wire representation of p — the 48-byte header,
// any extension fields and any legacy MAC — to dst and returns the
// extended slice. Pass nil to allocate. Extension-field bodies are
// zero-padded up to 4-byte alignment and to the RFC 7822 minimum
// length; a Packet produced by DecodeInto re-encodes byte-identically
// because DecodeInto keeps the padding inside Value.
func (p *Packet) Encode(dst []byte) []byte {
	var b [HeaderLen]byte
	b[0] = byte(p.Leap)<<6 | (p.Version&0x7)<<3 | byte(p.Mode)&0x7
	b[1] = p.Stratum
	b[2] = byte(p.Poll)
	b[3] = byte(p.Precision)
	binary.BigEndian.PutUint32(b[4:], uint32(p.RootDelay))
	binary.BigEndian.PutUint32(b[8:], uint32(p.RootDisp))
	copy(b[12:16], p.RefID[:])
	binary.BigEndian.PutUint64(b[16:], uint64(p.RefTime))
	binary.BigEndian.PutUint64(b[24:], uint64(p.Origin))
	binary.BigEndian.PutUint64(b[32:], uint64(p.Receive))
	binary.BigEndian.PutUint64(b[40:], uint64(p.Transmit))
	dst = append(dst, b[:]...)
	for i := range p.Ext {
		dst = appendExt(dst, &p.Ext[i])
	}
	return append(dst, p.LegacyMAC...)
}

// appendExt appends one extension field with RFC 7822 framing: the
// declared length covers the 4-byte header, the body and the zero
// padding that brings the field to 4-byte alignment and minExtLen.
func appendExt(dst []byte, ef *ExtField) []byte {
	l := ExtHeaderLen + len(ef.Value)
	if l < minExtLen {
		l = minExtLen
	}
	if rem := l % 4; rem != 0 {
		l += 4 - rem
	}
	var hdr [ExtHeaderLen]byte
	binary.BigEndian.PutUint16(hdr[0:], ef.Type)
	binary.BigEndian.PutUint16(hdr[2:], uint16(l))
	dst = append(dst, hdr[:]...)
	dst = append(dst, ef.Value...)
	for pad := l - ExtHeaderLen - len(ef.Value); pad > 0; pad-- {
		dst = append(dst, 0)
	}
	return dst
}

// DecodeInto parses src — header, extension fields and legacy MAC —
// into p, reusing p's extension-field slice. Extension-field bodies
// alias src — copy them if src is reused. Validation is strict per
// RFC 7822: a declared field length below minExtLen, unaligned, or
// running past the end of the packet is rejected, as is any trailer
// that is neither well-formed extension fields nor a MAC.
func (p *Packet) DecodeInto(src []byte) error {
	if len(src) < HeaderLen {
		return errShortPacket
	}
	p.Leap = Leap(src[0] >> 6)
	p.Version = (src[0] >> 3) & 0x7
	p.Mode = Mode(src[0] & 0x7)
	p.Stratum = src[1]
	p.Poll = int8(src[2])
	p.Precision = int8(src[3])
	p.RootDelay = ntptime.Short(binary.BigEndian.Uint32(src[4:]))
	p.RootDisp = ntptime.Short(binary.BigEndian.Uint32(src[8:]))
	copy(p.RefID[:], src[12:16])
	p.RefTime = ntptime.Timestamp(binary.BigEndian.Uint64(src[16:]))
	p.Origin = ntptime.Timestamp(binary.BigEndian.Uint64(src[24:]))
	p.Receive = ntptime.Timestamp(binary.BigEndian.Uint64(src[32:]))
	p.Transmit = ntptime.Timestamp(binary.BigEndian.Uint64(src[40:]))
	p.Ext = p.Ext[:0]
	p.LegacyMAC = nil
	rest := src[HeaderLen:]
	// A trailer shorter than minLastExtLen can only be a MAC
	// (RFC 7822 §3's disambiguation rule), so the loop parses
	// extension fields only while at least that much remains.
	for len(rest) >= minLastExtLen {
		l := int(binary.BigEndian.Uint16(rest[2:]))
		if l < minExtLen || l%4 != 0 {
			return errExtLength
		}
		if l > len(rest) {
			return errExtTruncated
		}
		if len(p.Ext) == maxExtFields {
			return errExtCount
		}
		p.Ext = append(p.Ext, ExtField{
			Type:  binary.BigEndian.Uint16(rest[0:]),
			Value: rest[ExtHeaderLen:l],
		})
		rest = rest[l:]
	}
	switch len(rest) {
	case 0:
	case 4, 20, 24: // crypto-NAK, MD5 or SHA-1 keyid+digest
		p.LegacyMAC = rest
	default:
		return errTrailingBytes
	}
	return nil
}

// FindExt returns the first extension field of the given type and its
// index in p.Ext, or a nil field and -1.
func (p *Packet) FindExt(typ uint16) (*ExtField, int) {
	for i := range p.Ext {
		if p.Ext[i].Type == typ {
			return &p.Ext[i], i
		}
	}
	return nil, -1
}

// ValidateServerReply applies the sanity checks an SNTP client must run
// on a server reply (RFC 4330 §5): version, mode, kiss-of-death,
// synchronization state, non-zero transmit time and origin echo.
// origin is the transmit timestamp the client sent (T1).
func (p *Packet) ValidateServerReply(origin ntptime.Timestamp) error {
	if p.Version != Version3 && p.Version != Version4 {
		return fmt.Errorf("%w: %d", errBadVersion, p.Version)
	}
	if p.Mode != ModeServer && p.Mode != ModeBroadcast {
		return fmt.Errorf("%w: %d", errBadMode, p.Mode)
	}
	if p.Stratum == StratumKoD {
		return fmt.Errorf("%w: %q", ErrKissOfDeath, string(p.RefID[:]))
	}
	if p.Stratum > stratumMaxSecond {
		return errUnsynchronized
	}
	if p.Leap == LeapNotSync {
		return errUnsynchronized
	}
	if p.Transmit.IsZero() {
		return errZeroTransmit
	}
	if p.Origin != origin {
		return errBogusOrigin
	}
	return nil
}

// KissCode returns the ASCII kiss code carried in the reference ID
// when the packet is a server-mode kiss-of-death reply (stratum 0),
// and false otherwise. Load generators and monitoring use it to
// classify RATE/DENY replies without running the full client
// validation path.
func (p *Packet) KissCode() (string, bool) {
	if p.Mode != ModeServer || p.Stratum != StratumKoD {
		return "", false
	}
	return string(p.RefID[:]), true
}

// IsSNTPRequest reports whether a mode-3 request exhibits the minimal
// SNTP shape: zeroed stratum, poll, precision, root delay/dispersion
// and reference fields. Full ntpd clients populate poll and precision.
// This is the wire-observable heuristic the §3.1 log study uses to
// separate SNTP from NTP clients.
func (p *Packet) IsSNTPRequest() bool {
	return p.Mode == ModeClient &&
		p.Stratum == 0 && p.Poll == 0 && p.Precision == 0 &&
		p.RootDelay == 0 && p.RootDisp == 0 &&
		p.RefID == [4]byte{} && p.RefTime.IsZero()
}

// String renders a compact one-line summary for logs.
func (p *Packet) String() string {
	return fmt.Sprintf("ntp{v%d mode=%d stratum=%d leap=%d poll=%d prec=%d}",
		p.Version, p.Mode, p.Stratum, p.Leap, p.Poll, p.Precision)
}
