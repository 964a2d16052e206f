// Package ntske implements the NTS Key Establishment protocol of
// RFC 8915 §4: a TLS 1.3 session with ALPN "ntske/1" over which
// client and server negotiate the AEAD algorithm, export the
// association keys from the TLS master secret, and transfer the
// initial supply of cookies. The output of one exchange is an
// nts.Session ready to protect NTP packets.
//
// The package also provides the client-side exchange.Transport
// decorator that makes any existing transport NTS-authenticated, and
// a self-signed certificate helper for tests and loopback serving.
package ntske

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// NTS-KE record types (RFC 8915 §4.1). The high bit of the type word
// marks the record critical: an unrecognized critical record aborts
// the exchange.
const (
	recEndOfMessage   uint16 = 0
	recNextProtocol   uint16 = 1
	recError          uint16 = 2
	recWarning        uint16 = 3
	recAEADAlgorithm  uint16 = 4
	recNewCookie      uint16 = 5
	recServerNegotiat uint16 = 6
	recPortNegotiat   uint16 = 7

	criticalBit uint16 = 0x8000
)

// NTS-KE error codes (RFC 8915 §4.1.3).
const (
	errUnrecognizedCritical uint16 = 0
	errBadRequest           uint16 = 1
	errInternalServer       uint16 = 2
)

// protocolNTPv4 is the only Next Protocol value defined (RFC 8915).
const protocolNTPv4 uint16 = 0

// DefaultPort is the IANA-assigned NTS-KE port.
const DefaultPort = 4460

// alpn is the application protocol identifier NTS-KE requires.
const alpn = "ntske/1"

// maxRecordBody bounds a single record; cookies are ~100 bytes and
// server names are short, so anything larger is an attack or a bug.
const maxRecordBody = 4096

// maxRecords bounds one message.
const maxRecords = 128

var errRecordTooLong = errors.New("ntske: record body exceeds limit")

// record is one NTS-KE type-length-value record, critical bit
// stripped from Type.
type record struct {
	Type     uint16
	Critical bool
	Body     []byte
}

func appendRecord(dst []byte, typ uint16, critical bool, body []byte) []byte {
	if critical {
		typ |= criticalBit
	}
	dst = binary.BigEndian.AppendUint16(dst, typ)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(body)))
	return append(dst, body...)
}

func appendUint16Record(dst []byte, typ uint16, critical bool, v uint16) []byte {
	var body [2]byte
	binary.BigEndian.PutUint16(body[:], v)
	return appendRecord(dst, typ, critical, body[:])
}

// readMessage reads records from r until End of Message. It enforces
// the size bounds but leaves semantic validation to the caller.
func readMessage(r io.Reader) ([]record, error) {
	var out []record
	var hdr [4]byte
	for {
		if len(out) == maxRecords {
			return nil, errors.New("ntske: too many records in message")
		}
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil, fmt.Errorf("ntske: reading record header: %w", err)
		}
		typ := binary.BigEndian.Uint16(hdr[0:2])
		bodyLen := int(binary.BigEndian.Uint16(hdr[2:4]))
		if bodyLen > maxRecordBody {
			return nil, errRecordTooLong
		}
		rec := record{
			Type:     typ &^ criticalBit,
			Critical: typ&criticalBit != 0,
			Body:     make([]byte, bodyLen),
		}
		if _, err := io.ReadFull(r, rec.Body); err != nil {
			return nil, fmt.Errorf("ntske: reading record body: %w", err)
		}
		if rec.Type == recEndOfMessage {
			if bodyLen != 0 || !rec.Critical {
				return nil, errors.New("ntske: malformed end-of-message record")
			}
			return out, nil
		}
		out = append(out, rec)
	}
}
