package nts

import (
	"encoding/binary"
	"errors"

	"mntp/internal/ntppkt"
)

// uniqueIDLen is the body length of the Unique Identifier extension
// field: RFC 8915 §5.3 requires at least 32 octets of fresh
// randomness per request.
const uniqueIDLen = 32

// nonceLen is the AEAD nonce carried in the authenticator body. SIV
// tolerates any length; 16 keeps the body 4-aligned.
const nonceLen = 16

var (
	// errNoAuth is returned when a packet lacks the NTS authenticator
	// extension field (i.e. is not NTS-protected).
	errNoAuth = errors.New("nts: packet has no NTS authenticator field")
	// errBadExtField is returned for structurally invalid NTS
	// extension-field bodies.
	errBadExtField = errors.New("nts: malformed NTS extension field")
)

// appendAuthenticatorNonce starts the body of an NTS Authenticator and
// Encrypted Extension Fields EF at the end of dst with the part that
// does not depend on the packet: the two lengths and the nonceLen
// fresh random bytes of nonce.
//
// Body layout (RFC 8915 §5.6): nonceLen(2) || ctLen(2) || nonce || ct.
// With a 16-byte nonce and SIV's 16-byte tag the body stays 4-aligned
// whenever the plaintext is, so re-encoding is byte-exact.
func appendAuthenticatorNonce(dst []byte, plaintextLen int, nonce []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, nonceLen)
	dst = binary.BigEndian.AppendUint16(dst, uint16(sivOverhead+plaintextLen))
	return append(dst, nonce[:nonceLen]...)
}

// sealAuthenticator completes the body appendAuthenticatorNonce
// started: plaintext sealed under key. The associated data is ad — the
// wire image of everything that precedes the field, the 48-byte header
// plus every extension field, which is why the authenticator is always
// added last — and the nonce.
func sealAuthenticator(key *sivKey, sc *scratch, dst, plaintext, ad []byte) []byte {
	return key.seal(sc, dst, plaintext, ad, dst[len(dst)-nonceLen:])
}

// parseAuthenticator splits the body of the authenticator field at
// index authIdx of p.Ext into its nonce and sealed fields.
func parseAuthenticator(p *ntppkt.Packet, authIdx int) (nonce, ct []byte, err error) {
	if authIdx < 0 || authIdx >= len(p.Ext) {
		return nil, nil, errNoAuth
	}
	body := p.Ext[authIdx].Value
	if len(body) < 4 {
		return nil, nil, errBadExtField
	}
	nl := int(binary.BigEndian.Uint16(body[0:2]))
	cl := int(binary.BigEndian.Uint16(body[2:4]))
	if nl == 0 || 4+nl+cl > len(body) {
		return nil, nil, errBadExtField
	}
	return body[4 : 4+nl], body[4+nl : 4+nl+cl], nil
}

// openAuthenticator verifies the parsed authenticator at authIdx
// against key and leaves the decrypted inner plaintext in sc.pt. The associated data is rebuilt in sc.ad by
// re-encoding the header and the fields preceding the authenticator —
// exact because decode keeps field bodies verbatim.
func openAuthenticator(key *sivKey, sc *scratch, p *ntppkt.Packet, authIdx int, nonce, ct []byte) error {
	prefix := *p
	prefix.Ext = p.Ext[:authIdx]
	prefix.LegacyMAC = nil
	sc.ad = prefix.Encode(sc.ad[:0])
	var err error
	sc.pt, err = key.open(sc, sc.pt[:0], ct, sc.ad, nonce)
	return err
}

// nextInnerExt splits the first extension field off the decrypted
// contents of an authenticator: fields framed like the outer ones but
// without the RFC 7822 minimum-length rule.
func nextInnerExt(plain []byte) (typ uint16, body, rest []byte, err error) {
	if len(plain) < ntppkt.ExtHeaderLen {
		return 0, nil, nil, errBadExtField
	}
	l := int(binary.BigEndian.Uint16(plain[2:4]))
	if l < ntppkt.ExtHeaderLen || l%4 != 0 || l > len(plain) {
		return 0, nil, nil, errBadExtField
	}
	return binary.BigEndian.Uint16(plain[0:2]), plain[ntppkt.ExtHeaderLen:l], plain[l:], nil
}
