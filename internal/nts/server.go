package nts

import (
	"crypto/rand"
	"encoding/binary"
	"errors"

	"mntp/internal/ntppkt"
)

// MaxCookiesPerReply caps re-supply so a flood of placeholders cannot
// inflate replies into an amplification vector (RFC 8915 §5.7 requires
// replies to stay no larger than requests; each placeholder in the
// request pays for the cookie it buys back).
const MaxCookiesPerReply = 8

// ErrNotNTS is returned by VerifyRequest for packets that carry no
// NTS fields at all.
var ErrNotNTS = errors.New("nts: not an NTS-protected request")

// ServerRequest is a verified NTS request: everything the serving
// path needs to build the authenticated response, and the working
// memory both halves of that run in, the two association keys'
// schedules included. A serve loop keeps one and calls Verify on it
// for every request, so a steady-state request allocates nothing
// (except on the crypto/aes fallback, whose three key schedules the
// standard library returns by pointer). The exported fields and
// anything ProtectResponse puts into a reply alias that memory: they
// hold until the next Verify.
type ServerRequest struct {
	// UID is the client's unique identifier, echoed in the reply.
	UID []byte
	// AEAD, C2S, S2C are the association parameters recovered from
	// the request's cookie.
	AEAD uint16
	C2S  []byte
	S2C  []byte
	// NumCookies is how many fresh cookies the reply must carry: one
	// for the cookie consumed plus one per placeholder, capped at
	// MaxCookiesPerReply.
	NumCookies int

	scratch
	uid  [UniqueIDLen]byte   // backs UID unless the client sent a longer one
	keys [2 * SIVKeyLen]byte // backs C2S and S2C
	c2s  sivKey              // expanded by Verify for its own use
	s2c  sivKey              // expanded by Verify, used by Seal
	body []byte              // the reply's authenticator body
}

// IsNTSRequest reports whether the packet claims NTS protection —
// i.e. carries an NTS authenticator field. Packets for which this is
// true but VerifyRequest fails warrant an NTS NAK.
func IsNTSRequest(p *ntppkt.Packet) bool {
	_, idx := p.FindExt(ntppkt.ExtNTSAuthenticator)
	return idx >= 0
}

// VerifyRequest authenticates an NTS client request against the
// server's cookie key ring: decrypt the cookie to recover the
// association keys, then verify the authenticator over the packet
// image with the c2s key. Errors of any kind mean the request must
// not be answered with time; if IsNTSRequest holds, answer with an
// NTS NAK so the client re-runs key exchange.
func VerifyRequest(ring *KeyRing, p *ntppkt.Packet) (*ServerRequest, error) {
	sr := new(ServerRequest)
	if err := sr.Verify(ring, p); err != nil {
		return nil, err
	}
	return sr, nil
}

// Verify is VerifyRequest into sr, whatever it held before. After an
// error sr describes no request.
func (sr *ServerRequest) Verify(ring *KeyRing, p *ntppkt.Packet) error {
	_, authIdx := p.FindExt(ntppkt.ExtNTSAuthenticator)
	if authIdx < 0 {
		return ErrNotNTS
	}
	uidEF, uidIdx := p.FindExt(ntppkt.ExtUniqueIdentifier)
	if uidEF == nil || uidIdx > authIdx || len(uidEF.Value) < UniqueIDLen {
		return ErrBadExtField
	}
	cookieEF, cookieIdx := p.FindExt(ntppkt.ExtNTSCookie)
	if cookieEF == nil || cookieIdx > authIdx {
		return ErrBadExtField
	}
	aeadID, c2s, s2c, err := ring.openCookie(&sr.scratch, sr.cookie[:0], cookieEF.Value)
	if err != nil {
		return err
	}
	if aeadID != AEADAESSIVCMAC256 {
		return ErrBadExtField
	}
	nonce, ct, err := parseAuthenticator(p, authIdx)
	if err != nil {
		return err
	}
	sr.AEAD = aeadID
	sr.C2S = sr.keys[:SIVKeyLen]
	sr.S2C = sr.keys[SIVKeyLen:]
	copy(sr.C2S, c2s)
	copy(sr.S2C, s2c)
	// A request's authenticator normally encrypts nothing, and then
	// the CTR half of c2s is never needed.
	if err := sr.c2s.expand(sr.C2S, len(ct) == SIVOverhead); err != nil {
		return err
	}
	if err := openAuthenticator(&sr.c2s, &sr.scratch, p, authIdx, nonce, ct); err != nil {
		return err
	}
	if err := sr.s2c.expand(sr.S2C, false); err != nil {
		return err
	}
	sr.UID = append(sr.uid[:0], uidEF.Value...)

	sr.NumCookies = 1
	for i := 0; i < authIdx; i++ {
		if p.Ext[i].Type == ntppkt.ExtNTSCookiePlaceholder &&
			len(p.Ext[i].Value) >= CookieLen {
			sr.NumCookies++
		}
	}
	if sr.NumCookies > MaxCookiesPerReply {
		sr.NumCookies = MaxCookiesPerReply
	}
	return nil
}

// MintCookies does the part of ProtectResponse that does not depend
// on the reply: it mints NumCookies fresh cookies as the reply's
// encrypted extension fields and draws the authenticator's nonce, all
// from one random draw. A server calls it before stamping the reply's
// transmit time, so that only Seal stands between the stamp and the
// wire.
func (sr *ServerRequest) MintCookies(ring *KeyRing) error {
	rnd := sr.rnd[:sr.NumCookies*cookiePadLen+nonceLen]
	if _, err := rand.Read(rnd); err != nil {
		return err
	}
	sr.pt = sr.pt[:0]
	for i := 0; i < sr.NumCookies; i++ {
		sr.pt = binary.BigEndian.AppendUint16(sr.pt, ntppkt.ExtNTSCookie)
		sr.pt = binary.BigEndian.AppendUint16(sr.pt, ntppkt.ExtHeaderLen+CookieLen)
		sr.pt = ring.sealCookie(&sr.scratch, sr.pt, sr.AEAD, sr.C2S, sr.S2C, rnd[i*cookiePadLen:(i+1)*cookiePadLen])
	}
	sr.body = appendAuthenticatorNonce(sr.body[:0], len(sr.pt), rnd[len(rnd)-nonceLen:])
	return nil
}

// Seal completes ProtectResponse after MintCookies: echo the unique
// identifier, then seal the minted cookies (encrypted, so re-supply
// is unlinkable on the wire) under the s2c key. Must run after the
// header fields are final.
func (sr *ServerRequest) Seal(resp *ntppkt.Packet) {
	resp.Ext = append(resp.Ext, ntppkt.ExtField{
		Type:  ntppkt.ExtUniqueIdentifier,
		Value: sr.UID,
	})
	sr.ad = resp.Encode(sr.ad[:0])
	sr.body = sealAuthenticator(&sr.s2c, &sr.scratch, sr.body, sr.pt, sr.ad)
	resp.Ext = append(resp.Ext, ntppkt.ExtField{Type: ntppkt.ExtNTSAuthenticator, Value: sr.body})
}

// ProtectResponse turns a bare server reply into an authenticated NTS
// one for the request req verified: MintCookies, then Seal.
func ProtectResponse(ring *KeyRing, req *ServerRequest, resp *ntppkt.Packet) error {
	if err := req.MintCookies(ring); err != nil {
		return err
	}
	req.Seal(resp)
	return nil
}

// ProtectNAK decorates an NTS NAK reply (stratum 0, kiss code NTSN,
// already set by the caller) with the request's unique identifier so
// the client can match it, per RFC 8915 §5.7. NAKs carry no
// authenticator — the server may not know valid keys.
func ProtectNAK(uid []byte, resp *ntppkt.Packet) {
	if len(uid) > 0 {
		resp.Ext = append(resp.Ext, ntppkt.ExtField{
			Type:  ntppkt.ExtUniqueIdentifier,
			Value: uid,
		})
	}
}
