package nts

import (
	"bytes"
	"crypto/rand"
	"errors"
	"slices"
	"sync"

	"mntp/internal/ntppkt"
)

// DefaultJarCapacity is the cookie-jar size a client aims to hold:
// RFC 8915 §5.7 recommends eight so one cookie per poll survives
// seven consecutive losses before the jar runs dry.
const DefaultJarCapacity = 8

var (
	// ErrNTSNak is returned by VerifyReply when the server answered
	// with an NTS NAK kiss code: it could not authenticate the
	// request (rotated-out cookie, corrupted field) and the client
	// must re-run NTS-KE to obtain fresh keys and cookies.
	ErrNTSNak = errors.New("nts: server sent NTS NAK, key exchange must be re-run")
	// ErrJarEmpty is returned by ProtectRequest when no cookies
	// remain and reuse is not permitted.
	ErrJarEmpty = errors.New("nts: cookie jar empty")
	// errUniqueIDMismatch is returned when a reply's unique
	// identifier does not echo the request's.
	errUniqueIDMismatch = errors.New("nts: reply unique identifier does not match request")
	// errReplyUnauthenticated is returned for replies lacking a valid
	// authenticator over the s2c key.
	errReplyUnauthenticated = errors.New("nts: reply not authenticated")
)

// Session holds the client half of an NTS association: the keys and
// cookie jar produced by one NTS-KE run. Safe for concurrent use.
type Session struct {
	// NTPServer is the NTP (not KE) endpoint negotiated for this
	// association, in host:port form.
	NTPServer string
	// AEAD is the negotiated algorithm (AEADAESSIVCMAC256).
	AEAD uint16
	// C2S and S2C are the exported association keys.
	C2S, S2C []byte
	// ReuseWhenDry lets ProtectRequest reuse the last cookie instead
	// of failing when the jar empties. Cookie reuse links requests
	// observably, so this is only for load generation — never for a
	// real client, which should re-run KE instead.
	ReuseWhenDry bool

	mu      sync.Mutex
	cookies [][]byte
	last    []byte

	expand   sync.Once // C2S and S2C are expanded once per association
	c2s, s2c *sivKey
	keyErr   error
}

// RequestState carries what VerifyReply needs to match and verify the
// reply to one protected request.
type RequestState struct {
	UID []byte
	uid [uniqueIDLen]byte
}

// keys returns the association keys, expanded on first use.
func (s *Session) keys() (c2s, s2c *sivKey, err error) {
	s.expand.Do(func() {
		if s.c2s, s.keyErr = newSIVKey(s.C2S); s.keyErr == nil {
			s.s2c, s.keyErr = newSIVKey(s.S2C)
		}
	})
	return s.c2s, s.s2c, s.keyErr
}

// AddCookies appends cookies to the jar, discarding overflow beyond
// DefaultJarCapacity.
func (s *Session) AddCookies(cookies [][]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range cookies {
		s.add(c)
	}
}

// add copies c into the jar unless the jar is full. s.mu must be held.
func (s *Session) add(c []byte) {
	if len(s.cookies) < DefaultJarCapacity {
		s.cookies = append(s.cookies, bytes.Clone(c))
	}
}

// CookieCount reports how many cookies remain in the jar.
func (s *Session) CookieCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cookies)
}

// ProtectRequest turns a bare client packet into an NTS-protected one:
// unique identifier, one cookie from the jar, enough placeholders
// that the server's re-supply refills the jar to capacity, and the
// authenticator over all of it. Must be called after the header
// fields (including Transmit) are final.
func (s *Session) ProtectRequest(p *ntppkt.Packet) (*RequestState, error) {
	c2s, _, err := s.keys()
	if err != nil {
		return nil, err
	}
	st := new(RequestState)
	st.UID = st.uid[:]
	if _, err := rand.Read(st.UID); err != nil {
		return nil, err
	}

	s.mu.Lock()
	var cookie []byte
	if len(s.cookies) > 0 {
		cookie = s.cookies[0]
		s.cookies = s.cookies[:copy(s.cookies, s.cookies[1:])]
		s.last = cookie
	} else if s.ReuseWhenDry && s.last != nil {
		cookie = s.last
	}
	placeholders := DefaultJarCapacity - 1 - len(s.cookies)
	s.mu.Unlock()
	if cookie == nil {
		return nil, ErrJarEmpty
	}
	if placeholders < 0 {
		placeholders = 0
	}

	p.Ext = slices.Grow(p.Ext, 3+placeholders)
	p.Ext = append(p.Ext, ntppkt.ExtField{Type: ntppkt.ExtUniqueIdentifier, Value: st.UID})
	p.Ext = append(p.Ext, ntppkt.ExtField{Type: ntppkt.ExtNTSCookie, Value: cookie})
	if placeholders > 0 {
		// Placeholder bodies are all-zero and only ever read, so the
		// fields of one request share one.
		zeros := make([]byte, len(cookie))
		for i := 0; i < placeholders; i++ {
			p.Ext = append(p.Ext, ntppkt.ExtField{Type: ntppkt.ExtNTSCookiePlaceholder, Value: zeros})
		}
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	nonce := sc.rnd[:nonceLen]
	if _, err := rand.Read(nonce); err != nil {
		return nil, err
	}
	sc.ad = p.Encode(sc.ad[:0])
	// The body outlives the call inside p, so it is the packet's own.
	body := appendAuthenticatorNonce(make([]byte, 0, 4+nonceLen+sivOverhead), 0, nonce)
	body = sealAuthenticator(c2s, sc, body, nil, sc.ad)
	p.Ext = append(p.Ext, ntppkt.ExtField{Type: ntppkt.ExtNTSAuthenticator, Value: body})
	return st, nil
}

// VerifyReply authenticates a server reply against the request state:
// the unique identifier must echo the request's, the authenticator
// must verify under the s2c key, and any encrypted cookies inside are
// harvested into the jar. An NTS NAK kiss code maps to ErrNTSNak.
func (s *Session) VerifyReply(p *ntppkt.Packet, st *RequestState) error {
	if code, ok := p.KissCode(); ok && code == string(ntppkt.KissNTSN[:]) {
		return ErrNTSNak
	}
	uidEF, _ := p.FindExt(ntppkt.ExtUniqueIdentifier)
	if uidEF == nil || !bytes.Equal(uidEF.Value, st.UID) {
		return errUniqueIDMismatch
	}
	_, authIdx := p.FindExt(ntppkt.ExtNTSAuthenticator)
	if authIdx < 0 {
		return errReplyUnauthenticated
	}
	_, s2c, err := s.keys()
	if err != nil {
		return err
	}
	nonce, ct, err := parseAuthenticator(p, authIdx)
	if err != nil {
		return errReplyUnauthenticated
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	if err := openAuthenticator(s2c, sc, p, authIdx, nonce, ct); err != nil {
		return errReplyUnauthenticated
	}
	// All inner fields must parse before any cookie is accepted.
	for rest := sc.pt; len(rest) > 0; {
		if _, _, rest, err = nextInnerExt(rest); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for rest := sc.pt; len(rest) > 0; {
		var typ uint16
		var body []byte
		typ, body, rest, _ = nextInnerExt(rest)
		if typ == ntppkt.ExtNTSCookie && len(body) > 0 {
			s.add(body)
		}
	}
	return nil
}
