package ntske

import (
	"crypto/tls"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strconv"
	"time"

	"mntp/internal/nts"
)

// DefaultNTPPort is used when the server sends no Port Negotiation
// record.
const DefaultNTPPort = 123

// KeyExchange runs one NTS-KE exchange against keAddr (host or
// host:port; the port defaults to 4460) and returns a ready client
// session: negotiated AEAD, exported keys, initial cookie jar, and
// the NTP endpoint to use. tlsCfg may be nil for system roots; ALPN
// and the TLS 1.3 floor are set on a clone.
func KeyExchange(keAddr string, tlsCfg *tls.Config, timeout time.Duration) (*nts.Session, error) {
	host, port, err := net.SplitHostPort(keAddr)
	if err != nil {
		host, port = keAddr, strconv.Itoa(DefaultPort)
	}
	if timeout <= 0 {
		timeout = connDeadline
	}
	if tlsCfg == nil {
		tlsCfg = &tls.Config{}
	}
	cfg := tlsCfg.Clone()
	cfg.NextProtos = []string{alpn}
	if cfg.MinVersion < tls.VersionTLS13 {
		cfg.MinVersion = tls.VersionTLS13
	}
	if cfg.ServerName == "" {
		cfg.ServerName = host
	}

	dialer := &net.Dialer{Timeout: timeout}
	conn, err := tls.DialWithDialer(dialer, "tcp", net.JoinHostPort(host, port), cfg)
	if err != nil {
		return nil, fmt.Errorf("ntske: dialing %s: %w", keAddr, err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(timeout))
	if proto := conn.ConnectionState().NegotiatedProtocol; proto != alpn {
		return nil, fmt.Errorf("ntske: server negotiated ALPN %q, want %q", proto, alpn)
	}

	var msg []byte
	msg = appendUint16Record(msg, recNextProtocol, true, protocolNTPv4)
	msg = appendUint16Record(msg, recAEADAlgorithm, true, nts.AEADAESSIVCMAC256)
	msg = appendRecord(msg, recEndOfMessage, true, nil)
	if _, err := conn.Write(msg); err != nil {
		return nil, fmt.Errorf("ntske: writing request: %w", err)
	}

	recs, err := readMessage(conn)
	if err != nil {
		return nil, err
	}
	ntpHost, ntpPort := host, DefaultNTPPort
	var cookies [][]byte
	protoOK, aeadOK := false, false
	for _, r := range recs {
		switch r.Type {
		case recError:
			if len(r.Body) >= 2 {
				return nil, fmt.Errorf("ntske: server error code %d", binary.BigEndian.Uint16(r.Body))
			}
			return nil, errors.New("ntske: server error")
		case recWarning:
			// Non-fatal by definition; ignore.
		case recNextProtocol:
			protoOK = len(r.Body) >= 2 && binary.BigEndian.Uint16(r.Body) == protocolNTPv4
		case recAEADAlgorithm:
			aeadOK = len(r.Body) >= 2 && binary.BigEndian.Uint16(r.Body) == nts.AEADAESSIVCMAC256
		case recNewCookie:
			cookies = append(cookies, r.Body)
		case recServerNegotiat:
			if len(r.Body) > 0 {
				ntpHost = string(r.Body)
			}
		case recPortNegotiat:
			if len(r.Body) >= 2 {
				ntpPort = int(binary.BigEndian.Uint16(r.Body))
			}
		default:
			if r.Critical {
				return nil, fmt.Errorf("ntske: unrecognized critical record type %d", r.Type)
			}
		}
	}
	if !protoOK || !aeadOK {
		return nil, errors.New("ntske: server did not confirm NTPv4 + AES-SIV-CMAC-256")
	}
	if len(cookies) == 0 {
		return nil, errors.New("ntske: server sent no cookies")
	}

	c2s, s2c, err := exportKeys(conn.ConnectionState(), nts.AEADAESSIVCMAC256)
	if err != nil {
		return nil, err
	}
	sess := &nts.Session{
		NTPServer: net.JoinHostPort(ntpHost, strconv.Itoa(ntpPort)),
		AEAD:      nts.AEADAESSIVCMAC256,
		C2S:       c2s,
		S2C:       s2c,
	}
	sess.AddCookies(cookies)
	return sess, nil
}
