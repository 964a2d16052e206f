package ntske

import (
	"context"
	"crypto/tls"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mntp/internal/nts"
)

// connDeadline bounds one KE conversation; NTS-KE is a single
// request/response, so a slow peer is a stuck or hostile one.
const connDeadline = 10 * time.Second

// Server is an NTS-KE server: it terminates TLS with ALPN ntske/1,
// negotiates NTPv4 + AES-SIV-CMAC-256, exports the association keys
// from each connection's TLS secrets and hands out cookies minted by
// the shared key ring — the same ring the UDP serving path verifies
// against. All fields must be set before Listen.
type Server struct {
	// Ring seals the cookies; it must be the ring the NTP server
	// verifies with.
	Ring *nts.KeyRing
	// TLSConfig must carry the server certificate. ALPN and the TLS
	// 1.3 floor (required for key export) are enforced on a clone.
	TLSConfig *tls.Config
	// NTPHost, if non-empty, is advertised in a Server Negotiation
	// record; otherwise clients use the KE host.
	NTPHost string
	// NTPPort, if non-zero, is advertised in a Port Negotiation
	// record; otherwise clients use the default NTP port.
	NTPPort int
	// RotateEvery, if positive, rotates the key ring on a timer for
	// the lifetime of the server.
	RotateEvery time.Duration
	// StatePath and StateKey, if both set, checkpoint the key ring to
	// StatePath (sealed under StateKey, see nts.KeyRing.Save) after
	// every timed rotation, so a restarted server can restore the ring
	// and keep decrypting the fleet's outstanding cookies. Checkpoint
	// failures never stop serving; they are counted in
	// CheckpointErrors.
	StatePath string
	StateKey  []byte

	ln       net.Listener
	wg       sync.WaitGroup
	stopCh   chan struct{}
	cert     atomic.Pointer[tls.Certificate]
	ckptErrs atomic.Uint64

	mu     sync.Mutex
	closed bool
}

// Listen binds addr (":4460" style; empty selects the default port on
// all interfaces) and starts accepting KE connections in the
// background. It returns the bound address, useful with port 0.
func (s *Server) Listen(addr string) (net.Addr, error) {
	if s.Ring == nil {
		return nil, errors.New("ntske: Server.Ring is required")
	}
	if s.TLSConfig == nil || len(s.TLSConfig.Certificates) == 0 && s.TLSConfig.GetCertificate == nil {
		return nil, errors.New("ntske: Server.TLSConfig must carry a certificate")
	}
	if addr == "" {
		addr = ":" + strconv.Itoa(DefaultPort)
	}
	cfg := s.TLSConfig.Clone()
	cfg.NextProtos = []string{ALPN}
	if cfg.MinVersion < tls.VersionTLS13 {
		cfg.MinVersion = tls.VersionTLS13
	}
	if cfg.GetCertificate == nil && len(cfg.Certificates) > 0 {
		// Route certificate selection through the atomic holder so
		// SetCertificate can swap the serving cert under live
		// handshakes without touching the listener.
		first := cfg.Certificates[0]
		s.cert.Store(&first)
		cfg.Certificates = nil
		cfg.GetCertificate = func(*tls.ClientHelloInfo) (*tls.Certificate, error) {
			return s.cert.Load(), nil
		}
	}
	tcp, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.ln = tls.NewListener(tcp, cfg)
	s.stopCh = make(chan struct{})
	s.wg.Add(1)
	go s.acceptLoop()
	if s.RotateEvery > 0 {
		s.wg.Add(1)
		go s.rotateLoop()
	}
	return tcp.Addr(), nil
}

// SetCertificate atomically replaces the serving certificate: new
// handshakes use it immediately, connections mid-handshake finish
// under the certificate they started with, and the listener never
// drops. It is a no-op on a server whose TLSConfig supplied its own
// GetCertificate callback.
func (s *Server) SetCertificate(cert tls.Certificate) {
	if s.cert.Load() == nil {
		return
	}
	s.cert.Store(&cert)
}

// Checkpoint persists the key ring to StatePath now (see
// nts.KeyRing.Save); it is the explicit flush for shutdown paths,
// complementing the rotate loop's automatic checkpoints.
func (s *Server) Checkpoint() error {
	if s.StatePath == "" || s.StateKey == nil {
		return nil
	}
	return s.Ring.Save(s.StatePath, s.StateKey)
}

// CheckpointErrors returns the number of failed automatic ring
// checkpoints since Listen.
func (s *Server) CheckpointErrors() uint64 { return s.ckptErrs.Load() }

// Shutdown stops accepting new KE connections and waits for in-flight
// exchanges (each already bounded by the per-connection deadline) to
// finish. If ctx expires first it returns ctx.Err() without waiting
// further; the stragglers still terminate on their own deadlines.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stopCh)
	err := s.ln.Close()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	return err
}

// Close is Shutdown with no deadline: it waits for every exchange.
func (s *Server) Close() error { return s.Shutdown(context.Background()) }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.stopCh:
				return
			default:
			}
			// Transient accept errors (per-connection TLS failures
			// surface from the handshake, not here): back off briefly.
			time.Sleep(10 * time.Millisecond)
			continue
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
		}()
	}
}

func (s *Server) rotateLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.RotateEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-t.C:
			_ = s.Ring.Rotate()
			// Checkpoint after every rotation: the persisted state is
			// at most one epoch stale, and a restart from it still
			// decrypts every cookie within the retention window.
			if err := s.Checkpoint(); err != nil {
				s.ckptErrs.Add(1)
			}
		}
	}
}

func (s *Server) handleConn(conn net.Conn) {
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(connDeadline))
	tlsConn, ok := conn.(*tls.Conn)
	if !ok {
		return
	}
	if err := tlsConn.Handshake(); err != nil {
		return
	}
	recs, err := readMessage(tlsConn)
	if err != nil {
		s.writeError(tlsConn, errBadRequest)
		return
	}
	if code, ok := validateRequest(recs); !ok {
		s.writeError(tlsConn, code)
		return
	}

	c2s, s2c, err := exportKeys(tlsConn.ConnectionState(), nts.AEADAESSIVCMAC256)
	if err != nil {
		s.writeError(tlsConn, errInternalServer)
		return
	}

	var msg []byte
	msg = appendUint16Record(msg, recNextProtocol, true, protocolNTPv4)
	msg = appendUint16Record(msg, recAEADAlgorithm, true, nts.AEADAESSIVCMAC256)
	if s.NTPHost != "" {
		msg = appendRecord(msg, recServerNegotiat, true, []byte(s.NTPHost))
	}
	if s.NTPPort != 0 {
		msg = appendUint16Record(msg, recPortNegotiat, true, uint16(s.NTPPort))
	}
	for i := 0; i < nts.DefaultJarCapacity; i++ {
		cookie, err := s.Ring.SealCookie(nts.AEADAESSIVCMAC256, c2s, s2c)
		if err != nil {
			s.writeError(tlsConn, errInternalServer)
			return
		}
		msg = appendRecord(msg, recNewCookie, false, cookie)
	}
	msg = appendRecord(msg, recEndOfMessage, true, nil)
	_, _ = tlsConn.Write(msg)
}

func (s *Server) writeError(conn net.Conn, code uint16) {
	var msg []byte
	msg = appendUint16Record(msg, recError, true, code)
	msg = appendRecord(msg, recEndOfMessage, true, nil)
	_, _ = conn.Write(msg)
}

// validateRequest checks the client's records: NTPv4 must be offered,
// AES-SIV-CMAC-256 must be among the offered AEADs, and any
// unrecognized critical record aborts.
func validateRequest(recs []record) (errCode uint16, ok bool) {
	sawProto, sawAEAD := false, false
	for _, r := range recs {
		switch r.Type {
		case recNextProtocol:
			for b := r.Body; len(b) >= 2; b = b[2:] {
				if binary.BigEndian.Uint16(b) == protocolNTPv4 {
					sawProto = true
				}
			}
		case recAEADAlgorithm:
			for b := r.Body; len(b) >= 2; b = b[2:] {
				if binary.BigEndian.Uint16(b) == nts.AEADAESSIVCMAC256 {
					sawAEAD = true
				}
			}
		case recWarning, recServerNegotiat, recPortNegotiat:
			// Tolerated in requests; we ignore them.
		default:
			if r.Critical {
				return errUnrecognizedCritical, false
			}
		}
	}
	if !sawProto || !sawAEAD {
		return errBadRequest, false
	}
	return 0, true
}

// exportKeys derives the c2s and s2c association keys from the TLS
// exporter interface (RFC 8915 §4.3): label
// "EXPORTER-network-time-security", context protocol(2) || aead(2) ||
// direction(1).
func exportKeys(cs tls.ConnectionState, aeadID uint16) (c2s, s2c []byte, err error) {
	ctx := make([]byte, 5)
	binary.BigEndian.PutUint16(ctx[0:2], protocolNTPv4)
	binary.BigEndian.PutUint16(ctx[2:4], aeadID)
	ctx[4] = 0x00
	c2s, err = cs.ExportKeyingMaterial("EXPORTER-network-time-security", ctx, nts.SIVKeyLen)
	if err != nil {
		return nil, nil, fmt.Errorf("ntske: exporting c2s key: %w", err)
	}
	ctx[4] = 0x01
	s2c, err = cs.ExportKeyingMaterial("EXPORTER-network-time-security", ctx, nts.SIVKeyLen)
	if err != nil {
		return nil, nil, fmt.Errorf("ntske: exporting s2c key: %w", err)
	}
	return c2s, s2c, nil
}
