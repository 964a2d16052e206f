package netsim

import (
	"fmt"
	"math/rand"
	"time"

	"mntp/internal/clock"
	"mntp/internal/ntppkt"
	"mntp/internal/ntptime"
)

// Server is a simulated NTP stratum server. Its clock determines the
// timestamps it serves; a server whose clock error is large relative
// to its peers acts as the "false ticker" MNTP's warm-up phase must
// reject (§4.2).
type Server struct {
	Name    string
	Clock   clock.Clock
	Stratum uint8
	RefID   [4]byte
	Leap    ntppkt.Leap
	// ProcMin/ProcMax bound the uniform server processing time between
	// receive (T2) and transmit (T3).
	ProcMin, ProcMax time.Duration
	rng              *rand.Rand
}

// NewServer creates a simulated server with the given clock and
// stratum.
func NewServer(name string, clk clock.Clock, stratum uint8, seed int64) *Server {
	var refid [4]byte
	copy(refid[:], name)
	return &Server{
		Name:    name,
		Clock:   clk,
		Stratum: stratum,
		RefID:   refid,
		Leap:    ntppkt.LeapNone,
		ProcMin: 20 * time.Microsecond,
		ProcMax: 200 * time.Microsecond,
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// ProcessingDelay samples the server-side hold time for one request.
func (s *Server) ProcessingDelay() time.Duration {
	if s.ProcMax <= s.ProcMin {
		return s.ProcMin
	}
	return s.ProcMin + time.Duration(s.rng.Int63n(int64(s.ProcMax-s.ProcMin)))
}

// Respond overwrites rep (every field, so a caller may reuse one) with
// the server reply to req. recv and xmit are the server-clock readings
// at packet arrival and departure (T2, T3). Root delay and dispersion
// are zero: a simulated server is its own reference.
func (s *Server) Respond(rep, req *ntppkt.Packet, recv, xmit time.Time) {
	*rep = ntppkt.Packet{
		Leap:      s.Leap,
		Version:   req.Version,
		Mode:      ntppkt.ModeServer,
		Stratum:   s.Stratum,
		Poll:      req.Poll,
		Precision: -23,
		RefID:     s.RefID,
		RefTime:   ntptime.FromTime(recv.Add(-30 * time.Second)),
		Origin:    req.Transmit,
		Receive:   ntptime.FromTime(recv),
		Transmit:  ntptime.FromTime(xmit),
	}
}

// Pool is a collection of servers reachable under one name, modelling
// 0.pool.ntp.org: every lookup of the pool name yields a (seeded)
// random member, so consecutive requests go to different references —
// "every SNTP request to the pool server is randomly assigned to a new
// NTP time reference" (§3.2).
type Pool struct {
	Name    string
	Members []*Server
	rng     *rand.Rand
}

// NewPool creates a pool with the given members.
func NewPool(name string, members []*Server, seed int64) *Pool {
	return &Pool{Name: name, Members: members, rng: rand.New(rand.NewSource(seed))}
}

// pick draws the index of a random member.
func (p *Pool) pick() int { return p.rng.Intn(len(p.Members)) }

// Network wires names to servers/pools and paths, and implements the
// simulated Exchange. A Network belongs to one client host: the paths
// are the client's paths.
type Network struct {
	sched *Scheduler
	// routes has one entry per server and pool name, so that an
	// exchange looks its name up once.
	routes map[string]*route
	// Timeout is how long a client waits before declaring a request
	// lost. The default matches common SNTP client settings.
	Timeout time.Duration
	// Stats counters, observable by the harness.
	Sent, Lost int
}

// route is where a name leads: to a server over the client's path to
// it (nil: unreachable), or through a pool to the route of a member.
type route struct {
	srv     *Server
	path    PathModel
	pool    *Pool
	members []*route // of pool.Members, in order
}

// NewNetwork creates an empty network over the scheduler.
func NewNetwork(sched *Scheduler) *Network {
	return &Network{sched: sched, routes: make(map[string]*route), Timeout: 2 * time.Second}
}

// serverRoute returns the route of s's name, making s its server if
// the name is new.
func (n *Network) serverRoute(s *Server) *route {
	r := n.routes[s.Name]
	if r == nil {
		r = &route{srv: s}
		n.routes[s.Name] = r
	}
	return r
}

// AddServer registers a server with its path. A server added with a
// nil path (or only as a pool member) is unreachable: Exchange reports
// no path and a Ping is lost.
func (n *Network) AddServer(s *Server, path PathModel) {
	r := n.serverRoute(s)
	r.srv = s
	if path != nil {
		r.path = path
	}
}

// AddPool registers a pool name resolving to its members. Members must
// also be added as servers (AddServer) to receive paths.
func (n *Network) AddPool(p *Pool) {
	r := &route{pool: p}
	for _, m := range p.Members {
		r.members = append(r.members, n.serverRoute(m))
	}
	n.routes[p.Name] = r
}

// Resolve maps a name to a concrete server, picking a pool member if
// the name is a pool.
func (n *Network) Resolve(name string) (*Server, error) {
	srv, _, err := n.lookup(name)
	return srv, err
}

// lookup is Resolve that also returns the path to the server, if any.
func (n *Network) lookup(name string) (*Server, PathModel, error) {
	r := n.routes[name]
	if r == nil {
		return nil, nil, fmt.Errorf("netsim: unknown server %q", name)
	}
	if r.pool != nil {
		i := r.pool.pick()
		return r.pool.Members[i], r.members[i].path, nil
	}
	return r.srv, r.path, nil
}

// ErrTimeout is returned when a request or response is lost and the
// client timeout elapses.
type ErrTimeout struct{ Server string }

func (e *ErrTimeout) Error() string {
	return fmt.Sprintf("netsim: request to %s timed out", e.Server)
}

// Transport is the simulated client transport. It binds a Proc (whose
// virtual time advances during exchanges) and the client's clock
// (which stamps T4). It implements the exchange.Transport interface.
// Being bound to one Proc its calls are serial, so it owns the one
// reply packet it hands out.
type Transport struct {
	Net   *Network
	Proc  *Proc
	Clock clock.Clock

	reply ntppkt.Packet
}

// Exchange sends req to the named server (or pool) and blocks the
// process for the full round trip. It returns the reply and the
// client-clock receive time T4. Lost packets surface as *ErrTimeout
// after Network.Timeout of virtual time. The reply is the transport's
// own packet, overwritten by the next Exchange.
func (t *Transport) Exchange(server string, req *ntppkt.Packet) (*ntppkt.Packet, time.Time, error) {
	n := t.Net
	srv, path, err := n.lookup(server)
	if err != nil {
		return nil, time.Time{}, err
	}
	if path == nil {
		return nil, time.Time{}, fmt.Errorf("netsim: no path to %q", srv.Name)
	}
	n.Sent++

	up, upLost := path.SampleOneWay(t.Proc.Now(), Uplink)
	if upLost {
		n.Lost++
		t.Proc.Sleep(n.Timeout)
		return nil, time.Time{}, &ErrTimeout{Server: srv.Name}
	}
	t.Proc.Sleep(up)

	// Server receives now; T2 and T3 per the server clock.
	recv := srv.Clock.Now()
	proc := srv.ProcessingDelay()
	t.Proc.Sleep(proc)
	xmit := srv.Clock.Now()
	resp := &t.reply
	srv.Respond(resp, req, recv, xmit)

	down, downLost := path.SampleOneWay(t.Proc.Now(), Downlink)
	if downLost || up+proc+down > n.Timeout {
		// Lost on the way back, or the reply would arrive after the
		// client stopped waiting — either way the client times out.
		n.Lost++
		elapsed := up + proc
		if rem := n.Timeout - elapsed; rem > 0 {
			t.Proc.Sleep(rem)
		}
		return nil, time.Time{}, &ErrTimeout{Server: srv.Name}
	}
	t.Proc.Sleep(down)
	return resp, t.Clock.Now(), nil
}

// Ping measures a round trip to the named server without NTP
// semantics; the monitor node's feedback loop uses it. It returns the
// RTT and false, or 0 and true when the probe (either direction) was
// lost.
func (t *Transport) Ping(server string) (time.Duration, bool) {
	n := t.Net
	_, path, err := n.lookup(server)
	if err != nil || path == nil {
		// No route, as for an unknown name: Exchange reports an error,
		// a probe can only be lost.
		return 0, true
	}
	up, upLost := path.SampleOneWay(t.Proc.Now(), Uplink)
	if upLost {
		t.Proc.Sleep(n.Timeout)
		return 0, true
	}
	down, downLost := path.SampleOneWay(t.Proc.Now()+up, Downlink)
	if downLost {
		t.Proc.Sleep(n.Timeout)
		return 0, true
	}
	rtt := up + down
	t.Proc.Sleep(rtt)
	return rtt, false
}
