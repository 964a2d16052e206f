package population

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mntp/internal/ntppkt"
	"mntp/internal/ntptime"
)

// VClock is an atomically advanced virtual clock implementing
// clock.Clock. In ModeUDP the real server runs with a VClock as its
// Clock, so its rate-limit windows follow population virtual time (a
// 10k-client day compresses into seconds of wall time) while its
// overload sojourn signal — kernel receive timestamps — stays real.
type VClock struct {
	epoch time.Time
	ns    atomic.Int64
}

// NewVClock returns a virtual clock anchored at epoch.
func NewVClock(epoch time.Time) *VClock { return &VClock{epoch: epoch} }

// Now returns the current virtual instant.
func (v *VClock) Now() time.Time { return v.epoch.Add(time.Duration(v.ns.Load())) }

// Advance moves the clock to d past the epoch. The engine only moves
// it forward.
func (v *VClock) Advance(d time.Duration) { v.ns.Store(int64(d)) }

// UDP exchange results, written by workers into fleet.res (one slot
// per client; the batch WaitGroup publishes them to the engine).
const (
	resNone = iota
	resOK
	resRate
	resFail
)

// realBinWidth buckets real (wall) time for the dark-interval metric:
// the flash-crowd scenario asserts the server never goes a run of
// these bins without answering anyone while traffic is in flight.
const realBinWidth = 100 * time.Millisecond

const numRealBins = 4096

// udpPool is the bounded worker side of ModeUDP: one connected
// loopback socket per worker (so every worker shares the 127.0.0.1
// source IP — one rate-limit key for the whole population), one
// outstanding request per worker at a time.
type udpPool struct {
	conns   []*net.UDPConn
	timeout time.Duration
	started bool
	start   time.Time
	realOk  [numRealBins]uint64 // atomic
	lastBin int64               // atomic: last active real bin
}

func newUDPPool(addr string, workers int, timeout time.Duration) (*udpPool, error) {
	ra, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	p := &udpPool{timeout: timeout}
	for i := 0; i < workers; i++ {
		c, err := net.DialUDP("udp", nil, ra)
		if err != nil {
			p.close()
			return nil, err
		}
		p.conns = append(p.conns, c)
	}
	return p, nil
}

func (p *udpPool) close() {
	for _, c := range p.conns {
		c.Close()
	}
}

func (p *udpPool) realBin() int64 {
	b := int64(time.Since(p.start) / realBinWidth)
	if b >= numRealBins {
		b = numRealBins - 1
	}
	return b
}

// exchange sends one request and classifies the reply. The transmit
// timestamp doubles as the origin nonce; with one outstanding request
// per socket, matching it is enough to pair replies.
func (p *udpPool) exchange(conn *net.UDPConn, e *Engine, id int) uint8 {
	req := ntppkt.NewClient(4, ntptime.FromTime(time.Now()))
	buf := make([]byte, 0, ntppkt.HeaderLen)
	buf = req.Encode(buf)
	t0 := time.Now()
	if err := conn.SetReadDeadline(t0.Add(p.timeout)); err != nil {
		return resFail
	}
	if _, err := conn.Write(buf); err != nil {
		return resFail
	}
	var rep ntppkt.Packet
	in := make([]byte, 512)
	for {
		n, err := conn.Read(in)
		if err != nil {
			return resFail
		}
		if rep.DecodeInto(in[:n]) != nil || rep.Origin != req.Transmit {
			continue // stray or stale datagram: keep waiting
		}
		e.rtt.Record(time.Since(t0))
		if code, ok := rep.KissCode(); ok {
			if code == "RATE" {
				return resRate
			}
			return resFail
		}
		if rep.ValidateServerReply(req.Transmit) != nil {
			return resFail
		}
		bin := p.realBin()
		atomic.AddUint64(&p.realOk[bin], 1)
		return resOK
	}
}

// runUDP advances the population against the real server: virtual
// time is quantized, each quantum's due clients form one batch served
// by the worker pool in real time, then virtual time jumps to the
// next quantum.
func (e *Engine) runUDP(horizon time.Duration) error {
	pool, err := newUDPPool(e.cfg.Addr, e.cfg.Workers, e.cfg.Timeout)
	if err != nil {
		return err
	}
	defer pool.close()
	e.udp = pool

	h := int64(horizon)
	q := int64(e.cfg.Quantum)
	batch := make([]ev, 0, 4096)
	for {
		at, _, ok := e.nextClient()
		for len(e.ctrl) > 0 && e.ctrl[0].at <= h && (!ok || e.ctrl[0].at <= at) {
			c := e.ctrl[0]
			e.ctrl = e.ctrl[1:]
			if c.at > e.vt {
				e.vt = c.at
			}
			c.fn()
			at, _, ok = e.nextClient()
		}
		if !ok || at > h {
			break
		}
		qStart := (at / q) * q
		qEnd := qStart + q
		if e.vt < qStart {
			e.vt = qStart
		}
		e.vc.Advance(time.Duration(qStart))

		batch = batch[:0]
		for {
			a2, s2, ok2 := e.nextClient()
			if !ok2 || a2 >= qEnd || a2 > h {
				break
			}
			batch = append(batch, e.heaps[s2].pop())
		}
		e.dispatch(pool, batch)
		e.vt = qEnd
	}
	if e.vt < h {
		e.vt = h
	}
	return nil
}

// dispatch serves one quantum's batch through the worker pool and
// folds the results back into the fleet on the engine thread.
func (e *Engine) dispatch(pool *udpPool, batch []ev) {
	if len(batch) == 0 {
		return
	}
	if !pool.started {
		pool.started = true
		pool.start = time.Now()
	}
	e.sent += uint64(len(batch))
	for _, evt := range batch {
		e.bins.sentAt(evt.at)
		e.f.res[evt.id] = resFail
	}

	if !e.down {
		nw := len(pool.conns)
		if nw > len(batch) {
			nw = len(batch)
		}
		var wg sync.WaitGroup
		for w := 0; w < nw; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				conn := pool.conns[w]
				for i := w; i < len(batch); i += nw {
					id := int(batch[i].id)
					e.f.res[id] = pool.exchange(conn, e, id)
				}
			}(w)
		}
		wg.Wait()
	}
	atomic.StoreInt64(&pool.lastBin, pool.realBin())

	for _, evt := range batch {
		id := int(evt.id)
		switch e.f.res[id] {
		case resOK:
			e.ok++
			e.f.served[id]++
			e.f.dry[id] = 0
			e.f.boff[id] = 0
		case resRate:
			e.rated++
			e.f.rated[id]++
			e.bump(id)
		default:
			e.fails++
			e.bump(id)
		}
		e.heaps[id&(nShards-1)].push(ev{at: evt.at + int64(e.pollDelay(id)), id: evt.id})
	}
}

// DarkStreakReal is the longest run of real-time bins (100ms) with no
// request answered between the first dispatch and the last batch
// completion — the wall-clock outage signature for ModeUDP, where
// batches run back-to-back in real time.
func (e *Engine) DarkStreakReal() int {
	if e.udp == nil || !e.udp.started {
		return 0
	}
	last := atomic.LoadInt64(&e.udp.lastBin)
	worst, run := 0, 0
	for i := int64(0); i <= last && i < numRealBins; i++ {
		if atomic.LoadUint64(&e.udp.realOk[i]) == 0 {
			run++
			if run > worst {
				worst = run
			}
		} else {
			run = 0
		}
	}
	return worst
}
