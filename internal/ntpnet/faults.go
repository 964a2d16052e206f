package ntpnet

import (
	"math/rand"
	"sync"
	"time"

	"mntp/internal/clock"
	"mntp/internal/exchange"
	"mntp/internal/ntppkt"
)

// FaultTransport wraps an exchange.Transport with seeded fault
// injection: exchange loss, added delay, reply duplication, wire
// corruption and kiss-of-death storms. It sits above the transport it
// wraps, so the faults it injects model what a client experiences
// after its own receive loop — a dropped exchange surfaces as
// ErrTimeout, a duplicated reply is replayed (with its stale origin)
// in place of a later genuine reply, a corrupted reply has a random
// wire bit flipped. Robustness tests drive the SNTP/MNTP clients
// through these faults without needing a lossy physical network.
//
// The zero value with only Inner set injects nothing. All decisions
// come from a rand.Rand seeded with Seed, so runs are reproducible.
// FaultTransport is safe for concurrent use.
type FaultTransport struct {
	Inner exchange.Transport
	// Clock stamps T4 on synthesized (KoD, duplicated) replies;
	// default the system clock.
	Clock clock.Clock
	// Sleeper performs injected delays; default wall-time sleep.
	Sleeper interface{ Sleep(time.Duration) }
	// Seed drives every probabilistic decision.
	Seed int64

	// DropFirst deterministically drops the first N exchanges —
	// convenient for exercising retry paths without probability.
	DropFirst int
	// DropProb drops an exchange (ErrTimeout) with this probability.
	DropProb float64
	// DupProb records a copy of a genuine reply with this
	// probability; the copy is replayed as the answer to the next
	// exchange, where its origin no longer matches.
	DupProb float64
	// CorruptProb flips one random bit of the reply's wire encoding.
	CorruptProb float64
	// KoDProb replaces the reply with a RATE kiss-of-death echoing
	// the request's origin, as a rate-limiting server would send.
	KoDProb float64
	// Delay (plus uniform Jitter) is added before each exchange.
	Delay  time.Duration
	Jitter time.Duration

	mu      sync.Mutex
	rng     *rand.Rand
	dropped int
	stale   *ntppkt.Packet
	stats   FaultStats
}

// FaultStats counts what the transport injected.
type FaultStats struct {
	Exchanges  int // total Exchange calls
	Dropped    int // exchanges lost (DropFirst + DropProb)
	Duplicated int // stale replies replayed
	Corrupted  int // replies with a flipped bit
	KoDs       int // kiss-of-death replies synthesized
}

// Stats returns a copy of the injection counters.
func (f *FaultTransport) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// Exchange implements exchange.Transport.
func (f *FaultTransport) Exchange(server string, req *ntppkt.Packet) (*ntppkt.Packet, time.Time, error) {
	f.mu.Lock()
	if f.rng == nil {
		f.rng = rand.New(rand.NewSource(f.Seed))
	}
	f.stats.Exchanges++
	delay := f.Delay
	if f.Jitter > 0 {
		delay += time.Duration(f.rng.Int63n(int64(f.Jitter)))
	}
	drop := false
	if f.dropped < f.DropFirst {
		f.dropped++
		drop = true
	} else if f.DropProb > 0 && f.rng.Float64() < f.DropProb {
		drop = true
	}
	kod := !drop && f.KoDProb > 0 && f.rng.Float64() < f.KoDProb
	var stale *ntppkt.Packet
	if !drop && !kod && f.stale != nil {
		stale, f.stale = f.stale, nil
		f.stats.Duplicated++
	}
	dup := f.DupProb > 0 && f.rng.Float64() < f.DupProb
	corrupt := f.CorruptProb > 0 && f.rng.Float64() < f.CorruptProb
	corruptBit := f.rng.Intn(ntppkt.HeaderLen * 8)
	if drop {
		f.stats.Dropped++
	}
	if kod {
		f.stats.KoDs++
	}
	f.mu.Unlock()

	if delay > 0 {
		f.sleep(delay)
	}
	clk := f.Clock
	if clk == nil {
		clk = clock.System{}
	}
	if drop {
		return nil, time.Time{}, ErrTimeout
	}
	if kod {
		resp := &ntppkt.Packet{
			Leap: ntppkt.LeapNotSync, Version: req.Version, Mode: ntppkt.ModeServer,
			Stratum: ntppkt.StratumKoD, RefID: ntppkt.KissRate,
			Origin: req.Transmit,
		}
		return resp, clk.Now(), nil
	}
	if stale != nil {
		// The duplicated datagram beat the genuine reply; its origin
		// echoes an earlier request, which validation must reject.
		return stale, clk.Now(), nil
	}
	resp, t4, err := f.Inner.Exchange(server, req)
	if err != nil {
		return resp, t4, err
	}
	if dup {
		cp := *resp
		f.mu.Lock()
		f.stale = &cp
		f.mu.Unlock()
	}
	if corrupt {
		f.mu.Lock()
		f.stats.Corrupted++
		f.mu.Unlock()
		resp = corruptPacket(resp, corruptBit)
	}
	return resp, t4, err
}

func (f *FaultTransport) sleep(d time.Duration) {
	if f.Sleeper != nil {
		f.Sleeper.Sleep(d)
		return
	}
	time.Sleep(d)
}

// corruptPacket flips the bit-th bit of p's wire encoding and decodes
// the result, modelling in-flight corruption that still passes the
// UDP checksum (or traverses a path without one).
func corruptPacket(p *ntppkt.Packet, bit int) *ntppkt.Packet {
	wire := p.Encode(make([]byte, 0, ntppkt.HeaderLen))
	wire[bit/8] ^= 1 << (bit % 8)
	var out ntppkt.Packet
	out.DecodeInto(wire) // 48 bytes always decode
	return &out
}
