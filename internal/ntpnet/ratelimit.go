package ntpnet

import (
	"net"
	"sync"
	"time"
)

// DefaultMaxClients bounds the rate-limit table when the server does
// not configure a limit: abusive-client tracking must never grow
// without bound, whatever traffic arrives.
const DefaultMaxClients = 1 << 14

// addrKey is a rate-limit table key: the 16-byte form of the client
// IP. Using a fixed-size array (not ip.String()) keeps the per-packet
// path allocation-free.
type addrKey [16]byte

// v4Prefix is the IPv4-in-IPv6 mapping prefix of an IPv4 key.
var v4Prefix = [12]byte{10: 0xff, 11: 0xff}

func keyFromIP(ip net.IP) addrKey {
	var k addrKey
	if ip4 := ip.To4(); ip4 != nil {
		copy(k[:12], v4Prefix[:])
		copy(k[12:], ip4)
		return k
	}
	copy(k[:], ip)
	return k
}

type rateBucket struct {
	windowStart time.Time
	count       int
}

// rateLimiter is a bounded per-client request counter over a sliding
// window. Buckets are window-stamped: when the table is full, expired
// buckets are evicted first and, failing that, the bucket with the
// oldest window start (closest to expiry) is displaced. The eviction
// scan is O(table) but runs only when the table is at capacity, so
// steady-state traffic from a bounded client population never pays
// for it.
type rateLimiter struct {
	limit   int
	window  time.Duration
	maxSize int

	mu      sync.Mutex
	buckets map[addrKey]*rateBucket
}

func newRateLimiter(limit int, window time.Duration, maxSize int) *rateLimiter {
	return &rateLimiter{
		limit: limit, window: window, maxSize: maxSize,
		buckets: make(map[addrKey]*rateBucket),
	}
}

// reconfigure changes the limiter's parameters in place, preserving
// every established client's bucket. Shrinking maxSize below the
// current population does not evict immediately; the next insertion's
// eviction scan and the housekeeping sweep converge the table to the
// new bound.
func (rl *rateLimiter) reconfigure(limit int, window time.Duration, maxSize int) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	rl.limit, rl.window, rl.maxSize = limit, window, maxSize
}

// over reports whether the client has exceeded the rate limit,
// updating its bucket. now must come from the server's clock so that
// limiter windows agree with the clock serving the timestamps
// (simulated and offset clocks included).
func (rl *rateLimiter) over(key addrKey, now time.Time) bool {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	b := rl.buckets[key]
	if b == nil {
		if len(rl.buckets) >= rl.maxSize {
			rl.evictLocked(now)
		}
		rl.buckets[key] = &rateBucket{windowStart: now, count: 1}
		return false
	}
	if now.Sub(b.windowStart) >= rl.window {
		b.windowStart = now
		b.count = 1
		return false
	}
	b.count++
	return b.count > rl.limit
}

// evictLocked makes room for one insertion: every expired bucket is
// removed, and if none were, the oldest-windowed bucket is displaced.
func (rl *rateLimiter) evictLocked(now time.Time) {
	var oldestKey addrKey
	var oldest time.Time
	haveOldest := false
	evicted := false
	for k, b := range rl.buckets {
		if now.Sub(b.windowStart) >= rl.window {
			delete(rl.buckets, k)
			evicted = true
			continue
		}
		if !haveOldest || b.windowStart.Before(oldest) {
			oldestKey, oldest, haveOldest = k, b.windowStart, true
		}
	}
	if !evicted && haveOldest {
		delete(rl.buckets, oldestKey)
	}
}

// known reports whether the client currently holds per-IP state with
// an unexpired window — "established" for admission control — without
// mutating the table.
func (rl *rateLimiter) known(key addrKey, now time.Time) bool {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	b := rl.buckets[key]
	return b != nil && now.Sub(b.windowStart) < rl.window
}

// sweep drops every bucket whose window has expired. The serve path
// only evicts when the table is full, so without sweeping a burst
// that fills the table — a spoofed-source flood — would pin it at
// MaxClients long after the flood ended, forcing the O(table)
// full-table eviction scan onto every later legitimate new client.
// The server's housekeeping loop calls this periodically.
func (rl *rateLimiter) sweep(now time.Time) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	for k, b := range rl.buckets {
		if now.Sub(b.windowStart) >= rl.window {
			delete(rl.buckets, k)
		}
	}
}

// occupancy returns the table fill fraction (0..1), the overload
// controller's table-pressure signal.
func (rl *rateLimiter) occupancy() float64 {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return float64(len(rl.buckets)) / float64(rl.maxSize)
}

// size returns the current table population.
func (rl *rateLimiter) size() int {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return len(rl.buckets)
}
