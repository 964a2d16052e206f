// Package sntp implements a Simple Network Time Protocol client per
// RFC 4330 semantics: one exchange yields one offset which is applied
// to the local clock directly, with none of NTP's filtering machinery
// ("SNTP uses clock offset to update the local clock directly and none
// of the time-tested filtering algorithms", §3.4 of the paper).
//
// The package also encodes the vendor-specific client behaviours the
// paper documents in §2: Android's daily poll with three retries and a
// 5000 ms update threshold, and Windows Mobile's weekly poll with no
// retries.
package sntp

import (
	"errors"
	"time"

	"mntp/internal/clock"
	"mntp/internal/exchange"
	"mntp/internal/ntppkt"
)

// Config parameterizes a Client.
type Config struct {
	// Server is the reference to query (a pool name resolves to a
	// random member per request, as mobile clients using
	// 0.pool.ntp.org experience).
	Server string
	// Retries is how many additional attempts follow a failed
	// exchange within one Query call (Android uses 3; Windows Mobile
	// 0).
	Retries int
	// RetryWait is the sleeper-provided pause between retries (default
	// 2 s). No binary sets it: the retry tests over real sockets and
	// fault transports shorten it to a millisecond to stay fast.
	RetryWait time.Duration
	// UpdateThreshold suppresses clock updates smaller than this
	// magnitude (Android: 5000 ms — "updates the system time only if
	// the estimate differs by more than 5000ms", §2). Zero applies
	// every accepted offset.
	UpdateThreshold time.Duration
}

// Sleeper abstracts waiting so the client runs in both virtual and
// wall time. netsim.Proc satisfies it; wall-time deployments use
// WallSleeper.
type Sleeper interface {
	Sleep(d time.Duration)
}

// WallSleeper sleeps in real time.
type WallSleeper struct{}

// Sleep implements Sleeper.
func (WallSleeper) Sleep(d time.Duration) { time.Sleep(d) }

// Client is an SNTP client.
type Client struct {
	Clock     clock.Clock
	Transport exchange.Transport
	Sleeper   Sleeper
	Config    Config
}

// New creates an SNTP client with defaults applied.
func New(clk clock.Clock, tr exchange.Transport, sl Sleeper, cfg Config) *Client {
	if cfg.RetryWait == 0 {
		cfg.RetryWait = 2 * time.Second
	}
	return &Client{Clock: clk, Transport: tr, Sleeper: sl, Config: cfg}
}

// AndroidConfig returns the Android SNTP behaviour the paper extracted
// from the platform codebase (§2): three retries, 5 s update
// threshold. The daily poll cadence is the caller's loop interval.
func AndroidConfig(server string) Config {
	return Config{Server: server, Retries: 3, UpdateThreshold: 5000 * time.Millisecond}
}

// WindowsMobileConfig returns the Windows Mobile behaviour (§2): no
// retries; the weekly cadence is the caller's loop interval.
func WindowsMobileConfig(server string) Config {
	return Config{Server: server, Retries: 0}
}

// Query performs one measurement, retrying per the configuration. It
// returns the first successful sample. A kiss-of-death reply aborts
// the retry loop immediately: retrying into a rate limit is exactly
// what the RATE code forbids (RFC 4330 §8).
func (c *Client) Query() (exchange.Sample, error) {
	var lastErr error
	for attempt := 0; attempt <= c.Config.Retries; attempt++ {
		if attempt > 0 && c.Sleeper != nil {
			c.Sleeper.Sleep(c.Config.RetryWait)
		}
		s, err := exchange.Measure(c.Clock, c.Transport, c.Config.Server, ntppkt.Version4, true)
		if err == nil {
			return s, nil
		}
		lastErr = err
		if errors.Is(err, ntppkt.ErrKissOfDeath) {
			break
		}
	}
	return exchange.Sample{}, lastErr
}

// SyncOnce queries and, if the clock is adjustable and the offset
// magnitude passes the update threshold, steps the clock by the
// measured offset — SNTP's direct update. It returns the sample and
// whether the clock was updated.
func (c *Client) SyncOnce() (exchange.Sample, bool, error) {
	s, err := c.Query()
	if err != nil {
		return exchange.Sample{}, false, err
	}
	adj, ok := c.Clock.(clock.Adjustable)
	if !ok {
		return s, false, nil
	}
	if thr := c.Config.UpdateThreshold; thr > 0 {
		if s.Offset > -thr && s.Offset < thr {
			return s, false, nil
		}
	}
	adj.Step(s.Offset)
	return s, true, nil
}
