// Package ntpnet provides the real-UDP deployments of the protocol
// stack: an NTP/SNTP server answering mode-3 queries from any
// clock.Clock, and a client transport satisfying exchange.Transport,
// so the same SNTP/NTP/MNTP client code that runs in simulation runs
// against real sockets.
//
// The server side is built for production traffic: the listen path
// is sharded across SO_REUSEPORT sockets (single-socket fallback on
// platforms without it), each shard running a configurable pool of
// serve goroutines and counting into shard-local Metrics that
// Server.Snapshot merges; per-client rate limiting is tracked in a
// bounded table with window-stamped eviction, and every outcome
// (served, rate-limited, dropped, malformed, write errors) plus a
// request-handling latency histogram is counted. The client side validates replies in the
// receive loop — a stray, duplicated or spoofed datagram whose origin
// does not echo the request is skipped, not treated as the answer.
// FaultTransport wraps any transport with seeded loss, delay,
// duplication, corruption and kiss-of-death injection for robustness
// testing.
package ntpnet

import (
	"errors"
	"fmt"
	"net"
	"time"

	"mntp/internal/ntppkt"
)

// Client is a UDP client transport implementing exchange.Transport.
// Each Exchange opens a fresh ephemeral socket, as one-shot SNTP
// clients do, and stamps T4 from the system clock.
type Client struct {
	// Timeout bounds the wait for a reply (default 5 s).
	Timeout time.Duration
}

// ErrTimeout is returned when no reply arrives within the timeout.
var ErrTimeout = errors.New("ntpnet: request timed out")

// Exchange implements exchange.Transport over UDP. The receive loop
// validates each datagram before accepting it as the reply: runts,
// non-server modes and packets whose origin timestamp does not echo
// req.Transmit (stray, duplicated or spoofed traffic) are skipped and
// the wait continues until the genuine reply or the deadline. A
// kiss-of-death reply echoing the origin is returned as-is — the
// caller's ValidateServerReply turns it into ErrKissOfDeath.
func (c *Client) Exchange(server string, req *ntppkt.Packet) (*ntppkt.Packet, time.Time, error) {
	timeout := c.Timeout
	if timeout == 0 {
		timeout = 5 * time.Second
	}

	conn, err := net.Dial("udp", server)
	if err != nil {
		return nil, time.Time{}, fmt.Errorf("ntpnet: dial %q: %w", server, err)
	}
	defer conn.Close()

	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return nil, time.Time{}, err
	}
	wire := req.Encode(make([]byte, 0, ntppkt.HeaderLen))
	if _, err := conn.Write(wire); err != nil {
		return nil, time.Time{}, fmt.Errorf("ntpnet: send: %w", err)
	}

	// Large enough for the biggest NTS reply (authenticator carrying
	// a full cookie re-supply), not just the 48-byte header.
	buf := make([]byte, 2048)
	var resp ntppkt.Packet
	for {
		n, err := conn.Read(buf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				return nil, time.Time{}, ErrTimeout
			}
			return nil, time.Time{}, fmt.Errorf("ntpnet: recv: %w", err)
		}
		t4 := time.Now()
		if err := resp.DecodeInto(buf[:n]); err != nil {
			continue // runt datagram from someone else; keep waiting
		}
		if resp.Mode != ntppkt.ModeServer && resp.Mode != ntppkt.ModeBroadcast {
			continue // not a reply at all
		}
		if resp.Origin != req.Transmit {
			continue // stray/spoofed reply to someone else's request
		}
		out := resp
		return &out, t4, nil
	}
}
