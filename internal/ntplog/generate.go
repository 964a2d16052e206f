package ntplog

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/netip"
	"sort"
	"time"

	"mntp/internal/ipasn"
	"mntp/internal/ntppkt"
	"mntp/internal/ntptime"
	"mntp/internal/pcap"
)

// GenConfig parameterizes trace generation.
type GenConfig struct {
	// Scale multiplies the Table 1 client counts (default 1/2000).
	// Per-client request counts stay at their full-scale ratios, so
	// the per-server totals scale by the same factor.
	Scale float64
	// MaxRequestsPerClient caps the per-client request count for
	// tractability (default 120; only SU1's very chatty population is
	// affected). No binary sets it: the tests lower it to keep their
	// traces small.
	MaxRequestsPerClient int
	// UnsyncFraction is the share of clients with badly wrong clocks
	// that the analyzer's filtering heuristic must exclude
	// (default 0.05). No binary sets it: the filtering test raises it
	// to 0.5 so that a heuristic that excluded nobody would show.
	UnsyncFraction float64
	// Seed drives everything.
	Seed int64
}

func (c *GenConfig) applyDefaults() {
	if c.Scale == 0 {
		c.Scale = 1.0 / 2000
	}
	if c.MaxRequestsPerClient == 0 {
		c.MaxRequestsPerClient = 120
	}
	if c.UnsyncFraction == 0 {
		c.UnsyncFraction = 0.05
	}
}

// serverAddr4/serverAddr6 are the capture host's own addresses.
var (
	serverAddr4 = netip.MustParseAddr("192.0.2.123")
	serverAddr6 = netip.MustParseAddr("2001:db8:ffff::123")
)

// providerWeights gives the relative client population per provider
// rank. Mobile carriers carry large client populations on public
// servers (the paper finds mobile hosts dominate); cloud providers a
// moderate share; broadband the long tail.
func providerWeight(p ipasn.Provider) float64 {
	switch p.Category {
	case ipasn.Cloud:
		return 0.055
	case ipasn.ISP:
		return 0.045
	case ipasn.Broadband:
		return 0.030
	case ipasn.Mobile:
		return 0.075
	default:
		return 0.01
	}
}

// minOWD draws a client's base one-way delay from its provider
// category's distribution, calibrated to the paper's Figure 1
// medians: cloud ≈ 40 ms, ISP ≈ 50 ms, broadband ≈ 250 ms, mobile
// 400–600 ms with wide IQR (and the near-linear CDF the paper notes
// for mobile providers, approximated by a high-variance lognormal).
func minOWD(p ipasn.Provider, rng *rand.Rand) time.Duration {
	var medianMs, sigma float64
	switch p.Category {
	case ipasn.Cloud:
		medianMs, sigma = 40, 0.30
	case ipasn.ISP:
		medianMs, sigma = 50, 0.35
	case ipasn.Broadband:
		medianMs, sigma = 250, 0.45
	case ipasn.Mobile:
		// Rank 22 → ~420 ms … rank 25 → ~600 ms median.
		medianMs, sigma = 420+60*float64(p.Rank-22), 0.60
	}
	ms := math.Exp(math.Log(medianMs) + sigma*rng.NormFloat64())
	if ms < 1 {
		ms = 1
	}
	if ms > 997 { // the paper's observed OWD ceiling
		ms = 997
	}
	return time.Duration(ms * float64(time.Millisecond))
}

// sntpProbability returns the chance a client of the provider uses
// SNTP rather than full NTP, per Figure 2: ≥95 % for mobile
// providers, a clear majority elsewhere on public servers, but a
// minority on ISP-specific servers.
func sntpProbability(p ipasn.Provider, ispSpecific bool) float64 {
	if ispSpecific {
		return 0.18
	}
	switch p.Category {
	case ipasn.Mobile:
		return 0.965
	case ipasn.Cloud:
		return 0.45
	default:
		return 0.70
	}
}

// event is one packet to be captured.
type event struct {
	ts   time.Time
	data []byte
}

// Generate writes the synthetic capture of one server to w and
// returns the number of clients and request packets generated.
func Generate(w io.Writer, prof ServerProfile, reg *ipasn.Registry, cfg GenConfig) (clients, requests int, err error) {
	cfg.applyDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed ^ int64(hashID(prof.ID))))

	nClients := int(float64(prof.UniqueClients) * cfg.Scale)
	if nClients < 30 {
		nClients = 30
	}
	perClient := prof.Measurements / prof.UniqueClients
	if perClient < 1 {
		perClient = 1
	}
	if perClient > cfg.MaxRequestsPerClient {
		perClient = cfg.MaxRequestsPerClient
	}

	// Provider sampling distribution.
	providers := reg.Providers()
	cum := make([]float64, len(providers))
	var total float64
	for i, p := range providers {
		weight := providerWeight(p)
		if prof.ISPSpecific {
			// ISP-specific servers serve overwhelmingly their own
			// ISP's clients; pin to one ISP-category provider per
			// server.
			if p.Category == ipasn.ISP && p.Rank == 4+int(hashID(prof.ID))%6 {
				weight = 8
			} else {
				weight *= 0.05
			}
		}
		total += weight
		cum[i] = total
	}
	pickProvider := func() ipasn.Provider {
		x := rng.Float64() * total
		i := sort.SearchFloat64s(cum, x)
		if i >= len(providers) {
			i = len(providers) - 1
		}
		return providers[i]
	}

	var events []event
	day := time.Date(2016, 11, 14, 0, 0, 0, 0, time.UTC) // the capture day, 24 h
	perProviderIdx := make(map[int]int)

	for ci := 0; ci < nClients; ci++ {
		p := pickProvider()
		idx := perProviderIdx[p.Rank]
		perProviderIdx[p.Rank]++
		useV6 := prof.DualStack && rng.Float64() < 0.2
		addr := p.ClientAddr(idx, useV6)
		srvAddr := serverAddr4
		if useV6 {
			srvAddr = serverAddr6
		}

		isSNTP := rng.Float64() < sntpProbability(p, prof.ISPSpecific)
		// Client clock state: synchronized clients are within ±25 ms;
		// unsynchronized ones are seconds-to-hours wrong and must be
		// excluded by the analyzer's filtering heuristic.
		var clockErr time.Duration
		if rng.Float64() < cfg.UnsyncFraction {
			mag := 2 + rng.Float64()*3598 // 2 s … 1 h
			clockErr = time.Duration(mag * float64(time.Second))
			if rng.Intn(2) == 0 {
				clockErr = -clockErr
			}
		} else {
			clockErr = time.Duration((rng.Float64()*50 - 25) * float64(time.Millisecond))
		}

		base := minOWD(p, rng)
		// Jitter above the base delay; heavier for mobile.
		jitterScale := 0.15 * float64(base)
		reqs := 1 + rng.Intn(2*perClient) // mean ≈ perClient
		srcPort := uint16(1024 + rng.Intn(60000))

		// Temporal pattern: full NTP clients poll periodically at a
		// power-of-two interval with small jitter (ntpd's behaviour);
		// SNTP clients ask on demand — bursts at irregular times (app
		// launches, wake-ups), the pattern the paper attributes to
		// mobile devices.
		sendTimes := make([]time.Time, 0, reqs)
		if !isSNTP {
			pollIv := time.Duration(64<<rng.Intn(5)) * time.Second // 64s … 1024s
			start := day.Add(time.Duration(rng.Float64() * float64(pollIv)))
			for ts := start; ts.Before(day.Add(24*time.Hour)) && len(sendTimes) < reqs; ts = ts.Add(pollIv) {
				jitter := time.Duration(rng.Float64() * 0.02 * float64(pollIv))
				sendTimes = append(sendTimes, ts.Add(jitter))
			}
		} else {
			for len(sendTimes) < reqs {
				burstStart := day.Add(time.Duration(rng.Float64() * float64(24*time.Hour)))
				burstLen := 1 + rng.Intn(3)
				for b := 0; b < burstLen && len(sendTimes) < reqs; b++ {
					sendTimes = append(sendTimes,
						burstStart.Add(time.Duration(b)*time.Duration(5+rng.Intn(20))*time.Second))
				}
			}
		}

		for _, trueSend := range sendTimes {
			owdUp := base + time.Duration(rng.ExpFloat64()*jitterScale)
			captureTS := trueSend.Add(owdUp)

			clientTime := trueSend.Add(clockErr)
			var req *ntppkt.Packet
			if isSNTP {
				req = ntppkt.NewSNTPClient(pickVersion(rng, true), ntptime.FromTime(clientTime))
			} else {
				req = ntppkt.NewClient(pickVersion(rng, false), ntptime.FromTime(clientTime))
				req.Poll = int8(6 + rng.Intn(5))
				req.Stratum = uint8(2 + rng.Intn(3))
				req.RootDelay = ntptime.DurationToShort(time.Duration(rng.Intn(80)) * time.Millisecond)
				req.RootDisp = ntptime.DurationToShort(time.Duration(1+rng.Intn(30)) * time.Millisecond)
				req.RefID = [4]byte{10, byte(rng.Intn(256)), 0, 1}
				req.RefTime = ntptime.FromTime(clientTime.Add(-time.Duration(rng.Intn(1024)) * time.Second))
			}
			reqRaw, err := pcap.EncodeUDP(pcap.UDPDatagram{
				Src: addr, Dst: srvAddr, SrcPort: srcPort, DstPort: 123,
				Payload: req.Encode(nil),
			})
			if err != nil {
				return 0, 0, fmt.Errorf("ntplog: encode request: %w", err)
			}
			events = append(events, event{ts: captureTS, data: reqRaw})
			requests++

			// Server response, captured on transmit.
			respTS := captureTS.Add(time.Duration(50+rng.Intn(400)) * time.Microsecond)
			resp := &ntppkt.Packet{
				Leap: ntppkt.LeapNone, Version: req.Version, Mode: ntppkt.ModeServer,
				Stratum: prof.Stratum, Poll: req.Poll, Precision: -23,
				RootDelay: ntptime.DurationToShort(12 * time.Millisecond),
				RootDisp:  ntptime.DurationToShort(4 * time.Millisecond),
				RefID:     [4]byte{'G', 'P', 'S', 0},
				RefTime:   ntptime.FromTime(respTS.Add(-16 * time.Second)),
				Origin:    req.Transmit,
				Receive:   ntptime.FromTime(captureTS),
				Transmit:  ntptime.FromTime(respTS),
			}
			respRaw, err := pcap.EncodeUDP(pcap.UDPDatagram{
				Src: srvAddr, Dst: addr, SrcPort: 123, DstPort: srcPort,
				Payload: resp.Encode(nil),
			})
			if err != nil {
				return 0, 0, fmt.Errorf("ntplog: encode response: %w", err)
			}
			events = append(events, event{ts: respTS, data: respRaw})
		}
		clients++
	}

	sort.Slice(events, func(i, j int) bool { return events[i].ts.Before(events[j].ts) })
	pw, err := pcap.NewWriter(w)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range events {
		if err := pw.WritePacket(e.ts, e.data); err != nil {
			return 0, 0, err
		}
	}
	return clients, requests, nil
}

// pickVersion draws a protocol version: SNTP clients are mostly v3
// with some v4; full clients mostly v4.
func pickVersion(rng *rand.Rand, sntp bool) uint8 {
	if sntp {
		if rng.Float64() < 0.6 {
			return ntppkt.Version3
		}
		return ntppkt.Version4
	}
	if rng.Float64() < 0.9 {
		return ntppkt.Version4
	}
	return ntppkt.Version3
}

// hashID folds a server ID into a small deterministic integer.
func hashID(id string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(id); i++ {
		h = (h ^ uint32(id[i])) * 16777619
	}
	return h
}
