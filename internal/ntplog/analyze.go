package ntplog

import (
	"fmt"
	"io"
	"net/netip"
	"sort"
	"time"

	"mntp/internal/ipasn"
	"mntp/internal/ntppkt"
	"mntp/internal/pcap"
	"mntp/internal/stats"
)

// AnalyzeConfig holds no options: the filtering heuristic is fixed by
// the constants below. The type stays because Analyze's signature is
// part of what bench/ compiles against.
type AnalyzeConfig struct{}

// The filtering heuristic of Durairajan et al. that §3.1 applies "to
// eliminate invalid latency measurements".
const (
	// owdCeiling is the sanity ceiling on a one-way delay; samples
	// beyond it indicate an unsynchronized client clock (comfortably
	// above the paper's 997 ms observed maximum).
	owdCeiling = 1200 * time.Millisecond
	// owdFloor is the floor; non-positive OWDs indicate a client clock
	// ahead of true time.
	owdFloor = 100 * time.Microsecond
	// minValidFraction is the share of a client's samples that must
	// pass the bounds for the client to be considered synchronized.
	minValidFraction = 0.9
)

// ClientStats aggregates one client's traffic.
type ClientStats struct {
	Addr     netip.Addr
	Requests int
	// SNTP counts requests with the minimal SNTP wire shape; the
	// client is classified SNTP when the majority of its requests
	// are.
	SNTP int
	// OWDs are the per-request uplink one-way delays in milliseconds
	// (capture time − client transmit timestamp).
	OWDs []float64
	// arrivals are the capture times of the client's requests, used
	// by the periodicity heuristic.
	arrivals []time.Time
	// Valid is set by the filtering heuristic.
	Valid bool
	// Provider is the IP-to-provider mapping result (nil rank 0 when
	// unmapped).
	Provider ipasn.Provider
	Mapped   bool
}

// isSNTP reports the client's majority protocol classification.
func (c *ClientStats) isSNTP() bool { return c.SNTP*2 > c.Requests }

// pollsPeriodically is a second, payload-independent protocol signal:
// full NTP clients poll at a stable power-of-two cadence, so the
// coefficient of variation of their request inter-arrivals is small.
// SNTP clients ask on demand and look bursty. Returns false when the
// client has too few requests to judge.
//
// This cross-checks the wire-shape heuristic: a client whose packets
// look like SNTP but which polls with ntpd-like regularity (or vice
// versa) is worth flagging in a real study.
func (c *ClientStats) pollsPeriodically() (periodic, ok bool) {
	if len(c.arrivals) < 5 {
		return false, false
	}
	gaps := make([]float64, 0, len(c.arrivals)-1)
	for i := 1; i < len(c.arrivals); i++ {
		gaps = append(gaps, c.arrivals[i].Sub(c.arrivals[i-1]).Seconds())
	}
	mean, std := stats.MeanStd(gaps)
	if mean <= 0 {
		return false, false
	}
	// ntpd jitters its poll by a few percent; allow up to 20% CoV.
	return std/mean < 0.20, true
}

// minOWD returns the client's minimum valid OWD in milliseconds.
func (c *ClientStats) minOWD() float64 {
	if len(c.OWDs) == 0 {
		return 0
	}
	return stats.Min(c.OWDs)
}

// Report is the analysis of one server's capture.
type Report struct {
	// ServerStratum is learned from the server's own responses.
	ServerStratum uint8
	// SawV4 and SawV6 record the address families observed.
	SawV4, SawV6 bool
	// TotalMeasurements counts client requests (one OWD measurement
	// each), matching Table 1's accounting.
	TotalMeasurements int
	// Clients holds per-client aggregates, keyed by address.
	Clients map[netip.Addr]*ClientStats
}

// ipVersion renders the Table 1 "IP Version" cell.
func (r *Report) ipVersion() string {
	switch {
	case r.SawV4 && r.SawV6:
		return "v4/v6"
	case r.SawV6:
		return "v6"
	default:
		return "v4"
	}
}

// UniqueClients returns the number of distinct client addresses.
func (r *Report) UniqueClients() int { return len(r.Clients) }

// ValidClients returns the clients that passed the filtering
// heuristic.
func (r *Report) ValidClients() []*ClientStats {
	var out []*ClientStats
	for _, c := range r.Clients {
		if c.Valid {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr.Less(out[j].Addr) })
	return out
}

// ProtocolShare returns the fraction of clients classified as SNTP
// (over all clients with at least one request).
func (r *Report) ProtocolShare() (sntpFrac float64) {
	var sntp, total int
	for _, c := range r.Clients {
		total++
		if c.isSNTP() {
			sntp++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(sntp) / float64(total)
}

// Analyze parses one server capture and applies the §3.1 pipeline.
func Analyze(rd io.Reader, reg *ipasn.Registry, _ AnalyzeConfig) (*Report, error) {
	pr, err := pcap.NewReader(rd)
	if err != nil {
		return nil, err
	}
	rep := &Report{Clients: make(map[netip.Addr]*ClientStats)}
	var pkt ntppkt.Packet
	for {
		rec, err := pr.ReadPacket()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		dg, err := pcap.DecodeUDP(rec.Data)
		if err != nil {
			continue // non-UDP noise
		}
		if err := pkt.DecodeInto(dg.Payload); err != nil {
			continue // runt
		}

		switch {
		case dg.DstPort == 123 && pkt.Mode == ntppkt.ModeClient:
			if dg.Src.Is4() {
				rep.SawV4 = true
			} else {
				rep.SawV6 = true
			}
			cs := rep.Clients[dg.Src]
			if cs == nil {
				cs = &ClientStats{Addr: dg.Src}
				if p, ok := reg.Lookup(dg.Src); ok {
					cs.Provider, cs.Mapped = p, true
				}
				rep.Clients[dg.Src] = cs
			}
			cs.Requests++
			rep.TotalMeasurements++
			cs.arrivals = append(cs.arrivals, rec.Timestamp)
			if pkt.IsSNTPRequest() {
				cs.SNTP++
			}
			// Uplink OWD: capture time minus the client's transmit
			// timestamp. Era resolution pivots on the capture time.
			if !pkt.Transmit.IsZero() {
				t1 := pkt.Transmit.Time(rec.Timestamp)
				owd := rec.Timestamp.Sub(t1)
				cs.OWDs = append(cs.OWDs, float64(owd)/float64(time.Millisecond))
			}
		case dg.SrcPort == 123 && pkt.Mode == ntppkt.ModeServer:
			rep.ServerStratum = pkt.Stratum
		}
	}

	// Filtering heuristic: a client is valid when ≥ minValidFraction
	// of its OWD samples are plausible; its OWD list is then pruned
	// to the plausible samples.
	minMs := float64(owdFloor) / float64(time.Millisecond)
	maxMs := float64(owdCeiling) / float64(time.Millisecond)
	for _, cs := range rep.Clients {
		if len(cs.OWDs) == 0 {
			continue
		}
		valid := cs.OWDs[:0:0]
		for _, o := range cs.OWDs {
			if o > minMs && o < maxMs {
				valid = append(valid, o)
			}
		}
		if float64(len(valid)) >= minValidFraction*float64(len(cs.OWDs)) && len(valid) > 0 {
			cs.Valid = true
			cs.OWDs = valid
		}
	}
	return rep, nil
}

// ProviderAggregate is the per-provider view used by Figures 1 and 2.
type ProviderAggregate struct {
	Provider ipasn.Provider
	Clients  int
	SNTP     int
	// MinOWDs is one minimum-OWD value per valid client, in ms.
	MinOWDs []float64
}

// SNTPShare returns the provider's SNTP client fraction.
func (a *ProviderAggregate) SNTPShare() float64 {
	if a.Clients == 0 {
		return 0
	}
	return float64(a.SNTP) / float64(a.Clients)
}

// Summary returns the distribution summary of the provider's
// min-OWDs.
func (a *ProviderAggregate) Summary() stats.Summary { return stats.Summarize(a.MinOWDs) }

// ByProvider groups a report's valid clients per provider rank,
// yielding the raw material of Figure 1 (min-OWD distributions) and
// Figure 2-right (per-provider protocol shares). Results are sorted
// by rank.
func (r *Report) ByProvider() []*ProviderAggregate {
	byRank := make(map[int]*ProviderAggregate)
	for _, cs := range r.Clients {
		if !cs.Mapped {
			continue
		}
		agg := byRank[cs.Provider.Rank]
		if agg == nil {
			agg = &ProviderAggregate{Provider: cs.Provider}
			byRank[cs.Provider.Rank] = agg
		}
		agg.Clients++
		if cs.isSNTP() {
			agg.SNTP++
		}
		if cs.Valid {
			agg.MinOWDs = append(agg.MinOWDs, cs.minOWD())
		}
	}
	out := make([]*ProviderAggregate, 0, len(byRank))
	for _, a := range byRank {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Provider.Rank < out[j].Provider.Rank })
	return out
}

// Table1Row is one row of the reproduced Table 1.
type Table1Row struct {
	ServerID          string
	UniqueClients     int
	Stratum           uint8
	IPVersion         string
	TotalMeasurements int
}

// Table1Row renders the report as its Table 1 row.
func (r *Report) Table1Row(serverID string) Table1Row {
	return Table1Row{
		ServerID:          serverID,
		UniqueClients:     r.UniqueClients(),
		Stratum:           r.ServerStratum,
		IPVersion:         r.ipVersion(),
		TotalMeasurements: r.TotalMeasurements,
	}
}

// String renders a row compactly.
func (t Table1Row) String() string {
	return fmt.Sprintf("%s: clients=%d stratum=%d ip=%s measurements=%d",
		t.ServerID, t.UniqueClients, t.Stratum, t.IPVersion, t.TotalMeasurements)
}
