// Package ipasn is the IP-to-provider mapping substrate of the §3.1
// log study. The paper used Team Cymru's IP-to-ASN service plus a
// keyword heuristic over reverse-DNS hostnames to group NTP clients
// into service-provider categories; this package provides (a) a
// synthetic registry of 25 providers in the paper's four latency
// categories, with deterministic prefix assignments, and (b) the
// keyword classification heuristic itself, applicable to any
// hostname.
package ipasn

import (
	"fmt"
	"net/netip"
	"strings"
)

// Category is the §3.1 provider taxonomy.
type Category int

const (
	// Cloud covers cloud and hosting providers (SP 1–3, median min
	// OWD ≈ 40 ms).
	Cloud Category = iota
	// ISP covers Internet service providers (SP 4–9, ≈ 50 ms).
	ISP
	// Broadband covers residential broadband (SP 10–21, ≈ 250 ms).
	Broadband
	// Mobile covers mobile carriers (SP 22–25, ≈ 550 ms, wide IQR).
	Mobile
	// unknown marks unclassifiable clients.
	unknown
)

// String renders the category name.
func (c Category) String() string {
	switch c {
	case Cloud:
		return "cloud"
	case ISP:
		return "isp"
	case Broadband:
		return "broadband"
	case Mobile:
		return "mobile"
	default:
		return "unknown"
	}
}

// Provider is one service provider in the registry.
type Provider struct {
	// Name is the anonymized label (SP 1 … SP 25), matching the
	// paper's convention of withholding provider names.
	Name string
	// Rank is the 1-based index in the paper's SP numbering.
	Rank     int
	Category Category
	ASN      uint32
	// Prefix4 is the provider's IPv4 block; Prefix6 the IPv6 block.
	Prefix4 netip.Prefix
	Prefix6 netip.Prefix
	// hostSuffix is the reverse-DNS suffix of the provider's clients,
	// carrying the category keyword the heuristic keys on.
	hostSuffix string
}

// categoryKeywords drive the hostname heuristic, mirroring the
// paper's examples ("mobile, cloud, Amazon, Sprint, etc.").
var categoryKeywords = map[Category][]string{
	Cloud:     {"cloud", "hosting", "aws", "compute", "datacenter", "vps"},
	ISP:       {"isp", "net", "transit", "backbone"},
	Broadband: {"dsl", "cable", "fiber", "broadband", "res", "pool-addr", "dynamic"},
	Mobile:    {"mobile", "wireless", "cell", "lte", "3g", "4g", "wap", "pcs"},
}

// classifyHostname applies the keyword heuristic to a hostname and
// returns the inferred category (unknown when nothing matches). More
// specific categories win: mobile keywords are checked before
// broadband because carrier hostnames often also contain generic
// tokens.
func classifyHostname(host string) Category {
	h := strings.ToLower(host)
	for _, c := range []Category{Mobile, Cloud, Broadband, ISP} {
		for _, kw := range categoryKeywords[c] {
			if strings.Contains(h, kw) {
				return c
			}
		}
	}
	return unknown
}

// Registry maps addresses and hostnames to providers.
type Registry struct {
	providers []Provider
}

// categoryOfRank maps the paper's SP rank to its category: SP 1–3
// cloud, 4–9 ISP, 10–21 broadband, 22–25 mobile.
func categoryOfRank(rank int) Category {
	switch {
	case rank <= 3:
		return Cloud
	case rank <= 9:
		return ISP
	case rank <= 21:
		return Broadband
	default:
		return Mobile
	}
}

// keywordOfCategory picks the hostname token embedded in a provider's
// client hostnames.
func keywordOfCategory(c Category) string {
	return categoryKeywords[c][0]
}

// NewRegistry builds the synthetic 25-provider registry. Provider
// SP n owns 10.n.0.0/16 and 2001:db8:n::/48, with hostnames
// host-<x>.<keyword><n>.example.
func NewRegistry() *Registry {
	r := &Registry{}
	for rank := 1; rank <= 25; rank++ {
		cat := categoryOfRank(rank)
		p4 := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(rank), 0, 0}), 16)
		var a16 [16]byte
		copy(a16[:], []byte{0x20, 0x01, 0x0d, 0xb8, 0, byte(rank)})
		p6 := netip.PrefixFrom(netip.AddrFrom16(a16), 48)
		r.providers = append(r.providers, Provider{
			Name:       fmt.Sprintf("SP %d", rank),
			Rank:       rank,
			Category:   cat,
			ASN:        64500 + uint32(rank),
			Prefix4:    p4,
			Prefix6:    p6,
			hostSuffix: fmt.Sprintf("%s%d.example", keywordOfCategory(cat), rank),
		})
	}
	return r
}

// Providers returns all providers in rank order.
func (r *Registry) Providers() []Provider { return r.providers }

// ByRank returns the provider with the given SP rank (1-based).
func (r *Registry) ByRank(rank int) (Provider, bool) {
	if rank < 1 || rank > len(r.providers) {
		return Provider{}, false
	}
	return r.providers[rank-1], true
}

// Lookup maps an address to its provider (the Team Cymru substitute).
func (r *Registry) Lookup(addr netip.Addr) (Provider, bool) {
	for _, p := range r.providers {
		if p.Prefix4.Contains(addr) || p.Prefix6.Contains(addr) {
			return p, true
		}
	}
	return Provider{}, false
}

// ClientAddr returns the i-th client address of a provider,
// deterministically spread across the provider's IPv4 block (or IPv6
// when v6 is true).
func (p Provider) ClientAddr(i int, v6 bool) netip.Addr {
	if v6 {
		a := p.Prefix6.Addr().As16()
		a[13] = byte(i >> 16)
		a[14] = byte(i >> 8)
		a[15] = byte(i)
		return netip.AddrFrom16(a)
	}
	a := p.Prefix4.Addr().As4()
	// Skip .0.0 and network-ish addresses.
	n := i + 257
	a[2] = byte(n >> 8)
	a[3] = byte(n)
	return netip.AddrFrom4(a)
}

// clientHostname returns the reverse-DNS name of a client address
// within the provider, embedding the category keyword.
func (p Provider) clientHostname(addr netip.Addr) string {
	return fmt.Sprintf("host-%s.%s", strings.ReplaceAll(addr.String(), ":", "-"), p.hostSuffix)
}
