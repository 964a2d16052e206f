package ipasn

import (
	"net/netip"
	"testing"
	"testing/quick"
)

func TestRegistryStructure(t *testing.T) {
	r := NewRegistry()
	ps := r.Providers()
	if len(ps) != 25 {
		t.Fatalf("providers = %d, want 25", len(ps))
	}
	counts := map[Category]int{}
	for _, p := range ps {
		counts[p.Category]++
	}
	if counts[Cloud] != 3 || counts[ISP] != 6 || counts[Broadband] != 12 || counts[Mobile] != 4 {
		t.Errorf("category counts = %v, want 3/6/12/4", counts)
	}
}

func TestCategoryOfRankBoundaries(t *testing.T) {
	cases := map[int]Category{
		1: Cloud, 3: Cloud, 4: ISP, 9: ISP,
		10: Broadband, 21: Broadband, 22: Mobile, 25: Mobile,
	}
	for rank, want := range cases {
		if got := categoryOfRank(rank); got != want {
			t.Errorf("rank %d = %v, want %v", rank, got, want)
		}
	}
}

func TestLookupRoundTrip(t *testing.T) {
	r := NewRegistry()
	for _, p := range r.Providers() {
		for _, i := range []int{0, 1, 5000} {
			addr := p.ClientAddr(i, false)
			got, ok := r.Lookup(addr)
			if !ok || got.Rank != p.Rank {
				t.Errorf("lookup %v -> %v (ok=%v), want %s", addr, got.Name, ok, p.Name)
			}
		}
		addr6 := p.ClientAddr(3, true)
		got, ok := r.Lookup(addr6)
		if !ok || got.Rank != p.Rank {
			t.Errorf("v6 lookup %v -> %v, want %s", addr6, got.Name, p.Name)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	r := NewRegistry()
	if _, ok := r.Lookup(netip.MustParseAddr("192.0.2.1")); ok {
		t.Error("unowned address resolved")
	}
}

func TestByRank(t *testing.T) {
	r := NewRegistry()
	p, ok := r.ByRank(22)
	if !ok || p.Category != Mobile {
		t.Errorf("rank 22 = %+v", p)
	}
	if _, ok := r.ByRank(0); ok {
		t.Error("rank 0 resolved")
	}
	if _, ok := r.ByRank(26); ok {
		t.Error("rank 26 resolved")
	}
}

func TestClassifyHostname(t *testing.T) {
	cases := map[string]Category{
		"device-1.mobile22.example":      Mobile,
		"lte-device.carrier.example":     Mobile,
		"ip-10-1-2-3.cloud1.example":     Cloud,
		"ec2.aws.example":                Cloud,
		"cpe-5.dsl.broadband14.example":  Broadband,
		"c-73-1.cable-modem.example":     Broadband,
		"core1.isp5.example":             ISP,
		"something.unrelated.example":    unknown,
		"HOST.MOBILE2.EXAMPLE":           Mobile, // case-insensitive
		"wireless-ap.university.example": Mobile,
	}
	for host, want := range cases {
		if got := classifyHostname(host); got != want {
			t.Errorf("classifyHostname(%q) = %v, want %v", host, got, want)
		}
	}
}

func TestProviderHostnamesClassifyToOwnCategory(t *testing.T) {
	// The generator's hostnames must round-trip through the heuristic.
	r := NewRegistry()
	for _, p := range r.Providers() {
		host := p.clientHostname(p.ClientAddr(7, false))
		if got := classifyHostname(host); got != p.Category {
			t.Errorf("%s hostname %q classified as %v", p.Name, host, got)
		}
	}
}

func TestCategoryString(t *testing.T) {
	if Cloud.String() != "cloud" || Mobile.String() != "mobile" || unknown.String() != "unknown" {
		t.Error("category names wrong")
	}
}

// Property: distinct client indices within one provider yield
// distinct IPv4 addresses (up to the block capacity).
func TestQuickClientAddrInjective(t *testing.T) {
	r := NewRegistry()
	p, _ := r.ByRank(12)
	f := func(a, b uint16) bool {
		ia, ib := int(a%60000), int(b%60000)
		if ia == ib {
			return true
		}
		return p.ClientAddr(ia, false) != p.ClientAddr(ib, false)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
