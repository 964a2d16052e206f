package ntplog

import (
	"bytes"
	"testing"

	"mntp/internal/ipasn"
	"mntp/internal/stats"
)

func TestTable1ProfilesComplete(t *testing.T) {
	profs := Table1Profiles()
	if len(profs) != 19 {
		t.Fatalf("profiles = %d, want 19", len(profs))
	}
	var clients, meas int
	stratum1 := 0
	for _, p := range profs {
		clients += p.UniqueClients
		meas += p.Measurements
		if p.Stratum == 1 {
			stratum1++
		}
	}
	// The paper's text claims 17,823,505 unique clients and
	// 209,447,922 measurements over 5 stratum-1 servers. The
	// measurement total matches the Table 1 rows exactly; the client
	// total does not (the rows sum to 15,303,436 — the text figure is
	// inconsistent with the paper's own table by ~2.52 M). We encode
	// the table rows, which are the per-server ground truth.
	if clients != 15303436 {
		t.Errorf("total clients = %d, want 15303436 (Table 1 row sum)", clients)
	}
	if meas != 209447922 {
		t.Errorf("total measurements = %d, want 209447922", meas)
	}
	if stratum1 != 5 {
		t.Errorf("stratum-1 servers = %d, want 5", stratum1)
	}
	if _, ok := ProfileByID("SU1"); !ok {
		t.Error("SU1 missing")
	}
	if _, ok := ProfileByID("XX9"); ok {
		t.Error("bogus ID resolved")
	}
}

// generateAnalyze produces and re-analyzes one server at small scale.
func generateAnalyze(t *testing.T, id string, seed int64) (*Report, ServerProfile) {
	t.Helper()
	prof, ok := ProfileByID(id)
	if !ok {
		t.Fatalf("unknown profile %s", id)
	}
	reg := ipasn.NewRegistry()
	var buf bytes.Buffer
	clients, requests, err := Generate(&buf, prof, reg, GenConfig{
		Scale: 1.0 / 20000, Seed: seed, MaxRequestsPerClient: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if clients == 0 || requests == 0 {
		t.Fatal("nothing generated")
	}
	rep, err := Analyze(&buf, reg, AnalyzeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return rep, prof
}

func TestAnalyzeRecoversTable1Fields(t *testing.T) {
	rep, prof := generateAnalyze(t, "SU1", 1)
	if rep.ServerStratum != prof.Stratum {
		t.Errorf("stratum = %d, want %d", rep.ServerStratum, prof.Stratum)
	}
	if got := rep.ipVersion(); got != "v4/v6" {
		t.Errorf("ip version = %s, want v4/v6 (dual stack)", got)
	}
	if rep.UniqueClients() < 25 {
		t.Errorf("unique clients = %d", rep.UniqueClients())
	}
	if rep.TotalMeasurements < rep.UniqueClients() {
		t.Error("measurements < clients")
	}
	row := rep.Table1Row("SU1")
	if row.ServerID != "SU1" || row.UniqueClients != rep.UniqueClients() {
		t.Errorf("row = %+v", row)
	}
}

func TestAnalyzeV4OnlyServer(t *testing.T) {
	rep, _ := generateAnalyze(t, "JW2", 2)
	if got := rep.ipVersion(); got != "v4" {
		t.Errorf("ip version = %s, want v4", got)
	}
}

func TestFilteringExcludesUnsynchronizedClients(t *testing.T) {
	prof, _ := ProfileByID("UI1")
	reg := ipasn.NewRegistry()
	var buf bytes.Buffer
	// Half the clients unsynchronized: the heuristic must drop them.
	if _, _, err := Generate(&buf, prof, reg, GenConfig{
		Scale: 1.0 / 2000, Seed: 3, UnsyncFraction: 0.5, MaxRequestsPerClient: 20,
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(&buf, reg, AnalyzeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	valid := len(rep.ValidClients())
	total := rep.UniqueClients()
	frac := float64(valid) / float64(total)
	if frac < 0.35 || frac > 0.65 {
		t.Errorf("valid fraction = %.2f with 50%% unsync population", frac)
	}
	// All surviving OWDs must be within the plausible window.
	for _, c := range rep.ValidClients() {
		for _, o := range c.OWDs {
			if o <= 0 || o >= 1200 {
				t.Fatalf("valid client retains implausible OWD %.1fms", o)
			}
		}
	}
}

func TestProviderLatencyOrdering(t *testing.T) {
	// Figure 1's four latency classes must be recoverable from the
	// analyzed min-OWDs: cloud < isp < broadband < mobile medians.
	rep, _ := generateAnalyze(t, "AG1", 4)
	med := map[ipasn.Category][]float64{}
	for _, agg := range rep.ByProvider() {
		if len(agg.MinOWDs) < 5 {
			continue
		}
		med[agg.Provider.Category] = append(med[agg.Provider.Category], agg.Summary().Median)
	}
	avg := func(c ipasn.Category) float64 { return stats.Mean(med[c]) }
	if len(med[ipasn.Cloud]) == 0 || len(med[ipasn.Mobile]) == 0 {
		t.Skip("too few clients per category at this scale")
	}
	if !(avg(ipasn.Cloud) < avg(ipasn.ISP) && avg(ipasn.ISP) < avg(ipasn.Broadband) &&
		avg(ipasn.Broadband) < avg(ipasn.Mobile)) {
		t.Errorf("category medians not ordered: cloud %.0f isp %.0f bb %.0f mobile %.0f",
			avg(ipasn.Cloud), avg(ipasn.ISP), avg(ipasn.Broadband), avg(ipasn.Mobile))
	}
	if m := avg(ipasn.Mobile); m < 300 {
		t.Errorf("mobile median %.0fms, want ≳ 400ms (paper: ~550)", m)
	}
}

func TestMobileProvidersMostlySNTP(t *testing.T) {
	rep, _ := generateAnalyze(t, "MW2", 5)
	for _, agg := range rep.ByProvider() {
		if agg.Provider.Category != ipasn.Mobile || agg.Clients < 20 {
			continue
		}
		if share := agg.SNTPShare(); share < 0.90 {
			t.Errorf("%s SNTP share = %.2f, want ≥ 0.90 (paper: >95%%)",
				agg.Provider.Name, share)
		}
	}
	// Server-wide, the majority of a public server's clients are SNTP.
	if share := rep.ProtocolShare(); share < 0.55 {
		t.Errorf("server SNTP share = %.2f, want majority", share)
	}
}

func TestISPSpecificServersMostlyNTP(t *testing.T) {
	rep, _ := generateAnalyze(t, "CI1", 6)
	if share := rep.ProtocolShare(); share > 0.45 {
		t.Errorf("ISP-specific server SNTP share = %.2f, want minority", share)
	}
}

func TestGenerateDeterministicPerSeed(t *testing.T) {
	prof, _ := ProfileByID("EN1")
	reg := ipasn.NewRegistry()
	gen := func(seed int64) []byte {
		var buf bytes.Buffer
		if _, _, err := Generate(&buf, prof, reg, GenConfig{Scale: 1.0 / 10, Seed: seed}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(gen(7), gen(7)) {
		t.Error("same seed produced different traces")
	}
	if bytes.Equal(gen(7), gen(8)) {
		t.Error("different seeds produced identical traces")
	}
}

func TestPeriodicityHeuristicAgreesWithWireShape(t *testing.T) {
	// The generator gives full NTP clients ntpd-like periodic polling
	// and SNTP clients bursty on-demand patterns; the inter-arrival
	// heuristic must agree with the wire-shape classification for the
	// overwhelming majority of clients with enough samples.
	rep, _ := generateAnalyze(t, "UI1", 9)
	agree, disagree := 0, 0
	for _, cs := range rep.Clients {
		periodic, ok := cs.pollsPeriodically()
		if !ok {
			continue
		}
		// Wire-shape says NTP ⇔ periodicity says periodic.
		if periodic == !cs.isSNTP() {
			agree++
		} else {
			disagree++
		}
	}
	if agree+disagree < 20 {
		t.Skipf("too few classifiable clients (%d)", agree+disagree)
	}
	if frac := float64(agree) / float64(agree+disagree); frac < 0.8 {
		t.Errorf("heuristics agree on %.0f%%, want ≥ 80%%", frac*100)
	}
}

func TestPollsPeriodicallyNeedsSamples(t *testing.T) {
	cs := &ClientStats{}
	if _, ok := cs.pollsPeriodically(); ok {
		t.Error("empty client judged")
	}
}
