package experiments

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"time"

	"mntp/internal/ipasn"
	"mntp/internal/ntplog"
	"mntp/internal/report"
	"mntp/internal/stats"
	"mntp/internal/testbed"
	"mntp/internal/tuner"
)

// generateDataset produces and analyzes the 19-server synthetic
// dataset in memory, returning per-server reports keyed by ID.
func generateDataset(opt Options) (map[string]*ntplog.Report, *ipasn.Registry, error) {
	reg := ipasn.NewRegistry()
	reports := make(map[string]*ntplog.Report)
	for _, prof := range ntplog.Table1Profiles() {
		var buf bytes.Buffer
		if _, _, err := ntplog.Generate(&buf, prof, reg, ntplog.GenConfig{
			Scale: opt.logScale(), Seed: opt.Seed,
		}); err != nil {
			return nil, nil, fmt.Errorf("generate %s: %w", prof.ID, err)
		}
		rep, err := ntplog.Analyze(&buf, reg, ntplog.AnalyzeConfig{})
		if err != nil {
			return nil, nil, fmt.Errorf("analyze %s: %w", prof.ID, err)
		}
		reports[prof.ID] = rep
	}
	return reports, reg, nil
}

// Table1 regenerates the client-statistics table from the synthetic
// pcap dataset (scaled; the implied full-scale counts use 1/scale).
func Table1(opt Options) Outcome {
	opt.applyDefaults()
	reports, _, err := generateDataset(opt)
	if err != nil {
		return Outcome{ID: "table1", Title: "NTP log client statistics", Text: "error: " + err.Error()}
	}

	t := report.NewTable("Server", "UniqueClients", "Stratum", "IPVersion",
		"Measurements", "ImpliedFullClients")
	var totalClients, totalMeas int
	for _, prof := range ntplog.Table1Profiles() {
		rep := reports[prof.ID]
		row := rep.Table1Row(prof.ID)
		t.AddRow(row.ServerID, row.UniqueClients, int(row.Stratum), row.IPVersion,
			row.TotalMeasurements, int(float64(row.UniqueClients)/opt.logScale()))
		totalClients += row.UniqueClients
		totalMeas += row.TotalMeasurements
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Table 1 (synthetic dataset at scale %.5f):\n\n", opt.logScale())
	b.WriteString(t.String())

	out := Outcome{ID: "table1", Title: "Summary of client statistics in NTP logs", Text: b.String()}
	out.metric("servers", float64(len(reports)), 19, "count")
	out.metric("scaled clients", float64(totalClients), 0, "count")
	out.metric("scaled measurements", float64(totalMeas), 0, "count")
	// Structural check: MW2 has the largest client population in
	// Table 1; the reproduction must preserve the ordering.
	largest := ""
	largestN := -1
	for id, rep := range reports {
		if rep.UniqueClients() > largestN {
			largest, largestN = id, rep.UniqueClients()
		}
	}
	out.metric("largest server is MW2", boolMetric(largest == "MW2"), 1, "bool")
	return out
}

// figure1Servers are the three servers the paper shows (the rest
// "exhibited similar characteristics").
var figure1Servers = []string{"AG1", "JW2", "SU1"}

// Figure1 reproduces the min-OWD comparison and CDFs per provider.
func Figure1(opt Options) Outcome {
	opt.applyDefaults()
	reports, _, err := generateDataset(opt)
	if err != nil {
		return Outcome{ID: "figure1", Title: "Min OWD per provider", Text: "error: " + err.Error()}
	}

	var b strings.Builder
	categoryMedians := map[ipasn.Category][]float64{}
	for _, id := range figure1Servers {
		rep := reports[id]
		t := report.NewTable("Provider", "Category", "Clients", "MedianMinOWD", "P25", "P75")
		var boxes []report.BoxRow
		var cdfSeries []report.Series
		markers := "cimb"
		for _, agg := range rep.ByProvider() {
			if len(agg.MinOWDs) == 0 {
				continue
			}
			sum := agg.Summary()
			t.AddRow(agg.Provider.Name, agg.Provider.Category.String(),
				agg.Clients, sum.Median, sum.P25, sum.P75)
			boxes = append(boxes, report.BoxRow{
				Label: agg.Provider.Name,
				Min:   sum.Min, P25: sum.P25, Median: sum.Median,
				P75: sum.P75, Max: sum.Max,
			})
			categoryMedians[agg.Provider.Category] = append(
				categoryMedians[agg.Provider.Category], sum.Median)
			// One CDF per category exemplar for readability.
			if agg.Provider.Rank == 1 || agg.Provider.Rank == 4 ||
				agg.Provider.Rank == 10 || agg.Provider.Rank == 22 {
				c := stats.NewCDF(agg.MinOWDs)
				xs, ps := c.Points(40)
				cdfSeries = append(cdfSeries, report.Series{
					Name:   agg.Provider.Name,
					Marker: rune(markers[len(cdfSeries)%len(markers)]),
					X:      xs, Y: ps,
				})
			}
		}
		fmt.Fprintf(&b, "Server %s — min OWD per provider:\n\n%s\n", id, t.String())
		b.WriteString(report.BoxPlot(
			fmt.Sprintf("Server %s: min OWD box plot per provider (Figure 1 left)", id),
			"ms", boxes, 64))
		b.WriteString("\n")
		b.WriteString(report.CDFPlot(
			fmt.Sprintf("Server %s: CDF of min OWDs (category exemplars)", id), "ms", cdfSeries))
		b.WriteString("\n")
	}

	out := Outcome{ID: "figure1", Title: "Min OWDs of clients per service provider", Text: b.String()}
	out.metric("cloud median min-OWD", stats.Mean(categoryMedians[ipasn.Cloud]), 40, "ms")
	out.metric("isp median min-OWD", stats.Mean(categoryMedians[ipasn.ISP]), 50, "ms")
	out.metric("broadband median min-OWD", stats.Mean(categoryMedians[ipasn.Broadband]), 250, "ms")
	out.metric("mobile median min-OWD", stats.Mean(categoryMedians[ipasn.Mobile]), 550, "ms")
	return out
}

// Figure2 reproduces the SNTP-vs-NTP protocol shares.
func Figure2(opt Options) Outcome {
	opt.applyDefaults()
	reports, _, err := generateDataset(opt)
	if err != nil {
		return Outcome{ID: "figure2", Title: "SNTP vs NTP shares", Text: "error: " + err.Error()}
	}

	var b strings.Builder
	t := report.NewTable("Server", "SNTP%", "NTP%")
	var publicShares, ispShares []float64
	for _, prof := range ntplog.Table1Profiles() {
		share := reports[prof.ID].ProtocolShare() * 100
		t.AddRow(prof.ID, share, 100-share)
		if prof.ISPSpecific {
			ispShares = append(ispShares, share)
		} else {
			publicShares = append(publicShares, share)
		}
	}
	fmt.Fprintf(&b, "Figure 2 (left): protocol share per server:\n\n%s\n", t.String())

	// Per-provider shares (Figure 2 right shows SU1; at reduced scale
	// per-provider populations on a single small server are too thin,
	// so aggregate over all public servers — the paper notes the
	// result is consistent across servers).
	perProvider := map[int]*struct{ clients, sntp int }{}
	order := []int{}
	for _, prof := range ntplog.Table1Profiles() {
		if prof.ISPSpecific {
			continue
		}
		for _, agg := range reports[prof.ID].ByProvider() {
			e := perProvider[agg.Provider.Rank]
			if e == nil {
				e = &struct{ clients, sntp int }{}
				perProvider[agg.Provider.Rank] = e
				order = append(order, agg.Provider.Rank)
			}
			e.clients += agg.Clients
			e.sntp += agg.SNTP
		}
	}
	sort.Ints(order)
	reg := ipasn.NewRegistry()
	t2 := report.NewTable("Provider", "Category", "Clients", "SNTP%")
	var mobileShares []float64
	for _, rank := range order {
		e := perProvider[rank]
		p, _ := reg.ByRank(rank)
		share := 0.0
		if e.clients > 0 {
			share = float64(e.sntp) / float64(e.clients) * 100
		}
		t2.AddRow(p.Name, p.Category.String(), e.clients, share)
		if p.Category == ipasn.Mobile && e.clients >= 10 {
			mobileShares = append(mobileShares, share)
		}
	}
	fmt.Fprintf(&b, "Figure 2 (right): provider shares (public servers):\n\n%s", t2.String())

	out := Outcome{ID: "figure2", Title: "SNTP vs NTP protocol usage", Text: b.String()}
	out.metric("public servers mean SNTP share", stats.Mean(publicShares), 0, "%")
	out.metric("ISP-specific servers mean SNTP share", stats.Mean(ispShares), 0, "%")
	out.metric("mobile providers mean SNTP share", stats.Mean(mobileShares), 95, "%")
	return out
}

// tunerTrace collects the §5.3 logging trace (4 h at 5 s, free
// clock, stressed channel).
func tunerTrace(opt Options) *tuner.Trace {
	_, _, long := opt.durations()
	tb := testbed.New(testbed.Config{Seed: opt.Seed + 53, Access: testbed.Wireless, Monitor: true})
	sources := []string{testbed.PoolName, testbed.PoolName, testbed.PoolName}
	return tuner.Collect(tb, sources, 5*time.Second, long)
}

// Table2 evaluates the six sample configurations on a collected
// trace.
func Table2(opt Options) Outcome {
	opt.applyDefaults()
	tr := tunerTrace(opt)

	t := report.NewTable("Config", "warmupPeriod(min)", "warmupWaitTime(min)",
		"regularWaitTime(min)", "resetPeriod(min)", "RMSE(ms)", "Requests")
	paperRMSE := []float64{13.08, 11.66, 11.09, 10.86, 9.27, 8.9}
	paperReqs := []float64{239, 316, 387, 534, 1210, 2913}
	out := Outcome{ID: "table2", Title: "MNTP tuner sample configurations"}
	var firstRMSE, lastRMSE float64
	var firstReq, lastReq int
	for i, cfg := range tuner.Table2Configs() {
		res := tuner.Emulate(tr, cfg.Params())
		t.AddRow(cfg.Name, cfg.WarmupMin, cfg.WarmupWaitMin, cfg.RegularWaitMin,
			cfg.ResetMin, res.RMSE, res.Requests)
		out.metric(fmt.Sprintf("config %s RMSE", cfg.Name), res.RMSE, paperRMSE[i], "ms")
		out.metric(fmt.Sprintf("config %s requests", cfg.Name), float64(res.Requests), paperReqs[i], "count")
		if i == 0 {
			firstRMSE, firstReq = res.RMSE, res.Requests
		}
		lastRMSE, lastReq = res.RMSE, res.Requests
	}
	out.Text = "Table 2 (trace-driven on the collected log):\n\n" + t.String()
	out.metric("RMSE improves config1->6", boolMetric(lastRMSE <= firstRMSE), 1, "bool")
	out.metric("requests grow config1->6", boolMetric(lastReq > firstReq), 1, "bool")
	return out
}

// Figure11 plots the achievable corrected offsets per configuration.
func Figure11(opt Options) Outcome {
	opt.applyDefaults()
	tr := tunerTrace(opt)

	p := report.NewPlot("Figure 11: RMSE per tuner configuration", "configuration #", "RMSE (ms)")
	var xs, ys []float64
	for i, cfg := range tuner.Table2Configs() {
		res := tuner.Emulate(tr, cfg.Params())
		xs = append(xs, float64(i+1))
		ys = append(ys, res.RMSE)
	}
	p.Add(report.Series{Name: "rmse", Marker: '#', X: xs, Y: ys})

	out := Outcome{ID: "figure11", Title: "Achievable clock offsets per configuration", Text: p.String()}
	out.metric("best config RMSE", stats.Min(ys), 8.9, "ms")
	out.metric("worst config RMSE", stats.Max(ys), 13.08, "ms")
	return out
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// All runs every experiment.
func All(opt Options) []Outcome {
	outs := []Outcome{
		Table1(opt), Figure1(opt), Figure2(opt), Figure3(opt),
		Figure4(opt), Figure5(opt), Figure6(opt), Figure7(opt),
		Figure8(opt), Figure9(opt), Figure10(opt), Figure11(opt),
		Figure12(opt), Table2(opt),
	}
	sortOutcomes(outs)
	return outs
}
