// Package experiments contains one runner per table and figure of the
// paper's evaluation. Each runner builds the relevant scenario,
// executes it in virtual time, and returns an Outcome bundling the
// rendered text (tables/ASCII plots), the key measured metrics, and
// the paper's reported targets for side-by-side comparison in
// EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"mntp/internal/core"
	"mntp/internal/report"
	"mntp/internal/stats"
	"mntp/internal/testbed"
)

// Options tune experiment scale.
type Options struct {
	// Seed drives all randomness (default 2016).
	Seed int64
	// Quick shrinks durations/scales so benchmarks and CI runs finish
	// fast; the full settings match the paper's experiment durations.
	Quick bool
}

func (o *Options) applyDefaults() {
	if o.Seed == 0 {
		o.Seed = 2016
	}
}

// logScale is the §3.1 trace scale.
func (o Options) logScale() float64 {
	if o.Quick {
		return 1.0 / 20000
	}
	return 1.0 / 2000
}

// Metric pairs a measured value with the paper's reported target.
type Metric struct {
	Name     string
	Measured float64
	Paper    float64 // 0 when the paper gives no number
	Unit     string
}

// Outcome is one experiment's result.
type Outcome struct {
	ID      string
	Title   string
	Text    string
	Metrics []Metric
}

// metric appends a metric.
func (o *Outcome) metric(name string, measured, paper float64, unit string) {
	o.Metrics = append(o.Metrics, Metric{Name: name, Measured: measured, Paper: paper, Unit: unit})
}

// MetricsTable renders the paper-vs-measured comparison.
func (o *Outcome) MetricsTable() string {
	t := report.NewTable("metric", "measured", "paper", "unit")
	for _, m := range o.Metrics {
		paper := "-"
		if m.Paper != 0 {
			paper = fmt.Sprintf("%.2f", m.Paper)
		}
		t.AddRow(m.Name, m.Measured, paper, m.Unit)
	}
	return t.String()
}

// durations returns (baseline 1 h, cellular 3 h, long 4 h) or the
// quick equivalents.
func (o Options) durations() (base, cell, long time.Duration) {
	if o.Quick {
		return 20 * time.Minute, 30 * time.Minute, 60 * time.Minute
	}
	return time.Hour, 3 * time.Hour, 4 * time.Hour
}

// baselineMNTPParams returns the §5.1 head-to-head configuration:
// requests every 5 s, drift correction off (applied by the caller via
// updateClock=false).
func baselineMNTPParams(base time.Duration) core.Params {
	p := core.DefaultParams(testbed.PoolName)
	p.DisablePollJitter = true // paper-figure reproduction: exact cadence
	p.WarmupPeriod = base / 6
	p.WarmupWaitTime = 5 * time.Second
	p.RegularWaitTime = 5 * time.Second
	p.ResetPeriod = 2 * base
	return p
}

// seriesPlot renders offset series against elapsed minutes.
func seriesPlot(title string, series ...*testbed.Series) string {
	p := report.NewPlot(title, "minutes", "reported offset (ms)")
	markers := []rune{'+', 'o', 'x', '#'}
	for i, s := range series {
		var xs, ys []float64
		var rx, ry []float64
		for _, pt := range s.Points {
			x := pt.Elapsed.Minutes()
			y := pt.Offset.Seconds() * 1000
			if pt.Accepted {
				xs = append(xs, x)
				ys = append(ys, y)
			} else {
				rx = append(rx, x)
				ry = append(ry, y)
			}
		}
		p.Add(report.Series{Name: s.Name, Marker: markers[i%len(markers)], X: xs, Y: ys})
		if len(rx) > 0 {
			p.Add(report.Series{Name: s.Name + "-rejected", Marker: 'r', X: rx, Y: ry})
		}
	}
	return p.String()
}

// Figure3 documents the testbed topology by constructing it and
// describing the realized components — the closest executable
// equivalent of the paper's architecture diagram.
func Figure3(opt Options) Outcome {
	opt.applyDefaults()
	tb := testbed.New(testbed.Config{Seed: opt.Seed, Access: testbed.Wireless, Monitor: true})
	var b strings.Builder
	fmt.Fprintf(&b, "Testbed topology (Figure 3):\n")
	fmt.Fprintf(&b, "  WAP: simulated 802.11 channel, tx power %.0f dBm (programmable 0-20)\n",
		tb.Channel.TxPower())
	fmt.Fprintf(&b, "  TN:  oscillator clock, wireless last hop\n")
	fmt.Fprintf(&b, "  MN:  ping-feedback interference controller (cross traffic + power)\n")
	fmt.Fprintf(&b, "  Pool %q with %d members behind wired backbone segments:\n",
		testbed.PoolName, len(tb.Members))
	for _, m := range tb.Members {
		fmt.Fprintf(&b, "    %s (stratum %d)\n", m.Name, m.Stratum)
	}
	out := Outcome{ID: "figure3", Title: "Testbed architecture", Text: b.String()}
	out.metric("pool members", float64(len(tb.Members)), 0, "count")
	return out
}

// Figure4 runs SNTP in the four §3.2 conditions: wired/wireless ×
// with/without NTP clock correction.
func Figure4(opt Options) Outcome {
	opt.applyDefaults()
	base, _, _ := opt.durations()
	run := func(access testbed.Access, ntp bool, seedOff int64) *testbed.Series {
		tb := testbed.New(testbed.Config{
			Seed: opt.Seed + seedOff, Access: access,
			Monitor: access == testbed.Wireless, NTPCorrection: ntp,
		})
		s := tb.RunSNTP(5*time.Second, base)
		if access == testbed.Wireless {
			s.Name = "wireless"
		} else {
			s.Name = "wired"
		}
		return s
	}

	wiredNTP := run(testbed.Wired, true, 1)
	wirelessNTP := run(testbed.Wireless, true, 1)
	wiredFree := run(testbed.Wired, false, 2)
	wirelessFree := run(testbed.Wireless, false, 2)

	var b strings.Builder
	b.WriteString(seriesPlot("Figure 4 (left): SNTP offsets with NTP clock correction", wiredNTP, wirelessNTP))
	b.WriteString("\n")
	b.WriteString(seriesPlot("Figure 4 (right): SNTP offsets without NTP clock correction", wiredFree, wirelessFree))

	out := Outcome{ID: "figure4", Title: "SNTP wired vs wireless, with/without NTP correction", Text: b.String()}
	wn := stats.Summarize(wirelessNTP.AbsReported())
	wf := stats.Summarize(wirelessFree.AbsReported())
	wd := stats.Summarize(wiredNTP.AbsReported())
	out.metric("wireless+NTP mean |offset|", wn.Mean, 31, "ms")
	out.metric("wireless+NTP std", wn.Std, 47, "ms")
	out.metric("wireless+NTP max", wn.Max, 600, "ms")
	out.metric("wireless free mean |offset|", wf.Mean, 118, "ms")
	out.metric("wireless free std", wf.Std, 133, "ms")
	out.metric("wired+NTP mean |offset|", wd.Mean, 4, "ms")
	out.metric("wired+NTP std", wd.Std, 7, "ms")
	return out
}

// Figure5 runs SNTP on the cellular path for the §3.3 duration.
func Figure5(opt Options) Outcome {
	opt.applyDefaults()
	_, cell, _ := opt.durations()
	tb := testbed.New(testbed.Config{Seed: opt.Seed + 5, Access: testbed.Cellular, GPSCorrection: true})
	s := tb.RunSNTP(5*time.Second, cell)
	s.Name = "sntp-4g"

	out := Outcome{
		ID: "figure5", Title: "SNTP offsets on a 4G network",
		Text: seriesPlot("Figure 5: SNTP clock offsets on 4G", s),
	}
	sum := stats.Summarize(s.AbsReported())
	out.metric("mean |offset|", sum.Mean, 192, "ms")
	out.metric("std", sum.Std, 55, "ms")
	out.metric("max", sum.Max, 840, "ms")
	return out
}

// figure6Runs executes the paired SNTP/MNTP baseline comparison under
// the given correction setting and returns both series.
func figure6Runs(opt Options, ntpCorrection bool, seedOff int64) (sntp, mntp *testbed.Series) {
	base, _, _ := opt.durations()
	cfgS := testbed.Config{Seed: opt.Seed + seedOff, Access: testbed.Wireless,
		Monitor: true, NTPCorrection: ntpCorrection}
	sntp = testbed.New(cfgS).RunSNTP(5*time.Second, base)
	mntp = testbed.New(cfgS).RunMNTP(baselineMNTPParams(base), base, false)
	return sntp, mntp
}

// Figure6 is the headline baseline: SNTP vs MNTP, wireless, with NTP
// clock correction.
func Figure6(opt Options) Outcome {
	opt.applyDefaults()
	sntp, mntp := figure6Runs(opt, true, 6)
	out := Outcome{
		ID: "figure6", Title: "SNTP vs MNTP on wireless with NTP clock correction",
		Text: seriesPlot("Figure 6: SNTP vs MNTP offsets (wireless, NTP-corrected clock)", sntp, mntp),
	}
	sMax := stats.MaxAbs(sntp.Reported())
	mMax := stats.MaxAbs(mntp.Reported())
	out.metric("SNTP max |offset|", sMax, 292, "ms")
	out.metric("MNTP max |offset|", mMax, 23, "ms")
	improvement := 0.0
	if mMax > 0 {
		improvement = sMax / mMax
	}
	out.metric("improvement factor", improvement, 12, "x")
	return out
}

// Figure7 records the signals-and-selection view of the Figure 6 MNTP
// run: RSSI/noise traces plus accepted and rejected offsets.
func Figure7(opt Options) Outcome {
	opt.applyDefaults()
	base, _, _ := opt.durations()
	tb := testbed.New(testbed.Config{Seed: opt.Seed + 6, Access: testbed.Wireless,
		Monitor: true, NTPCorrection: true})
	s := tb.RunMNTP(baselineMNTPParams(base), base, false)

	sig := report.NewPlot("Figure 7: signals (RSSI '.', noise 'n') and selection", "minutes", "dBm")
	var rx, ry, nx, ny []float64
	for _, e := range s.Events {
		x := e.Elapsed.Minutes()
		rx = append(rx, x)
		ry = append(ry, e.Hints.RSSI)
		nx = append(nx, x)
		ny = append(ny, e.Hints.Noise)
	}
	sig.Add(report.Series{Name: "rssi", Marker: '.', X: rx, Y: ry})
	sig.Add(report.Series{Name: "noise", Marker: 'n', X: nx, Y: ny})

	var b strings.Builder
	b.WriteString(sig.String())
	b.WriteString("\n")
	b.WriteString(seriesPlot("Figure 7 (offsets): accepted vs rejected", s))

	out := Outcome{ID: "figure7", Title: "Signals and selection plot", Text: b.String()}
	accepted, rejected := 0, 0
	for _, p := range s.Points {
		if p.Accepted {
			accepted++
		} else {
			rejected++
		}
	}
	out.metric("accepted offsets", float64(accepted), 0, "count")
	out.metric("rejected offsets", float64(rejected), 0, "count")
	out.metric("deferred requests", float64(s.Deferred), 0, "count")
	return out
}

// Figure8 repeats Figure 6 without NTP clock correction.
func Figure8(opt Options) Outcome {
	opt.applyDefaults()
	sntp, mntp := figure6Runs(opt, false, 8)
	out := Outcome{
		ID: "figure8", Title: "SNTP vs MNTP on wireless without NTP clock correction",
		Text: seriesPlot("Figure 8: SNTP vs MNTP offsets (free-running clock)", sntp, mntp),
	}
	sMax := stats.MaxAbs(sntp.Reported())
	// Without correction MNTP's quality metric is the corrected
	// residual around its drift trend line (the paper: "within 4.5ms
	// of the reference clock", max offset 24 ms).
	resid := mntp.CorrectedResiduals()
	mMax := stats.MaxAbs(resid)
	out.metric("SNTP max |offset|", sMax, 450, "ms")
	out.metric("MNTP max |corrected residual|", mMax, 24, "ms")
	out.metric("MNTP mean |corrected residual|", stats.Mean(absAll(resid)), 4.5, "ms")
	if mMax > 0 {
		out.metric("improvement factor", sMax/mMax, 17, "x")
	}
	return out
}

// Figure9 compares SNTP on a wired network against MNTP on wireless,
// both with NTP correction.
func Figure9(opt Options) Outcome {
	opt.applyDefaults()
	base, _, _ := opt.durations()
	sntp := testbed.New(testbed.Config{Seed: opt.Seed + 9, Access: testbed.Wired, NTPCorrection: true}).
		RunSNTP(5*time.Second, base)
	sntp.Name = "sntp-wired"
	mntp := testbed.New(testbed.Config{Seed: opt.Seed + 9, Access: testbed.Wireless,
		Monitor: true, NTPCorrection: true}).
		RunMNTP(baselineMNTPParams(base), base, false)
	mntp.Name = "mntp-wireless"

	out := Outcome{
		ID: "figure9", Title: "SNTP (wired) vs MNTP (wireless), NTP-corrected",
		Text: seriesPlot("Figure 9: wired SNTP vs wireless MNTP offsets", sntp, mntp),
	}
	out.metric("SNTP(wired) max |offset|", stats.MaxAbs(sntp.Reported()), 50, "ms")
	out.metric("MNTP(wireless) max |offset|", stats.MaxAbs(mntp.Reported()), 20, "ms")
	return out
}

// Figure10 repeats Figure 9 without NTP clock correction.
func Figure10(opt Options) Outcome {
	opt.applyDefaults()
	base, _, _ := opt.durations()
	sntp := testbed.New(testbed.Config{Seed: opt.Seed + 10, Access: testbed.Wired}).
		RunSNTP(5*time.Second, base)
	sntp.Name = "sntp-wired"
	mntp := testbed.New(testbed.Config{Seed: opt.Seed + 10, Access: testbed.Wireless, Monitor: true}).
		RunMNTP(baselineMNTPParams(base), base, false)
	mntp.Name = "mntp-wireless"

	out := Outcome{
		ID: "figure10", Title: "SNTP (wired) vs MNTP (wireless), free-running clocks",
		Text: seriesPlot("Figure 10: wired SNTP vs wireless MNTP, no correction", sntp, mntp),
	}
	// Both clocks drift; compare measurement quality via errors and
	// corrected residuals.
	out.metric("SNTP(wired) max |meas error|", stats.MaxAbs(sntp.AbsError()), 50, "ms")
	out.metric("MNTP(wireless) max |corrected residual|",
		stats.MaxAbs(mntp.CorrectedResiduals()), 20, "ms")
	return out
}

// Figure12 is the 4-hour long run: SNTP vs MNTP, free-running clock.
func Figure12(opt Options) Outcome {
	opt.applyDefaults()
	_, _, long := opt.durations()
	cfg := testbed.Config{Seed: opt.Seed + 12, Access: testbed.Wireless, Monitor: true}
	sntp := testbed.New(cfg).RunSNTP(5*time.Second, long)
	params := baselineMNTPParams(long)
	params.WarmupPeriod = long / 8
	params.ResetPeriod = 2 * long
	mntp := testbed.New(cfg).RunMNTP(params, long, false)

	out := Outcome{
		ID: "figure12", Title: "4-hour SNTP vs MNTP, free-running clock",
		Text: seriesPlot("Figure 12: long-run SNTP vs MNTP offsets", sntp, mntp),
	}
	out.metric("SNTP max |offset|", stats.MaxAbs(sntp.Reported()), 392, "ms")
	out.metric("MNTP max |corrected residual|",
		stats.MaxAbs(mntp.CorrectedResiduals()), 20, "ms")
	out.metric("MNTP requests", float64(mntp.Requests), 0, "count")
	return out
}

func absAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		if x < 0 {
			x = -x
		}
		out[i] = x
	}
	return out
}

// sortOutcomes orders outcomes by ID for stable rendering.
func sortOutcomes(os []Outcome) {
	sort.Slice(os, func(i, j int) bool { return os[i].ID < os[j].ID })
}
