package testbed

import (
	"testing"
	"time"

	"mntp/internal/core"
	"mntp/internal/stats"
)

func TestWiredSNTPWithCorrectionIsTight(t *testing.T) {
	// Figure 4-left, wired leg: offsets "always close to 0ms".
	tb := New(Config{Seed: 1, Access: Wired, NTPCorrection: true})
	s := tb.RunSNTP(5*time.Second, time.Hour)
	if len(s.Points) < 500 {
		t.Fatalf("points = %d", len(s.Points))
	}
	sum := stats.Summarize(s.AbsReported())
	if sum.Mean > 10 {
		t.Errorf("wired+NTP mean |offset| = %.1fms, want < 10ms", sum.Mean)
	}
	if sum.Max > 60 {
		t.Errorf("wired+NTP max |offset| = %.1fms, want < 60ms", sum.Max)
	}
}

func TestWiredSNTPWithoutCorrectionDriftsSteadily(t *testing.T) {
	// Figure 4-right, wired leg: "the drift is steady".
	tb := New(Config{Seed: 2, Access: Wired})
	s := tb.RunSNTP(5*time.Second, time.Hour)
	// The reported offset tracks the (negated) true clock error
	// closely on a wired path: measurement error stays small even as
	// offsets grow.
	errs := s.AbsError()
	if m := stats.Summarize(errs).P95; m > 10 {
		t.Errorf("wired p95 measurement error = %.1fms", m)
	}
	// And the drift accumulates visibly over the hour (18 ppm ≈ 65 ms).
	last := s.Points[len(s.Points)-1]
	if last.TrueOffset < 30*time.Millisecond {
		t.Errorf("final true offset = %v, want visible drift", last.TrueOffset)
	}
}

func TestWirelessSNTPWorseThanWired(t *testing.T) {
	// The core §3.2 finding: wireless offsets are far more variable
	// than wired under identical clock hardware.
	wired := New(Config{Seed: 3, Access: Wired, NTPCorrection: true}).
		RunSNTP(5*time.Second, time.Hour)
	wireless := New(Config{Seed: 3, Access: Wireless, Monitor: true, NTPCorrection: true}).
		RunSNTP(5*time.Second, time.Hour)

	wiredSum := stats.Summarize(wired.AbsReported())
	wlSum := stats.Summarize(wireless.AbsReported())
	if wlSum.Mean < 2*wiredSum.Mean {
		t.Errorf("wireless mean %.1fms not ≫ wired %.1fms", wlSum.Mean, wiredSum.Mean)
	}
	if wlSum.Std < 2*wiredSum.Std {
		t.Errorf("wireless std %.1fms not ≫ wired %.1fms", wlSum.Std, wiredSum.Std)
	}
	if wlSum.Max < 100 {
		t.Errorf("wireless max %.1fms lacks the paper's spikes", wlSum.Max)
	}
}

func TestCellularSNTPMatchesFigure5Envelope(t *testing.T) {
	// Figure 5: 3 h on 4G, offsets mean ≈ 192 ms, σ ≈ 55 ms,
	// max ≈ 840 ms. Match loosely: mean 120–280 ms, max > 400 ms.
	tb := New(Config{Seed: 4, Access: Cellular, GPSCorrection: true})
	s := tb.RunSNTP(5*time.Second, 3*time.Hour)
	sum := stats.Summarize(s.AbsReported())
	if sum.Mean < 120 || sum.Mean > 280 {
		t.Errorf("cellular mean |offset| = %.1fms, want 120–280ms", sum.Mean)
	}
	if sum.Max < 400 {
		t.Errorf("cellular max |offset| = %.1fms, want > 400ms", sum.Max)
	}
}

func TestMNTPBaselineExperimentShape(t *testing.T) {
	// Figure 6 conditions: wireless, NTP correction on, 5 s requests,
	// 1 h, no warm-up/regular split effects (tight cadence), drift
	// correction off. MNTP accepted offsets must stay within ~30 ms
	// while SNTP (same conditions) shows spikes several times larger.
	params := core.DefaultParams(PoolName)
	params.WarmupPeriod = 10 * time.Minute
	params.WarmupWaitTime = 5 * time.Second
	params.RegularWaitTime = 5 * time.Second
	params.ResetPeriod = 2 * time.Hour

	mntp := New(Config{Seed: 5, Access: Wireless, Monitor: true, NTPCorrection: true}).
		RunMNTP(params, time.Hour, false)
	sntp := New(Config{Seed: 5, Access: Wireless, Monitor: true, NTPCorrection: true}).
		RunSNTP(5*time.Second, time.Hour)

	mMax := stats.MaxAbs(mntp.Reported())
	sMax := stats.MaxAbs(sntp.Reported())
	if mMax > 35 {
		t.Errorf("MNTP max |offset| = %.1fms, want ≤ 35ms", mMax)
	}
	if sMax < 2.5*mMax {
		t.Errorf("SNTP max %.1fms not ≫ MNTP max %.1fms", sMax, mMax)
	}
	if mntp.Deferred == 0 {
		t.Error("MNTP never deferred on a stressed channel")
	}
	rejectedCount := 0
	for _, p := range mntp.Points {
		if !p.Accepted {
			rejectedCount++
		}
	}
	if rejectedCount == 0 {
		t.Error("MNTP filter rejected nothing")
	}
}

func TestMNTPLongRunCorrectedResiduals(t *testing.T) {
	// Figure 12 conditions: 4 h, wireless, no NTP correction, clock
	// free-running. MNTP's corrected drift values stay under ~20 ms.
	params := core.DefaultParams(PoolName)
	params.WarmupPeriod = 30 * time.Minute
	params.WarmupWaitTime = 5 * time.Second
	params.RegularWaitTime = 5 * time.Second
	params.ResetPeriod = 5 * time.Hour

	tb := New(Config{Seed: 6, Access: Wireless, Monitor: true})
	s := tb.RunMNTP(params, 4*time.Hour, false)

	resid := s.CorrectedResiduals()
	if len(resid) < 100 {
		t.Fatalf("corrected residuals = %d", len(resid))
	}
	if m := stats.MaxAbs(resid); m > 25 {
		t.Errorf("max corrected residual = %.1fms, want ≤ 25ms", m)
	}
	// Meanwhile the raw true offset drifted far beyond that.
	last := s.Points[len(s.Points)-1]
	if last.TrueOffset.Abs() < 100*time.Millisecond {
		t.Errorf("clock only drifted %v in 4h; scenario too tame", last.TrueOffset)
	}
}

func TestSeriesAccessors(t *testing.T) {
	s := &Series{Points: []Point{
		{Offset: -30 * time.Millisecond, Accepted: true, Predicted: -28 * time.Millisecond, PredOK: true},
		{Offset: 500 * time.Millisecond, Accepted: false},
		{Offset: 10 * time.Millisecond, Accepted: true},
	}}
	if got := s.Reported(); len(got) != 2 || got[0] != -30 {
		t.Errorf("Reported = %v", got)
	}
	if got := s.AbsReported(); got[0] != 30 || got[1] != 10 {
		t.Errorf("AbsReported = %v", got)
	}
	if got := s.CorrectedResiduals(); len(got) != 1 || got[0] != -2 {
		t.Errorf("CorrectedResiduals = %v", got)
	}
}

func TestMonitorKeepsChannelVariable(t *testing.T) {
	// With the MN active, the channel must alternate between favorable
	// and unfavorable regimes over an hour.
	tb := New(Config{Seed: 7, Access: Wireless, Monitor: true})
	tb.startMonitor(time.Hour)
	favorable, unfavorable := 0, 0
	tb.Sched.Every(time.Second, 10*time.Second, func() bool {
		st := tb.Channel.StateNow()
		if st.RSSI > -75 && st.Noise < -70 && st.RSSI-st.Noise >= 20 {
			favorable++
		} else {
			unfavorable++
		}
		return tb.Sched.Now() < time.Hour
	})
	tb.Sched.Run()
	total := favorable + unfavorable
	if favorable < total/10 {
		t.Errorf("favorable %d/%d: channel never calm", favorable, total)
	}
	if unfavorable < total/10 {
		t.Errorf("unfavorable %d/%d: channel never stressed", unfavorable, total)
	}
}
