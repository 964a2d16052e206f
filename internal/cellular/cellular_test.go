package cellular

import (
	"testing"
	"time"

	"mntp/internal/netsim"
	"mntp/internal/stats"
)

func TestUplinkSlowerThanDownlink(t *testing.T) {
	p := NewPath(LTE2016(), 1)
	var up, down stats.Online
	now := time.Duration(0)
	for i := 0; i < 3000; i++ {
		now += 5 * time.Second
		if d, lost := p.SampleOneWay(now, netsim.Uplink); !lost {
			up.Add(d.Seconds())
		}
		if d, lost := p.SampleOneWay(now, netsim.Downlink); !lost {
			down.Add(d.Seconds())
		}
	}
	if up.Mean() <= down.Mean()+0.1 {
		t.Errorf("uplink mean %.3fs not ≫ downlink %.3fs", up.Mean(), down.Mean())
	}
	// The implied SNTP offset bias (up−down)/2 should be near the
	// paper's Figure 5 mean of ~192 ms.
	bias := (up.Mean() - down.Mean()) / 2
	if bias < 0.10 || bias > 0.30 {
		t.Errorf("offset bias = %.3fs, want 0.10–0.30s", bias)
	}
}

func TestRRCPromotionAfterIdle(t *testing.T) {
	prof := LTE2016()
	prof.Sigma = 0 // deterministic base delay
	prof.UplinkGrantMean = 1
	prof.LossProb = 0
	p := NewPath(prof, 2)

	// Continuous activity at 5 s spacing (below the 10 s idle
	// timeout): no promotion after the first packet.
	now := time.Duration(0)
	p.SampleOneWay(now, netsim.Uplink) // first packet promotes
	now += 5 * time.Second
	active, _ := p.SampleOneWay(now, netsim.Uplink)

	// After a 60 s gap the radio idles; the next packet promotes.
	now += 60 * time.Second
	promoted, _ := p.SampleOneWay(now, netsim.Uplink)

	if promoted < active+prof.PromotionMin {
		t.Errorf("post-idle delay %v not ≥ active %v + promotion %v",
			promoted, active, prof.PromotionMin)
	}
}

func TestDownlinkNeverPromotes(t *testing.T) {
	prof := LTE2016()
	prof.Sigma = 0
	prof.LossProb = 0
	p := NewPath(prof, 3)
	d, _ := p.SampleOneWay(0, netsim.Downlink)
	if d != prof.BaseOWDMedian {
		t.Errorf("downlink = %v, want exactly base %v", d, prof.BaseOWDMedian)
	}
}

func TestLoss(t *testing.T) {
	prof := LTE2016()
	prof.LossProb = 0.3
	p := NewPath(prof, 4)
	lost := 0
	const n = 3000
	for i := 0; i < n; i++ {
		if _, l := p.SampleOneWay(time.Duration(i)*time.Second, netsim.Downlink); l {
			lost++
		}
	}
	if frac := float64(lost) / n; frac < 0.25 || frac > 0.35 {
		t.Errorf("loss = %v, want ~0.3", frac)
	}
}

func TestHeavyTailProducesExtremes(t *testing.T) {
	p := NewPath(LTE2016(), 5)
	var maxUp time.Duration
	now := time.Duration(0)
	for i := 0; i < 2160; i++ { // 3 h at 5 s, like the §3.3 run
		now += 5 * time.Second
		if d, lost := p.SampleOneWay(now, netsim.Uplink); !lost && d > maxUp {
			maxUp = d
		}
	}
	// Figure 5 reports offsets as high as 840 ms → uplink OWDs beyond
	// ~1.2 s must occur at least once in 3 h.
	if maxUp < 1200*time.Millisecond {
		t.Errorf("max uplink OWD = %v, want > 1.2s", maxUp)
	}
}
