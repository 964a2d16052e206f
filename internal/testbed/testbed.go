// Package testbed reproduces the laboratory testbed of §3.2 and §5
// (Figure 3) in simulation: a wireless access point (WAP) with
// programmable transmit power, a target node (TN) whose clock is under
// study, and a monitor node (MN) that injects cross traffic and
// commands the WAP based on ping feedback — the paper's "scriptable
// tool" for creating variable and lossy channel conditions.
//
// The package offers one scenario driver per experimental condition of
// the paper (wired/wireless/cellular × with/without NTP clock
// correction × SNTP/MNTP), each returning the offset time series the
// figures plot.
package testbed

import (
	"time"

	"mntp/internal/cellular"
	"mntp/internal/clock"
	"mntp/internal/core"
	"mntp/internal/hints"
	"mntp/internal/netsim"
	"mntp/internal/ntpclient"
	"mntp/internal/sntp"
	"mntp/internal/stats"
	"mntp/internal/sysclock"
	"mntp/internal/wireless"
)

// Epoch is the wall-clock anchor of all testbed simulations: the first
// day of IMC 2016.
var Epoch = time.Date(2016, 11, 14, 0, 0, 0, 0, time.UTC)

// Access selects the TN's access network.
type Access int

const (
	// Wireless connects the TN through the simulated 802.11 channel.
	Wireless Access = iota
	// Wired connects the TN through a stable wired path.
	Wired
	// Cellular connects the TN through the 4G model (§3.3).
	Cellular
)

// Config parameterizes a testbed instance.
type Config struct {
	Seed   int64
	Access Access
	// Monitor enables the MN's interference loop (ignored for Wired
	// and Cellular access, matching the paper's §3.3 setup "without
	// MN and download traffic").
	Monitor bool
	// NTPCorrection runs the full NTP client disciplining the TN
	// clock throughout the experiment.
	NTPCorrection bool
	// GPSCorrection disciplines the TN clock against true time
	// directly, emulating the §3.3 GPS baseline (SmartTimeSync): the
	// clock is stepped to within GPS accuracy every fix interval.
	// Unlike NTPCorrection it does not traverse the network path, so
	// it does not absorb path asymmetry into the clock.
	GPSCorrection bool
	// ClockConfig overrides the TN oscillator (zero value selects
	// clock.DefaultConfig(Seed)).
	ClockConfig *clock.Config
	// RTSCTS enables the 802.11 RTS/CTS handshake on the wireless
	// channel (the paper ran with it disabled, §3.2).
	RTSCTS bool
}

// PoolName is the pool address testbed clients query, standing in for
// 0.pool.ntp.org.
const PoolName = "0.pool.sim"

// poolSize is the number of pool members.
const poolSize = 4

// Testbed is a constructed simulation instance.
type Testbed struct {
	Cfg     Config
	Sched   *netsim.Scheduler
	Net     *netsim.Network
	Channel *wireless.Channel // nil for wired/cellular access
	TNClock *clock.Sim
	Hints   hints.Provider
	// Members are the individual pool servers (addressable directly).
	Members []*netsim.Server
}

// New builds the Figure 3 topology.
func New(cfg Config) *Testbed {
	sched := netsim.NewScheduler()
	truth := clock.NewTrue(Epoch, sched.Now)
	net := netsim.NewNetwork(sched)

	tb := &Testbed{Cfg: cfg, Sched: sched, Net: net}

	// Access segment shared by all servers.
	var access netsim.PathModel
	switch cfg.Access {
	case Wireless:
		tb.Channel = wireless.NewChannel(wireless.Params{Seed: cfg.Seed, RTSCTS: cfg.RTSCTS}, sched.Now)
		access = tb.Channel
		tb.Hints = tb.Channel
	case Wired:
		access = netsim.NewWiredPath(2*time.Millisecond, 500*time.Microsecond, 0, 0.0005, cfg.Seed^0x11)
		tb.Hints = hints.AlwaysFavorable
	case Cellular:
		access = cellular.NewPath(cellular.LTE2016(), cfg.Seed^0x22)
		// Cellular hints are favorable: MNTP's 802.11 gates do not
		// apply; the §3.3 experiment measures SNTP only.
		tb.Hints = hints.AlwaysFavorable
	}

	// Pool members: true-time servers behind per-server wired
	// backbone segments of varying base delay, like pool.ntp.org
	// members scattered across the Internet.
	for i := 0; i < poolSize; i++ {
		srv := netsim.NewServer(poolMemberName(i), truth, 2, cfg.Seed*37+int64(i))
		backbone := netsim.NewWiredPath(
			time.Duration(6+5*i)*time.Millisecond, 1500*time.Microsecond,
			time.Duration(i-poolSize/2)*time.Millisecond, // mild per-path asymmetry
			0.001, cfg.Seed*91+int64(i))
		net.AddServer(srv, &netsim.CompositePath{Segments: []netsim.PathModel{access, backbone}})
		tb.Members = append(tb.Members, srv)
	}
	net.AddPool(netsim.NewPool(PoolName, tb.Members, cfg.Seed+7))

	// TN clock. The default skew is raised above the generic crystal
	// default: the paper's free-running laptop accumulated offsets of
	// several hundred ms within the experiment hours (Figures 8/12),
	// implying an effective drift of tens of ppm.
	ccfg := clock.DefaultConfig(cfg.Seed ^ 0x5a5a)
	ccfg.SkewPPM = 30
	if cfg.ClockConfig != nil {
		ccfg = *cfg.ClockConfig
	}
	tb.TNClock = clock.NewSim(ccfg, Epoch, sched.Now)

	return tb
}

func poolMemberName(i int) string {
	return "member" + string(rune('0'+i)) + ".pool.sim"
}

// startMonitor launches the monitor node's feedback loop (§3.2): ping
// probes from the TN measure channel health; losses make the MN back
// off (fewer downloads, more WAP power); a stable channel makes it
// attack (more downloads, less power), keeping conditions "variable
// and lossy at random intervals".
func (tb *Testbed) startMonitor(duration time.Duration) {
	if tb.Channel == nil || !tb.Cfg.Monitor {
		return
	}
	ch := tb.Channel
	// Download injector: a Proc that starts downloads at a rate the
	// controller tunes.
	rate := 0.5 // downloads per minute
	tb.Sched.Go(func(p *netsim.Proc) {
		rng := newRng(tb.Cfg.Seed ^ 0x700)
		for p.Now() < duration {
			wait := time.Duration(rng.ExpFloat64() / rate * float64(time.Minute))
			if wait > 5*time.Minute {
				wait = 5 * time.Minute
			}
			if wait < 2*time.Second {
				wait = 2 * time.Second
			}
			p.Sleep(wait)
			if p.Now() >= duration {
				return
			}
			ch.AddLoad(0.55)
			dl := time.Duration(20+rng.Intn(60)) * time.Second
			tb.Sched.After(dl, func() { ch.AddLoad(-0.55) })
		}
	})
	// Controller: ping-based feedback every 15 s.
	tb.Sched.Go(func(p *netsim.Proc) {
		tr := &netsim.Transport{Net: tb.Net, Proc: p, Clock: tb.TNClock}
		target := tb.Members[0].Name
		for p.Now() < duration {
			losses := 0
			var rttSum time.Duration
			const probes = 4
			for i := 0; i < probes; i++ {
				rtt, lost := tr.Ping(target)
				if lost {
					losses++
				} else {
					rttSum += rtt
				}
			}
			lossy := losses > 0 || (probes-losses > 0 && rttSum/time.Duration(probes-losses) > 120*time.Millisecond)
			if lossy {
				// Back off: calm the channel.
				ch.SetTxPower(ch.TxPower() + 5)
				rate *= 0.6
				if rate < 0.2 {
					rate = 0.2
				}
			} else {
				// Stable: destabilize it.
				ch.SetTxPower(ch.TxPower() - 4)
				rate *= 1.5
				if rate > 4 {
					rate = 4
				}
			}
			p.Sleep(15 * time.Second)
		}
	})
}

// startGPS launches the GPS-fix loop: every 30 s the TN clock is
// stepped to true time ± a few ms of GPS/app accuracy.
func (tb *Testbed) startGPS(duration time.Duration) {
	if !tb.Cfg.GPSCorrection {
		return
	}
	rng := newRng(tb.Cfg.Seed ^ 0x6a6a)
	tb.Sched.Every(time.Second, 30*time.Second, func() bool {
		err := tb.TNClock.TrueOffset()
		fixNoise := time.Duration((rng.Float64()*6 - 3) * float64(time.Millisecond))
		tb.TNClock.Step(-err + fixNoise)
		return tb.Sched.Now() < duration
	})
}

// startNTP launches the full NTP client disciplining the TN clock.
func (tb *Testbed) startNTP(duration time.Duration) {
	if !tb.Cfg.NTPCorrection {
		return
	}
	servers := make([]string, 0, len(tb.Members))
	for _, m := range tb.Members {
		servers = append(servers, m.Name)
	}
	tb.Sched.Go(func(p *netsim.Proc) {
		tr := &netsim.Transport{Net: tb.Net, Proc: p, Clock: tb.TNClock}
		// Warm-start the frequency like ntpd's drift file: the paper's
		// TN ran its OS NTP daemon long before the experiments, so its
		// oscillator error was already mostly compensated. The drift
		// file is imperfect; leave a ~10% residual.
		c := ntpclient.New(tb.TNClock, tr, ntpclient.Config{
			Servers: servers, MaxPoll: 128 * time.Second,
			InitialFreq: -tb.TNClock.RawFreqError() * 0.9,
		})
		for p.Now() < duration {
			u, _ := c.Poll()
			p.Sleep(u.Poll)
		}
	})
}

// Point is one reported offset with its oracle context.
type Point struct {
	Elapsed    time.Duration
	Offset     time.Duration // offset reported by the protocol
	TrueOffset time.Duration // TN clock's true error at that moment
	// Error is the measurement error: reported offset minus the ideal
	// report (−TrueOffset).
	Error time.Duration
	// Accepted/Rejected classify MNTP points; SNTP points are always
	// Accepted.
	Accepted bool
	// Predicted is MNTP's trend prediction at that instant (PredOK).
	Predicted time.Duration
	PredOK    bool
	Hints     hints.Hints
}

// Series is a protocol run's output.
type Series struct {
	Name     string
	Points   []Point
	Requests int
	Deferred int
	Failed   int
	// Events is the raw MNTP event stream (nil for SNTP runs).
	Events []core.Event
}

// Reported returns the reported offsets in milliseconds (accepted
// points only — what the paper plots as the protocol's offsets).
func (s *Series) Reported() []float64 {
	var out []float64
	for _, p := range s.Points {
		if p.Accepted {
			out = append(out, p.Offset.Seconds()*1000)
		}
	}
	return out
}

// AbsReported returns |reported| in milliseconds for accepted points.
func (s *Series) AbsReported() []float64 {
	out := s.Reported()
	for i, v := range out {
		if v < 0 {
			out[i] = -v
		}
	}
	return out
}

// AbsError returns |measurement error| in milliseconds for accepted
// points.
func (s *Series) AbsError() []float64 {
	var out []float64
	for _, p := range s.Points {
		if p.Accepted {
			e := p.Error.Seconds() * 1000
			if e < 0 {
				e = -e
			}
			out = append(out, e)
		}
	}
	return out
}

// CorrectedResiduals returns, for accepted MNTP points with a valid
// prediction, the offset minus the trend prediction in milliseconds —
// the "clock corrected drift values" of Figure 12.
func (s *Series) CorrectedResiduals() []float64 {
	var out []float64
	for _, p := range s.Points {
		if p.Accepted && p.PredOK {
			out = append(out, (p.Offset-p.Predicted).Seconds()*1000)
		}
	}
	return out
}

// Summary returns summary statistics of the absolute reported offsets.
func (s *Series) Summary() stats.Summary { return stats.Summarize(s.AbsReported()) }

// RunSNTP runs an SNTP client querying the pool every interval for the
// configured duration, recording every reported offset. The returned
// series is the raw material of Figures 4, 5, 6, 8, 9, 10 and 12.
func (tb *Testbed) RunSNTP(interval, duration time.Duration) *Series {
	s := &Series{Name: "sntp"}
	if interval > 0 {
		s.Points = make([]Point, 0, min(duration/interval+1, 1<<14)) // one per query at most
	}
	tb.startMonitor(duration)
	tb.startNTP(duration)
	tb.startGPS(duration)
	tb.Sched.Go(func(p *netsim.Proc) {
		tr := &netsim.Transport{Net: tb.Net, Proc: p, Clock: tb.TNClock}
		cl := sntp.New(tb.TNClock, tr, p, sntp.Config{Server: PoolName})
		for p.Now() < duration {
			s.Requests++
			sample, err := cl.Query()
			if err != nil {
				s.Failed++
			} else {
				trueOff := tb.TNClock.TrueOffset()
				s.Points = append(s.Points, Point{
					Elapsed:    p.Now(),
					Offset:     sample.Offset,
					TrueOffset: trueOff,
					Error:      sample.Offset + trueOff,
					Accepted:   true,
					Hints:      tb.Hints.Hints(),
				})
			}
			p.Sleep(interval)
		}
	})
	tb.Sched.Run()
	return s
}

// RunMNTP runs an MNTP client with the given parameters, recording
// every event. updateClock enables the regular phase's clock updates
// and drift correction (the paper's §5.1 baselines disable them for
// head-to-head comparison).
func (tb *Testbed) RunMNTP(params core.Params, duration time.Duration, updateClock bool) *Series {
	s := &Series{Name: "mntp"}
	if params.RegularServer == "" {
		params.RegularServer = PoolName
	}
	if params.WarmupServers == nil {
		params.WarmupServers = []string{PoolName, PoolName, PoolName}
	}
	if !updateClock {
		params.DisableClockUpdates = true
		params.DisableDriftCorrection = true
	}
	tb.startMonitor(duration)
	tb.startNTP(duration)
	tb.startGPS(duration)
	tb.Sched.Go(func(p *netsim.Proc) {
		tr := &netsim.Transport{Net: tb.Net, Proc: p, Clock: tb.TNClock}
		var adj sysclock.Adjuster
		if updateClock {
			adj = sysclock.SimAdjuster{Clock: tb.TNClock}
		}
		c := core.New(tb.TNClock, adj, tr, tb.Hints, p, params)
		// A deferral per hint poll is the densest the stream gets; the
		// rounds in between are sparser.
		s.Events = make([]core.Event, 0, min(duration/c.Params.HintPollInterval, 1<<16))
		c.OnEvent = func(e core.Event) {
			s.Events = append(s.Events, e)
			switch e.Kind {
			case core.EventAccepted, core.EventRejected:
				trueOff := tb.TNClock.TrueOffset()
				s.Points = append(s.Points, Point{
					Elapsed:    e.Elapsed,
					Offset:     e.Offset,
					TrueOffset: trueOff,
					Error:      e.Offset + trueOff,
					Accepted:   e.Kind == core.EventAccepted,
					Predicted:  e.Predicted,
					PredOK:     e.PredOK,
					Hints:      e.Hints,
				})
			case core.EventDeferred:
				s.Deferred++
			case core.EventQueryFailed:
				s.Failed++
			}
			s.Requests = e.Requests
		}
		c.Run(duration)
	})
	tb.Sched.Run()
	return s
}
