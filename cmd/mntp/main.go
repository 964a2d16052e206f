// Command mntp runs an MNTP client (Algorithm 1 of the paper).
//
// Two transports are supported:
//
//   - sim (default): a complete simulated wireless testbed is built
//     and the client runs in virtual time — useful for demonstration
//     and parameter exploration;
//   - udp: the client runs in wall time against real NTP servers,
//     reading wireless hints from `airport -I` (macOS) or
//     `iwconfig <if>` (Linux) output supplied on a named pipe/file,
//     or treating the channel as always favorable with -hints none.
//
// Usage:
//
//	mntp -transport sim [-duration 1h] [-seed 7]
//	mntp -transport udp -servers 0.pool.ntp.org:123,1.pool.ntp.org:123,2.pool.ntp.org:123 \
//	     [-parallel 3] [-hints airport|iwconfig|none] [-hints-cmd PATH]
//	     [-nts [-nts-ca ca.pem | -nts-insecure]]
//
// With -nts (udp transport) every exchange is authenticated per RFC
// 8915: -server/-servers entries name NTS-KE endpoints (host:4460
// style), keys and cookies are established over TLS, and NTP traffic
// goes to the server each KE negotiates. Unverifiable replies are
// rejected before they reach the synchronization algorithm.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mntp/internal/core"
	"mntp/internal/driftfile"
	"mntp/internal/exchange"
	"mntp/internal/hints"
	"mntp/internal/netsim"
	"mntp/internal/ntpnet"
	"mntp/internal/ntske"
	"mntp/internal/sntp"
	"mntp/internal/sources"
	"mntp/internal/testbed"
	"mntp/internal/trend"
)

func main() {
	transport := flag.String("transport", "sim", "sim or udp")
	server := flag.String("server", "0.pool.ntp.org:123", "NTP server (udp transport; ignored when -servers is set)")
	servers := flag.String("servers", "", "comma-separated upstream pool (udp transport): warm-up fans out over all, regular phase tracks the top-ranked")
	parallel := flag.Int("parallel", 3, "bound on concurrent fan-out exchanges (udp transport)")
	exchTimeout := flag.Duration("exchange-timeout", 0, "per-exchange deadline enforced by the pool (0: transport timeout only)")
	hintsMode := flag.String("hints", "none", "udp transport hint source: airport, iwconfig or none")
	hintsCmd := flag.String("hints-cmd", "", "command printing airport/iwconfig output (default: the utility itself)")
	iface := flag.String("iface", "wlan0", "wireless interface for iwconfig")
	drift := flag.String("driftfile", "", "persist the measured drift estimate here (ntpd-compatible format)")
	duration := flag.Duration("duration", time.Hour, "how long to run")
	seed := flag.Int64("seed", 7, "simulation seed")
	warmup := flag.Duration("warmup", 10*time.Minute, "warmupPeriod")
	warmupWait := flag.Duration("warmup-wait", 15*time.Second, "warmupWaitTime")
	regularWait := flag.Duration("regular-wait", 5*time.Minute, "regularWaitTime")
	reset := flag.Duration("reset", 4*time.Hour, "resetPeriod")
	stepThreshold := flag.Duration("step-threshold", 128*time.Millisecond, "offset beyond which the clock is stepped rather than slewed")
	panicThreshold := flag.Duration("panic-threshold", 10*time.Second, "offset beyond which a correction is refused once synchronized (negative disables)")
	holdoverMax := flag.Duration("holdover-max", time.Hour, "how long holdover retains the sync state during a blackout")
	estimator := flag.String("estimator", "lsq", "trend estimator for the offset filter: lsq, theilsen or lad")
	estimatorWindow := flag.Int("estimator-window", 0, "sample window for the robust estimators (0: default, 32)")
	pollJitter := flag.Float64("poll-jitter", core.DefaultPollJitter, "regular-phase poll randomization fraction, 0 disables (fleet de-phasing)")
	jitterSeed := flag.Int64("jitter-seed", 0, "poll-jitter rng seed (0: derived from pid and start time)")
	ntsOn := flag.Bool("nts", false, "authenticate with NTS (udp transport): server addresses name NTS-KE endpoints (host:4460 style)")
	ntsCA := flag.String("nts-ca", "", "PEM trust root for the NTS-KE certificate (default: system roots)")
	ntsInsecure := flag.Bool("nts-insecure", false, "skip NTS-KE certificate verification (testing only)")
	flag.Parse()

	kind, err := trend.ParseKind(*estimator)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}

	params := core.DefaultParams(testbed.PoolName)
	params.WarmupPeriod = *warmup
	params.WarmupWaitTime = *warmupWait
	params.RegularWaitTime = *regularWait
	params.ResetPeriod = *reset
	params.StepThreshold = *stepThreshold
	params.PanicThreshold = *panicThreshold
	params.HoldoverMax = *holdoverMax
	params.Estimator = kind
	params.EstimatorWindow = *estimatorWindow
	if *pollJitter <= 0 {
		params.DisablePollJitter = true
	} else {
		params.PollJitter = *pollJitter
	}
	if *jitterSeed != 0 {
		params.JitterSeed = *jitterSeed
	} else {
		// Seed per process so a fleet of devices launched from the same
		// image still de-phases (the whole point of the jitter).
		params.JitterSeed = time.Now().UnixNano() ^ int64(os.Getpid())<<32
	}

	switch *transport {
	case "sim":
		if *ntsOn {
			fmt.Fprintln(os.Stderr, "-nts requires -transport udp")
			os.Exit(2)
		}
		runSim(*seed, params, *duration)
	case "udp":
		list := splitServers(*servers)
		if len(list) == 0 {
			list = []string{*server}
		}
		params.Parallelism = *parallel
		params.ExchangeTimeout = *exchTimeout
		var tr exchange.Transport = &ntpnet.Client{Timeout: 3 * time.Second}
		if *ntsOn {
			tlsCfg, err := ntske.ClientTLS(*ntsCA, *ntsInsecure)
			if err != nil {
				fmt.Fprintf(os.Stderr, "-nts-ca %s: %v\n", *ntsCA, err)
				os.Exit(2)
			}
			tr = &ntske.Transport{Inner: tr, TLSConfig: tlsCfg}
		} else if *ntsCA != "" || *ntsInsecure {
			fmt.Fprintln(os.Stderr, "-nts-ca/-nts-insecure require -nts")
			os.Exit(2)
		}
		runUDP(list, tr, *hintsMode, *hintsCmd, *iface, *drift, params, *duration)
	default:
		fmt.Fprintf(os.Stderr, "unknown transport %q\n", *transport)
		os.Exit(2)
	}
}

// splitServers parses the -servers comma list, trimming whitespace and
// dropping empty entries.
func splitServers(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func printEvent(e core.Event) {
	switch e.Kind {
	case core.EventAccepted, core.EventRejected:
		fmt.Printf("%9.1fs %-7s %-12s offset=%8.2fms rssi=%6.1f noise=%6.1f drift=%+.2fppm\n",
			e.Elapsed.Seconds(), e.Phase, e.Kind,
			e.Offset.Seconds()*1000, e.Hints.RSSI, e.Hints.Noise, e.Drift*1e6)
	case core.EventDriftCorrected:
		fmt.Printf("%9.1fs %-7s %-12s drift=%+.2fppm\n",
			e.Elapsed.Seconds(), e.Phase, e.Kind, e.Drift*1e6)
	case core.EventFalseTicker:
		fmt.Printf("%9.1fs %-7s %-12s source=%s offset=%8.2fms\n",
			e.Elapsed.Seconds(), e.Phase, e.Kind, e.Source, e.Offset.Seconds()*1000)
	case core.EventKoD:
		fmt.Printf("%9.1fs %-7s %-12s source=%s (hold-down engaged)\n",
			e.Elapsed.Seconds(), e.Phase, e.Kind, e.Source)
	case core.EventAdjustError:
		fmt.Printf("%9.1fs %-7s %-12s clock adjustment refused by the host\n",
			e.Elapsed.Seconds(), e.Phase, e.Kind)
	case core.EventHoldover:
		fmt.Printf("%9.1fs %-7s %-12s sources dark; free-running on drift=%+.2fppm\n",
			e.Elapsed.Seconds(), e.Phase, e.Kind, e.Drift*1e6)
	case core.EventPanicStep:
		fmt.Printf("%9.1fs %-7s %-12s refused implausible correction of %8.2fms\n",
			e.Elapsed.Seconds(), e.Phase, e.Kind, e.Offset.Seconds()*1000)
	case core.EventResumed:
		fmt.Printf("%9.1fs %-7s %-12s wall clock jumped %8.2fms vs monotonic; re-warming up\n",
			e.Elapsed.Seconds(), e.Phase, e.Kind, e.Offset.Seconds()*1000)
	case core.EventNetworkChanged:
		fmt.Printf("%9.1fs %-7s %-12s path health reset; re-probing\n",
			e.Elapsed.Seconds(), e.Phase, e.Kind)
	}
}

func runSim(seed int64, params core.Params, duration time.Duration) {
	tb := testbed.New(testbed.Config{Seed: seed, Access: testbed.Wireless, Monitor: true})
	fmt.Printf("simulated testbed: pool %s, %d members, seed %d\n",
		testbed.PoolName, len(tb.Members), seed)
	tb.Sched.Go(func(p *netsim.Proc) {
		tr := &netsim.Transport{Net: tb.Net, Proc: p, Clock: tb.TNClock}
		c := core.New(tb.TNClock, nil, tr, tb.Hints, p, params)
		c.OnEvent = printEvent
		c.Run(duration)
		fmt.Printf("pool status:\n%s", sources.FormatStatus(c.PoolStatus()))
	})
	tb.Sched.Run()
	fmt.Printf("done: TN clock true offset at end: %v\n", tb.TNClock.TrueOffset())
}

// wallClock reads the host clock with the monotonic reading stripped
// (Round(0)): time.Time subtraction then measures wall time, so the
// client's wall-vs-monotonic comparison can actually see a suspend or
// an external clock step. clock.System would hand back hybrid
// timestamps whose Sub() silently uses the monotonic reading,
// blinding the detector.
type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now().Round(0) }

// cmdHints shells out to the platform utility and parses its output.
type cmdHints struct {
	argv  []string
	parse func(string) (hints.Hints, error)
	last  hints.Hints
}

func (c *cmdHints) Hints() hints.Hints {
	out, err := exec.Command(c.argv[0], c.argv[1:]...).Output()
	if err != nil {
		return c.last // keep the previous reading on failure
	}
	h, err := c.parse(string(out))
	if err != nil {
		return c.last
	}
	c.last = h
	return h
}

func runUDP(servers []string, transport exchange.Transport, hintsMode, hintsCmd, iface, driftPath string, params core.Params, duration time.Duration) {
	var hp hints.Provider
	switch hintsMode {
	case "airport":
		argv := []string{"/System/Library/PrivateFrameworks/Apple80211.framework/Versions/Current/Resources/airport", "-I"}
		if hintsCmd != "" {
			argv = []string{hintsCmd}
		}
		hp = &cmdHints{argv: argv, parse: hints.ParseAirport}
	case "iwconfig":
		argv := []string{"iwconfig", iface}
		if hintsCmd != "" {
			argv = []string{hintsCmd}
		}
		hp = &cmdHints{argv: argv, parse: hints.ParseIwconfig}
	case "none":
		hp = hints.AlwaysFavorable
	default:
		fmt.Fprintf(os.Stderr, "unknown hints mode %q\n", hintsMode)
		os.Exit(2)
	}

	if len(servers) == 1 {
		// A single upstream keeps the paper's 3-query warm-up by
		// occupying three pool slots (each exchange reaches a random
		// pool member behind the name).
		params.WarmupServers = []string{servers[0], servers[0], servers[0]}
	} else {
		params.WarmupServers = servers
	}
	params.RegularServer = servers[0]
	c := core.New(wallClock{}, nil, transport, hp, sntp.WallSleeper{}, params)
	c.OnEvent = printEvent
	// Suspend/resume detection needs a monotonic reading the wall
	// clock's jumps cannot touch; time.Since reads Go's monotonic
	// clock, which (on Linux with CLOCK_BOOTTIME semantics aside)
	// stands still across a suspend while the wall clock leaps.
	start := time.Now()
	c.Mono = func() time.Duration { return time.Since(start) }
	// SIGHUP is the roaming hook: `kill -HUP` after switching networks
	// resets per-source path health and triggers an immediate
	// re-probe on a jittered backoff.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			c.NetworkChanged()
		}
	}()
	if driftPath != "" {
		if prev, ok, err := driftfile.Load(driftPath); err != nil {
			fmt.Fprintf(os.Stderr, "driftfile: %v\n", err)
		} else if ok {
			fmt.Printf("drift file %s: previously measured %+.3f ppm\n", driftPath, prev*1e6)
		}
	}
	fmt.Printf("MNTP over UDP against %s (hints: %s, parallel %d) for %v — measurement only\n",
		strings.Join(servers, ","), hintsMode, params.Parallelism, duration)
	c.Run(duration)
	fmt.Printf("pool status:\n%s", sources.FormatStatus(c.PoolStatus()))
	if est, ok := c.DriftEstimate(); ok {
		fmt.Printf("measured drift estimate: %+.3f ppm\n", est*1e6)
		if driftPath != "" {
			if err := driftfile.Store(driftPath, est); err != nil {
				fmt.Fprintf(os.Stderr, "driftfile: %v\n", err)
			}
		}
	}
}
