// Command sntp is a simple SNTP query tool over real UDP: it performs
// one or more exchanges with an NTP server and prints the measured
// offset and delay, optionally with the Android- or Windows-Mobile-
// style client behaviours documented in §2 of the paper. The -drop,
// -dup, -corrupt and -kod flags route the exchanges through the
// seeded fault-injection harness, for exercising the retry machinery
// against a healthy server.
//
// With -servers (comma list) the tool instead fans queries out over a
// source pool with bounded parallelism, runs Marzullo selection plus
// cluster pruning over each round, prints the combined offset, and
// dumps per-source health at the end.
//
// Usage:
//
//	sntp [-server host:123] [-n count] [-interval 5s] [-timeout 3s]
//	     [-profile default|android|windowsmobile]
//	     [-drop 0] [-dup 0] [-corrupt 0] [-kod 0] [-faultseed 1]
//	     [-nts [-nts-ca ca.pem | -nts-insecure]]
//	sntp -servers a:123,b:123,c:123 [-parallel 3] [-n count]
//
// With -nts every exchange is authenticated (RFC 8915): -server and
// -servers entries name NTS-KE endpoints (host:4460 style), keys and
// cookies are established over TLS, and the NTP traffic goes to the
// server KE negotiates. Replies that fail verification are rejected
// like any other exchange failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mntp/internal/clock"
	"mntp/internal/exchange"
	"mntp/internal/ntpnet"
	"mntp/internal/ntske"
	"mntp/internal/sntp"
	"mntp/internal/sources"
)

func main() {
	server := flag.String("server", "0.pool.ntp.org:123", "NTP server")
	servers := flag.String("servers", "", "comma-separated server pool: fan out, select, combine (overrides -server/-profile)")
	parallel := flag.Int("parallel", 3, "bound on concurrent pool exchanges")
	count := flag.Int("n", 1, "number of queries (rounds in pool mode)")
	interval := flag.Duration("interval", 5*time.Second, "interval between queries")
	timeout := flag.Duration("timeout", 3*time.Second, "per-exchange reply timeout")
	profile := flag.String("profile", "default", "client profile: default, android, windowsmobile")
	drop := flag.Float64("drop", 0, "fault injection: exchange loss probability")
	dup := flag.Float64("dup", 0, "fault injection: reply duplication probability")
	corrupt := flag.Float64("corrupt", 0, "fault injection: reply bit-flip probability")
	kod := flag.Float64("kod", 0, "fault injection: kiss-of-death probability")
	faultSeed := flag.Int64("faultseed", 1, "fault injection seed")
	ntsOn := flag.Bool("nts", false, "authenticate with NTS: server addresses name NTS-KE endpoints (host:4460 style)")
	ntsCA := flag.String("nts-ca", "", "PEM trust root for the NTS-KE certificate (default: system roots)")
	ntsInsecure := flag.Bool("nts-insecure", false, "skip NTS-KE certificate verification (testing only)")
	flag.Parse()

	var transport exchange.Transport = &ntpnet.Client{Timeout: *timeout}
	var faults *ntpnet.FaultTransport
	if *drop > 0 || *dup > 0 || *corrupt > 0 || *kod > 0 {
		faults = &ntpnet.FaultTransport{
			Inner: transport, Seed: *faultSeed,
			DropProb: *drop, DupProb: *dup, CorruptProb: *corrupt, KoDProb: *kod,
		}
		transport = faults
	}
	if *ntsOn {
		// NTS wraps the fault layer so injected faults exercise the
		// authenticated path end to end.
		tlsCfg, err := ntske.ClientTLS(*ntsCA, *ntsInsecure)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-nts-ca %s: %v\n", *ntsCA, err)
			os.Exit(2)
		}
		transport = &ntske.Transport{Inner: transport, TLSConfig: tlsCfg, KETimeout: *timeout}
	} else if *ntsCA != "" || *ntsInsecure {
		fmt.Fprintln(os.Stderr, "-nts-ca/-nts-insecure require -nts")
		os.Exit(2)
	}

	if *servers != "" {
		runPool(strings.Split(*servers, ","), transport, *parallel, *count, *interval)
		printFaultStats(faults)
		return
	}

	var cfg sntp.Config
	switch *profile {
	case "default":
		cfg = sntp.Config{Server: *server, Retries: 1}
	case "android":
		cfg = sntp.AndroidConfig(*server)
	case "windowsmobile":
		cfg = sntp.WindowsMobileConfig(*server)
	default:
		fmt.Fprintf(os.Stderr, "unknown profile %q\n", *profile)
		os.Exit(2)
	}

	c := sntp.New(clock.System{}, transport, sntp.WallSleeper{}, cfg)
	for i := 0; i < *count; i++ {
		if i > 0 {
			time.Sleep(*interval)
		}
		s, err := c.Query()
		if err != nil {
			fmt.Printf("%s: query failed: %v\n", time.Now().Format(time.RFC3339), err)
			continue
		}
		fmt.Printf("%s: server=%s stratum=%d offset=%+.3fms delay=%.3fms\n",
			time.Now().Format(time.RFC3339), s.Server, s.Stratum,
			s.Offset.Seconds()*1000, s.Delay.Seconds()*1000)
	}
	printFaultStats(faults)
}

// runPool fans count rounds out over the server pool, printing each
// source's outcome and the selected/combined offset per round.
func runPool(list []string, transport exchange.Transport, parallel, count int, interval time.Duration) {
	var clean []string
	for _, s := range list {
		if s = strings.TrimSpace(s); s != "" {
			clean = append(clean, s)
		}
	}
	pool := sources.New(clock.System{}, transport, sources.Config{
		Servers:     clean,
		Parallelism: parallel,
	})
	for i := 0; i < count; i++ {
		if i > 0 {
			time.Sleep(interval)
		}
		res := pool.Round()
		var samples []exchange.Sample
		var idxs []int
		for _, o := range res.Outcomes {
			switch {
			case o.Skipped:
				fmt.Printf("  %-24s held down (kiss-of-death back-off)\n", o.Source)
			case o.KoD:
				fmt.Printf("  %-24s kiss-of-death: %v\n", o.Source, o.Err)
			case o.Err != nil:
				fmt.Printf("  %-24s failed: %v\n", o.Source, o.Err)
			default:
				fmt.Printf("  %-24s offset=%+.3fms delay=%.3fms\n",
					o.Source, o.Sample.Offset.Seconds()*1000, o.Sample.Delay.Seconds()*1000)
				samples = append(samples, o.Sample)
				idxs = append(idxs, o.Index)
			}
		}
		sel := pool.SelectCombine(samples, idxs)
		switch {
		case sel.OK:
			fmt.Printf("%s: combined offset=%+.3fms (survivors=%d falsetickers=%d)\n",
				time.Now().Format(time.RFC3339), sel.Offset.Seconds()*1000,
				len(sel.Survivors), len(sel.Falsetickers))
		case sel.NoConsensus:
			fmt.Printf("%s: no consensus among %d samples\n",
				time.Now().Format(time.RFC3339), len(samples))
		default:
			fmt.Printf("%s: no samples\n", time.Now().Format(time.RFC3339))
		}
	}
	fmt.Printf("pool status:\n%s", sources.FormatStatus(pool.Status()))
}

func printFaultStats(faults *ntpnet.FaultTransport) {
	if faults == nil {
		return
	}
	st := faults.Stats()
	fmt.Printf("faults: exchanges=%d dropped=%d duplicated=%d corrupted=%d kod=%d\n",
		st.Exchanges, st.Dropped, st.Duplicated, st.Corrupted, st.KoDs)
}
