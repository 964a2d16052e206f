// Command ntpload drives an open-loop NTP load run against a server
// and emits a JSON capacity report (offered vs achieved rate, loss,
// KoD counts, latency quantiles, interval snapshots). Being
// open-loop, it does not back off when the server saturates — that
// is the point: the capacity cliff shows up as queueing delay and
// loss instead of being hidden by generator back-pressure.
//
// Usage:
//
//	ntpload -target 127.0.0.1:11123 [-rate 10000] [-duration 10s]
//	        [-senders 4] [-arrival poisson] [-timeout 1s]
//	        [-population 0] [-interval 1s] [-version 4] [-seed 1]
//	        [-json -]
//	        [-nts host:4460] [-nts-ca ca.pem | -nts-insecure]
//	        [-nts-sessions 0]
//
// Example capacity run against a 2-shard local server:
//
//	ntpserver -listen 127.0.0.1:11123 -shards 2 &
//	ntpload -target 127.0.0.1:11123 -rate 50000 -duration 10s -json report.json
//
// With -nts the generator first establishes cookie jars over NTS-KE
// (TLS) against the given key-establishment server, then sends
// authenticated requests — each carrying NTS extension fields sealed
// per request — and verifies every reply. NTS NAKs and verification
// failures appear as their own report fields (kod_nts,
// nts_auth_fail), never mixed into loss. The NTP target stays
// -target: capacity runs aim at a known socket, so the KE server's
// NTP address negotiation is deliberately ignored.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mntp/internal/loadgen"
	"mntp/internal/ntske"
)

func main() {
	target := flag.String("target", "", "server address host:port (required)")
	rate := flag.Float64("rate", 10000, "offered requests/second across all senders")
	duration := flag.Duration("duration", 10*time.Second, "send phase length")
	senders := flag.Int("senders", 4, "sender goroutines")
	arrival := flag.String("arrival", "poisson", "arrival process: poisson|fixed")
	timeout := flag.Duration("timeout", time.Second, "per-request reply deadline")
	population := flag.Int("population", 0, "simulated client population: distinct 127/8 source addresses (loopback targets; 0 = one source per sender)")
	interval := flag.Duration("interval", time.Second, "interval snapshot period (0 = none)")
	version := flag.Int("version", 4, "NTP version of the requests")
	seed := flag.Int64("seed", 1, "arrival randomness seed")
	jsonOut := flag.String("json", "-", "JSON report destination (- = stdout)")
	ntsKE := flag.String("nts", "", "NTS-KE server host:port — authenticate the load (NTP target stays -target)")
	ntsCA := flag.String("nts-ca", "", "PEM file with the NTS-KE server's trust root (default: system roots)")
	ntsInsecure := flag.Bool("nts-insecure", false, "skip NTS-KE certificate verification (testing only)")
	ntsSessions := flag.Int("nts-sessions", 0, "independent NTS-KE sessions to establish (0 = one per sender)")
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "ntpload: "+format+"\n", args...)
		os.Exit(2)
	}
	// Range-check before anything silently rewrites: the engine reads
	// a non-positive sender count or timeout as its default, and a
	// negative population, interval or session count as "none".
	switch {
	case *target == "":
		fail("-target is required")
	case !(*rate > 0):
		fail("-rate %v must be positive", *rate)
	case *duration <= 0:
		fail("-duration %v must be positive", *duration)
	case *senders <= 0:
		fail("-senders %d must be positive", *senders)
	case *timeout <= 0:
		fail("-timeout %v must be positive", *timeout)
	case *population < 0:
		fail("-population %d is negative", *population)
	case *interval < 0:
		fail("-interval %v is negative", *interval)
	case *ntsSessions < 0:
		fail("-nts-sessions %d is negative", *ntsSessions)
	case *version < 1 || *version > 7:
		fail("-version %d does not fit the 3-bit field", *version)
	}
	var ntsCfg *loadgen.NTSConfig
	if *ntsKE != "" {
		tlsCfg, err := ntske.ClientTLS(*ntsCA, *ntsInsecure)
		if err != nil {
			fail("-nts-ca %s: %v", *ntsCA, err)
		}
		ntsCfg = &loadgen.NTSConfig{
			KEAddr:    *ntsKE,
			TLSConfig: tlsCfg,
			Sessions:  *ntsSessions,
		}
	} else if *ntsCA != "" || *ntsInsecure || *ntsSessions != 0 {
		fail("-nts-ca/-nts-insecure/-nts-sessions require -nts")
	}

	// An interrupted run emits its partial report (truncated: true)
	// instead of dying with nothing: a long capacity run keeps the
	// measurements it already paid for. A second signal kills the
	// process the default way.
	interrupt := make(chan struct{})
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigCh
		fmt.Fprintln(os.Stderr, "ntpload: interrupted, emitting partial report")
		close(interrupt)
		signal.Stop(sigCh)
	}()

	rep, err := loadgen.Run(loadgen.Config{
		Target:        *target,
		Rate:          *rate,
		Duration:      *duration,
		Senders:       *senders,
		Arrival:       loadgen.Arrival(*arrival),
		Timeout:       *timeout,
		Population:    *population,
		SnapshotEvery: *interval,
		Version:       uint8(*version),
		Seed:          *seed,
		NTS:           ntsCfg,
		Interrupt:     interrupt,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ntpload:", err)
		os.Exit(1)
	}

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "ntpload:", err)
		os.Exit(1)
	}
	out = append(out, '\n')
	if *jsonOut == "-" {
		os.Stdout.Write(out)
	} else if err := os.WriteFile(*jsonOut, out, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "ntpload:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, rep)
}
