// Command ntppop runs a population-scale scenario: N simulated
// mobile clients (struct-of-arrays, pooled wireless channels, lazy
// oscillator clocks) driven in virtual time against either simulated
// upstreams or the real server's request path, called in process. A
// report is a function of the scenario, n and seed.
//
// Usage:
//
//	ntppop -scenario nat [-n 10000] [-seed 1] [-json -]
//	ntppop -list
//
// Scenarios: herd (poll phase-locking vs the jitter fix), nat (10k
// clients behind one source IP vs the per-IP rate limiter), falseticker (a
// liar only a fraction of the population can see), chaos-blackout and
// chaos-falseticker-flip (a single-client chaos fault window — total
// outage, an upstream that lies and recants — replayed over a fleet).
//
// The process exits 1 when the scenario's seeded assertions are
// violated, so CI legs can gate on it directly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"mntp/internal/population"
)

func main() {
	scenario := flag.String("scenario", "", "scenario to run: "+strings.Join(population.Scenarios(), ", "))
	n := flag.Int("n", 0, "population size (0: the scenario's default)")
	seed := flag.Int64("seed", 1, "scenario seed")
	jsonOut := flag.String("json", "-", "JSON report destination (- = stdout)")
	list := flag.Bool("list", false, "list scenarios and exit")
	flag.Parse()

	if *list {
		for _, s := range population.Scenarios() {
			fmt.Println(s)
		}
		return
	}
	if *scenario == "" {
		fmt.Fprintf(os.Stderr, "ntppop: -scenario is required (one of %s)\n", strings.Join(population.Scenarios(), ", "))
		os.Exit(2)
	}

	rep, err := population.Run(*scenario, *n, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ntppop:", err)
		os.Exit(2)
	}

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "ntppop:", err)
		os.Exit(1)
	}
	out = append(out, '\n')
	if *jsonOut == "-" {
		os.Stdout.Write(out)
	} else if err := os.WriteFile(*jsonOut, out, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "ntppop:", err)
		os.Exit(1)
	}
	if !rep.Pass {
		fmt.Fprintf(os.Stderr, "ntppop: scenario %s FAILED: %s\n", rep.Scenario, strings.Join(rep.Violations, "; "))
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "ntppop: scenario %s ok (n=%d seed=%d served=%d/%d)\n",
		rep.Scenario, rep.N, rep.Seed, rep.ServedClients, rep.N)
}
