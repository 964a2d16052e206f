// Command ntploggen generates the synthetic §3.1 dataset: one pcap
// file per NTP server of Table 1, with the paper's client-population
// structure (provider categories, latency distributions, SNTP/NTP
// protocol mix) at a configurable scale.
//
// Usage:
//
//	ntploggen [-dir traces] [-scale 0.0005] [-seed 2016] [-servers SU1,AG1]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mntp/internal/ipasn"
	"mntp/internal/ntplog"
)

func main() {
	dir := flag.String("dir", "traces", "output directory")
	scale := flag.Float64("scale", 1.0/2000, "client-count scale factor")
	seed := flag.Int64("seed", 2016, "generation seed")
	servers := flag.String("servers", "", "comma-separated server IDs (default all 19)")
	flag.Parse()

	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	profiles := ntplog.Table1Profiles()
	if *servers != "" {
		profiles = nil
		for _, id := range strings.Split(*servers, ",") {
			if id = strings.TrimSpace(id); id == "" {
				continue
			}
			prof, ok := ntplog.ProfileByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "ntploggen: -servers: no Table 1 server %q\n", id)
				os.Exit(2)
			}
			profiles = append(profiles, prof)
		}
	}
	reg := ipasn.NewRegistry()
	for _, prof := range profiles {
		path := filepath.Join(*dir, prof.ID+".pcap")
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		clients, requests, err := ntplog.Generate(f, prof, reg, ntplog.GenConfig{
			Scale: *scale, Seed: *seed,
		})
		cerr := f.Close()
		if err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", prof.ID, err)
			os.Exit(1)
		}
		fmt.Printf("%s: %d clients, %d requests -> %s\n", prof.ID, clients, requests, path)
	}
}
