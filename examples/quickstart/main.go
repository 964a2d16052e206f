// Quickstart: build a simulated wireless testbed, run SNTP and MNTP
// side by side for an hour of virtual time, and print the comparison
// — the paper's headline result in under a minute of wall time. It
// uses only the public facade (package mntp), so that surface is
// compiled against.
package main

import (
	"fmt"
	"time"

	"mntp"
)

func main() {
	const seed = 42

	// A testbed is the Figure 3 topology: WAP + target node + monitor
	// node + a pool of simulated NTP servers. The monitor node keeps
	// the wireless channel "variable and lossy at random intervals".
	cfg := mntp.TestbedConfig{
		Seed:          seed,
		Access:        mntp.Wireless,
		Monitor:       true,
		NTPCorrection: true, // discipline the clock like the paper's baseline
	}

	// Leg 1: plain SNTP querying the pool every 5 s.
	sntpSeries := mntp.NewTestbed(cfg).RunSNTP(5*time.Second, time.Hour)

	// Leg 2: MNTP with the same request budget (fresh but identically
	// seeded testbed, so the channel realization matches).
	params := mntp.DefaultParams(mntp.PoolName)
	params.WarmupPeriod = 10 * time.Minute
	params.WarmupWaitTime = 5 * time.Second
	params.RegularWaitTime = 5 * time.Second
	params.ResetPeriod = 2 * time.Hour
	mntpSeries := mntp.NewTestbed(cfg).RunMNTP(params, time.Hour, false)

	sntpSum, mntpSum := sntpSeries.Summary(), mntpSeries.Summary()

	fmt.Println("One hour on a stressed wireless channel, NTP-corrected clock:")
	fmt.Printf("  SNTP: %4d samples  mean |offset| %6.1f ms   max %6.1f ms\n",
		sntpSum.N, sntpSum.Mean, sntpSum.Max)
	fmt.Printf("  MNTP: %4d samples  mean |offset| %6.1f ms   max %6.1f ms"+
		"   (%d deferred, %d requests)\n",
		mntpSum.N, mntpSum.Mean, mntpSum.Max, mntpSeries.Deferred, mntpSeries.Requests)
	if mntpSum.Max > 0 {
		fmt.Printf("  improvement: SNTP's worst offset is %.1fx MNTP's\n",
			sntpSum.Max/mntpSum.Max)
	}
	fmt.Println()
	fmt.Println("The paper (Figure 6) reports SNTP max 292 ms vs MNTP max 23 ms (12x).")
}
