// Realudp: the whole stack over real sockets on loopback — a local
// NTP server serving a deliberately shifted clock, an SNTP client
// measuring it, and an MNTP client (with a scripted hints provider)
// doing the same with filtering. Demonstrates that the protocol code
// is transport-agnostic: the same clients run in simulation and over
// UDP. The MNTP client is built through the public facade (package
// mntp), as README's real-UDP snippet shows.
package main

import (
	"fmt"
	"log"
	"time"

	"mntp"
	"mntp/internal/clock"
	"mntp/internal/core"
	"mntp/internal/hints"
	"mntp/internal/ntpnet"
	"mntp/internal/sntp"
)

func main() {
	// A local server whose clock is 250 ms ahead of ours: four serve
	// goroutines share the socket, and a (generous) rate limit keeps
	// the bounded abusive-client table in play.
	srv := ntpnet.NewServer(&clock.Fixed{Base: clock.System{}, Error: 250 * time.Millisecond}, 2)
	srv.Workers = 4
	srv.RateLimit = 1000
	srv.RateWindow = time.Minute
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("local NTP server on %s, clock +250ms, 4 workers\n\n", addr)

	transport := &mntp.UDPClient{Timeout: 2 * time.Second}

	// SNTP: one-shot queries.
	cl := sntp.New(clock.System{}, transport, sntp.WallSleeper{},
		sntp.Config{Server: addr.String(), Retries: 1})
	for i := 0; i < 3; i++ {
		s, err := cl.Query()
		if err != nil {
			log.Fatalf("sntp query: %v", err)
		}
		fmt.Printf("SNTP: offset %+8.3fms delay %6.3fms stratum %d\n",
			s.Offset.Seconds()*1000, s.Delay.Seconds()*1000, s.Stratum)
	}

	// MNTP over the same transport: a scripted hints provider stands
	// in for the wireless adaptor (flickering between favorable and
	// unfavorable so the gating is visible).
	tick := 0
	scripted := hints.ProviderFunc(func() hints.Hints {
		tick++
		if tick%4 == 0 {
			return hints.Hints{RSSI: -82, Noise: -67} // unfavorable
		}
		return hints.Hints{RSSI: -52, Noise: -93}
	})

	params := mntp.DefaultParams(addr.String())
	params.WarmupServers = []string{addr.String(), addr.String(), addr.String()}
	params.RegularServer = addr.String()
	params.WarmupPeriod = 3 * time.Second
	params.WarmupWaitTime = 500 * time.Millisecond
	params.RegularWaitTime = 500 * time.Millisecond
	params.ResetPeriod = time.Minute
	params.HintPollInterval = 200 * time.Millisecond

	fmt.Println("\nMNTP over UDP (scripted hints, ~8s):")
	c := mntp.NewClient(mntp.SystemClock{}, nil, transport, scripted, sntp.WallSleeper{}, params)
	c.OnEvent = func(e core.Event) {
		switch e.Kind {
		case core.EventAccepted, core.EventRejected:
			fmt.Printf("MNTP %-8s %-9s offset %+8.3fms (rssi %5.1f noise %5.1f)\n",
				e.Phase, e.Kind, e.Offset.Seconds()*1000, e.Hints.RSSI, e.Hints.Noise)
		case core.EventDeferred:
			fmt.Printf("MNTP %-8s deferred  (rssi %5.1f noise %5.1f)\n",
				e.Phase, e.Hints.RSSI, e.Hints.Noise)
		}
	}
	c.Run(8 * time.Second)
	fmt.Printf("\nserver metrics: %s (rate table %d clients)\n",
		srv.Snapshot(), srv.RateTableSize())
}
