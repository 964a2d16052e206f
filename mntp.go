// Package mntp is the public facade of the MNTP reproduction: a Go
// implementation of "MNTP: Enhancing Time Synchronization for Mobile
// Devices" (Mani, Durairajan, Barford, Sommers — ACM IMC 2016),
// together with every substrate its evaluation depends on.
//
// The facade re-exports what README's snippets and examples/quickstart
// and examples/realudp use; the implementation lives in the internal
// packages (see DESIGN.md for the map). A one-hour run on a stressed
// wireless channel:
//
//	tb := mntp.NewTestbed(mntp.TestbedConfig{
//		Seed: 42, Access: mntp.Wireless, Monitor: true, NTPCorrection: true,
//	})
//	series := tb.RunMNTP(mntp.DefaultParams(mntp.PoolName), time.Hour, false)
//	fmt.Println(series.Summary())
package mntp

import (
	"mntp/internal/clock"
	"mntp/internal/core"
	"mntp/internal/ntpnet"
	"mntp/internal/testbed"
)

// The MNTP client (the paper's Algorithm 1) and its baseline
// configuration against a given pool.
var (
	NewClient     = core.New
	DefaultParams = core.DefaultParams
)

type (
	// UDPClient is the real-socket transport.
	UDPClient = ntpnet.Client
	// SystemClock reads the host clock.
	SystemClock = clock.System
	// TestbedConfig selects the simulated testbed's access type,
	// monitor and corrections.
	TestbedConfig = testbed.Config
)

// The wireless access kind and the simulated pool's name.
const (
	Wireless = testbed.Wireless
	PoolName = testbed.PoolName
)

// NewTestbed builds the paper's Figure 3 topology in simulation.
var NewTestbed = testbed.New
