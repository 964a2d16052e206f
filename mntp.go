// Package mntp is the public facade of the MNTP reproduction: a Go
// implementation of "MNTP: Enhancing Time Synchronization for Mobile
// Devices" (Mani, Durairajan, Barford, Sommers — ACM IMC 2016),
// together with every substrate its evaluation depends on.
//
// The facade re-exports the main entry points; the implementation
// lives in the internal packages (see DESIGN.md for the map):
//
//   - Client / Params / Event: the MNTP algorithm (internal/core);
//   - SNTPClient: the RFC 4330-style baseline (internal/sntp);
//   - NTPClient: a full reference NTP client with filtering,
//     intersection selection and a PLL discipline (internal/ntpclient);
//   - Testbed: the paper's laboratory testbed in deterministic
//     virtual-time simulation (internal/testbed);
//   - Tuner types: the §5.3 trace-driven parameter tuner
//     (internal/tuner).
//
// A one-hour head-to-head on a stressed wireless channel:
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
	"mntp/internal/discipline"
	"mntp/internal/exchange"
	"mntp/internal/hints"
	"mntp/internal/ntpclient"
	"mntp/internal/ntpnet"
	"mntp/internal/sntp"
	"mntp/internal/sources"
	"mntp/internal/testbed"
	"mntp/internal/tuner"
)

// MNTP core (the paper's contribution).
type (
	// Client runs Algorithm 1 over any transport and hint provider.
	Client = core.Client
	// Params are MNTP's tunables (warm-up/regular cadence, reset
	// period, source and discipline settings, ablation switches).
	Params = core.Params
	// Event is one observable algorithm step.
	Event = core.Event
	// EventKind classifies events (accepted/rejected/deferred/…).
	EventKind = core.EventKind
	// Filter is the trend-line offset filter, usable standalone.
	Filter = core.Filter
)

// Event kinds.
const (
	EventAccepted       = core.EventAccepted
	EventRejected       = core.EventRejected
	EventDeferred       = core.EventDeferred
	EventQueryFailed    = core.EventQueryFailed
	EventFalseTicker    = core.EventFalseTicker
	EventDriftCorrected = core.EventDriftCorrected
	EventKoD            = core.EventKoD
	EventDropped        = core.EventDropped
	EventAdjustError    = core.EventAdjustError
	EventHoldover       = core.EventHoldover
	EventPanicStep      = core.EventPanicStep
	EventResumed        = core.EventResumed
	EventNetworkChanged = core.EventNetworkChanged
)

// NewClient creates an MNTP client. See core.New.
var NewClient = core.New

// DefaultParams returns the paper's baseline configuration against
// the given pool.
var DefaultParams = core.DefaultParams

// Guarded clock discipline (step/panic thresholds, holdover).
type (
	// Discipline is the single gate every clock correction passes
	// through: step-vs-slew, panic refusal, the shared ±500 ppm
	// frequency clamp, holdover and suspend detection.
	Discipline = discipline.Discipline
	// DisciplineConfig are the gate's thresholds.
	DisciplineConfig = discipline.Config
	// DisciplineState is the gate's sync state (cold/sync/holdover).
	DisciplineState = discipline.State
	// DisciplineStatus is an observable snapshot of the gate.
	DisciplineStatus = discipline.Status
	// DisciplineResult reports what one correction attempt did.
	DisciplineResult = discipline.Result
)

// Discipline states and the shared frequency bound.
const (
	DisciplineCold     = discipline.StateCold
	DisciplineSync     = discipline.StateSync
	DisciplineHoldover = discipline.StateHoldover
	// MaxFreqPPM is the plausibility bound on frequency corrections
	// (±500 ppm), shared by the discipline, the drift file and the
	// full NTP client.
	MaxFreqPPM = discipline.MaxFreqPPM
)

// NewDiscipline creates a standalone discipline gate over an adjuster.
var NewDiscipline = discipline.New

// Wireless hints.
type (
	// Hints is one RSSI/noise reading.
	Hints = hints.Hints
	// HintProvider supplies channel hints.
	HintProvider = hints.Provider
)

// Baselines.
type (
	// SNTPClient is the simple client the paper compares against.
	SNTPClient = sntp.Client
	// SNTPConfig parameterizes it.
	SNTPConfig = sntp.Config
	// NTPClient is the full reference NTP client.
	NTPClient = ntpclient.Client
	// NTPConfig parameterizes it.
	NTPConfig = ntpclient.Config
)

// NewSNTPClient creates an SNTP client; AndroidSNTPConfig and
// WindowsMobileSNTPConfig mirror the vendor behaviours of §2.
var (
	NewSNTPClient           = sntp.New
	AndroidSNTPConfig       = sntp.AndroidConfig
	WindowsMobileSNTPConfig = sntp.WindowsMobileConfig
	NewNTPClient            = ntpclient.New
)

// Multi-source pool (upstream health, fan-out, selection).
type (
	// SourcePool owns a set of upstream servers with per-source health
	// scoring, concurrent fan-out and Marzullo selection.
	SourcePool = sources.Pool
	// SourcePoolConfig parameterizes a pool.
	SourcePoolConfig = sources.Config
	// SourceStatus is an observable snapshot of one source.
	SourceStatus = sources.SourceStatus
)

// NewSourcePool creates a pool; FormatPoolStatus renders a status
// snapshot as a table.
var (
	NewSourcePool    = sources.New
	FormatPoolStatus = sources.FormatStatus
)

// Transport and measurement.
type (
	// Transport is one NTP request/response exchange; satisfied by
	// the simulated network and the UDP client.
	Transport = exchange.Transport
	// Sample is one four-timestamp measurement.
	Sample = exchange.Sample
	// UDPClient is the real-socket transport.
	UDPClient = ntpnet.Client
	// UDPServer serves NTP over real sockets.
	UDPServer = ntpnet.Server
	// SystemClock reads the host clock.
	SystemClock = clock.System
)

// Measure performs one exchange and computes offset/delay.
var Measure = exchange.Measure

// NewUDPServer creates a UDP NTP server.
var NewUDPServer = ntpnet.NewServer

// Simulation testbed.
type (
	// Testbed is the paper's Figure 3 topology in simulation.
	Testbed = testbed.Testbed
	// TestbedConfig selects access type, monitor and corrections.
	TestbedConfig = testbed.Config
	// Series is a protocol run's recorded output.
	Series = testbed.Series
	// AccessKind selects the TN's access network.
	AccessKind = testbed.Access
)

// Access kinds and the simulated pool name.
const (
	Wireless = testbed.Wireless
	Wired    = testbed.Wired
	Cellular = testbed.Cellular
	PoolName = testbed.PoolName
)

// NewTestbed builds a testbed.
var NewTestbed = testbed.New

// Tuner (§5.3).
type (
	// Trace is a recorded offsets+hints log.
	Trace = tuner.Trace
	// TunerResult is one emulated configuration's outcome.
	TunerResult = tuner.Result
	// TunerConfig is a minute-based parameter combination.
	TunerConfig = tuner.Config
)

// Tuner entry points.
var (
	CollectTrace  = tuner.Collect
	EmulateTrace  = tuner.Emulate
	SearchConfigs = tuner.Search
	Table2Configs = tuner.Table2Configs
)

// Self-tuning (§7 future work).
type (
	// SelfTuner adapts MNTP's cadence parameters between cycles.
	SelfTuner = core.SelfTuner
	// CycleStats is the feedback a tuner adjusts on.
	CycleStats = core.CycleStats
)

// NewSelfTuner creates a self-tuner targeting the given RMSE (ms).
var NewSelfTuner = core.NewSelfTuner
