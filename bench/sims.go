package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mntp/internal/experiments"
	"mntp/internal/population"
	"mntp/internal/testbed"
)

// paperExperiments are the 16 client-side experiments, in full mode.
// The §3.1 log study (Table 1, Figures 1–2) is left out on purpose: it
// is three quarters of experiments.All's wall time and would hide any
// change to the MNTP client stack; the traced run prices it on its own
// (ntplog.*).
var paperExperiments = []struct {
	id  string
	run func(experiments.Options) experiments.Outcome
}{
	{"figure3", experiments.Figure3}, {"figure4", experiments.Figure4},
	{"figure5", experiments.Figure5}, {"figure6", experiments.Figure6},
	{"figure7", experiments.Figure7}, {"figure8", experiments.Figure8},
	{"figure9", experiments.Figure9}, {"figure10", experiments.Figure10},
	{"figure11", experiments.Figure11}, {"figure12", experiments.Figure12},
	{"table2", experiments.Table2},
	{"ext-energy", experiments.ExtensionEnergy}, {"ext-nitz", experiments.ExtensionNITZ},
	{"ext-selftune", experiments.ExtensionSelfTune}, {"ext-rtscts", experiments.ExtensionRTSCTS},
	{"ext-ntpcomp", experiments.ExtensionNTPComparison},
}

// goldenSeed is the seed whose outputs are committed under golden/.
const goldenSeed = 2016

// suiteMetrics is every Outcome.Metrics value of one seed's suite:
// experiment id → metric name → measured value.
type suiteMetrics map[string]map[string]float64

// runSuite runs the 16 experiments at one seed, one span each, and
// returns their metrics and wall times (ms, in paperExperiments order).
func runSuite(seed int64, tr *tracer, id uint64) (suiteMetrics, []float64) {
	got := make(suiteMetrics, len(paperExperiments))
	times := make([]float64, 0, len(paperExperiments))
	for _, ex := range paperExperiments {
		var o experiments.Outcome
		d := tr.span("experiments."+ex.id, "suite", id, func() { o = ex.run(experiments.Options{Seed: seed}) })
		times = append(times, float64(d)/1e6)
		vals := make(map[string]float64, len(o.Metrics))
		for _, m := range o.Metrics {
			vals[m.Name] = m.Measured
		}
		got[ex.id] = vals
	}
	return got, times
}

// suiteProblems is the check every (seed, experiment) outcome must
// pass whatever the seed: every value finite, and the paper's headline
// claim — MNTP's worst offset beats SNTP's — holding where it is made.
func suiteProblems(seed int64, got suiteMetrics) (failed int, problems []string) {
	for _, ex := range paperExperiments {
		bad := ""
		for name, v := range got[ex.id] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				bad = fmt.Sprintf("%q is %v", name, v)
			}
		}
		if f, ok := got[ex.id]["improvement factor"]; ok && f <= 1 {
			bad = fmt.Sprintf("improvement factor %.3g ≤ 1: MNTP did not beat SNTP", f)
		}
		if len(got[ex.id]) == 0 {
			bad = "no metrics"
		}
		if bad != "" {
			failed++
			problems = append(problems, fmt.Sprintf("seed %d %s: %s", seed, ex.id, bad))
		}
	}
	return failed, problems
}

// golden is a committed reference output. Floats survive the JSON
// round trip exactly (shortest representation that parses back to the
// same bits), so on the architecture that wrote the file the
// comparison is bit-exact; elsewhere fused multiply-add may legally
// change the last bits and a relative 1e-9 is allowed.
type golden struct {
	GoArch string       `json:"goarch"`
	Seed   int64        `json:"seed"`
	Paper  suiteMetrics `json:"paper_sim,omitempty"`
	Fleet  *fleetCounts `json:"fleet_sim,omitempty"`
}

func goldenPath(e *env, workload string) string {
	return filepath.Join(e.root, "bench", "golden", workload+".json")
}

func loadGolden(e *env, workload string) (*golden, error) {
	b, err := os.ReadFile(goldenPath(e, workload))
	if err != nil {
		return nil, fmt.Errorf("%w (write it with -update-golden)", err)
	}
	var g golden
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath(e, workload), err)
	}
	return &g, nil
}

func writeGolden(e *env, workload string, g *golden) error {
	g.GoArch, g.Seed = runtime.GOARCH, goldenSeed
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath(e, workload)), 0o755); err != nil {
		return err
	}
	return os.WriteFile(goldenPath(e, workload), append(b, '\n'), 0o644)
}

func sameFloat(want, got float64, exact bool) bool {
	if want == got {
		return true
	}
	return !exact && math.Abs(want-got) <= 1e-9*math.Max(math.Abs(want), math.Abs(got))
}

// diffSuite lists every value of got that differs from want.
func diffSuite(want, got suiteMetrics, exact bool) []string {
	var diffs []string
	for id, w := range want {
		for name, wv := range w {
			gv, ok := got[id][name]
			if !ok {
				diffs = append(diffs, fmt.Sprintf("%s %q: missing", id, name))
			} else if !sameFloat(wv, gv, exact) {
				diffs = append(diffs, fmt.Sprintf("%s %q: golden %v, got %v", id, name, wv, gv))
			}
		}
	}
	for id, g := range got {
		for name := range g {
			if _, ok := want[id][name]; !ok {
				diffs = append(diffs, fmt.Sprintf("%s %q: not in golden", id, name))
			}
		}
	}
	return diffs
}

// headlineErrors reruns Figure 6's MNTP leg (the paper's headline:
// wireless, monitor interference, NTP-corrected clock, 5 s cadence,
// one hour) and returns |reported offset − ideal report| of every
// accepted sample, in µs: how wrong the offsets MNTP hands to the
// clock are, with the simulator as oracle.
func headlineErrors(seed int64) []float64 {
	tb := testbed.New(testbed.Config{Seed: seed + 6, Access: testbed.Wireless, Monitor: true, NTPCorrection: true})
	errsMs := tb.RunMNTP(paperMNTPParams(time.Hour), time.Hour, false).AbsError()
	for i := range errsMs {
		errsMs[i] *= 1e3
	}
	return errsMs
}

// runPaperSim is the timed run of paper_sim: consecutive seeds from
// e.seed until the window is used up. One operation is one experiment.
func runPaperSim(e *env, ms *metricSet) (*outcome, error) {
	o := &outcome{raw: map[string]any{}}
	g, err := loadGolden(e, "paper_sim")
	if err != nil {
		return nil, err
	}
	// Set-up is the golden seed's suite, compared value by value: the
	// output check and the warm-up in one.
	setUp := func() {
		got, _ := runSuite(g.Seed, nil, 0)
		if d := diffSuite(g.Paper, got, g.GoArch == runtime.GOARCH); len(d) > 0 {
			o.failed += int64(len(d))
			o.problems = append(o.problems, d...)
		}
		o.attempted += int64(len(paperExperiments))
	}
	setUp()

	// Set-up is timed again and again between the seeds of the window,
	// not in a row at the start: the shared box runs slow for ten seconds
	// and more at a time, and readings spread over the window are how
	// the undisturbed host is found among them.
	var setups []float64
	const setUpEvery = 8 // seeds

	// Every timing is taken per seed and reduced over seeds, so that a
	// slow spell of the host inside the window costs a few samples, not
	// a share of the total.
	var suiteSec, suiteCPU, expP50, expP90, rssMB, errsUs []float64
	var first suiteMetrics
	seeds := 0
	for start := time.Now(); seeds < 2 || time.Since(start) < e.window; {
		seed := e.seed + int64(seeds)
		cpu0, t0 := selfCPU(), time.Now()
		got, times := runSuite(seed, nil, 0)
		suiteSec = append(suiteSec, time.Since(t0).Seconds())
		suiteCPU = append(suiteCPU, float64(selfCPU()-cpu0)/1e3)
		expP50 = append(expP50, quantile(times, 0.5)*1e3) // ms → µs
		expP90 = append(expP90, quantile(times, 0.9)*1e3)
		rss, err := procRSSMB(os.Getpid())
		if err != nil {
			return nil, err
		}
		rssMB = append(rssMB, rss)
		if seeds%setUpEvery == 0 {
			setups = append(setups, timed(setUp).Seconds())
		}
		if seeds == 0 {
			first = got
		}
		failed, problems := suiteProblems(seed, got)
		o.failed += int64(failed)
		o.problems = append(o.problems, problems...)
		seeds++
		if e.smoke {
			break
		}
	}
	perSuite := float64(len(paperExperiments))
	o.attempted += int64(seeds) * int64(perSuite)

	// Replay: the first seed again must reproduce itself exactly.
	again, _ := runSuite(e.seed, nil, 0)
	if d := diffSuite(first, again, true); len(d) > 0 {
		o.failed += int64(len(d))
		o.problems = append(o.problems, fmt.Sprintf("seed %d does not replay: %v", e.seed, d))
	}
	for s := 0; s < seeds; s++ {
		errsUs = append(errsUs, headlineErrors(e.seed+int64(s))...)
	}
	ms.set("setup_s", undisturbed(setups, "lower"))
	ms.set("ops_per_s", perSuite/undisturbed(suiteSec, "lower"))
	ms.set("cpu_us_per_op", undisturbed(suiteCPU, "lower")/perSuite)
	ms.set("op_p50_us", undisturbed(expP50, "lower"))
	ms.set("op_p90_us", undisturbed(expP90, "lower"))
	ms.set("time_err_p50_us", quantile(errsUs, 0.5))
	ms.set("time_err_p90_us", quantile(errsUs, 0.9))
	ms.set("rss_mb", median(rssMB))
	o.raw["seeds"] = seeds
	o.raw["setups"] = setups
	o.raw["suite_ms"] = suiteSec
	o.raw["first_seed_metrics"] = first
	return o, nil
}

// Fleet shape: the jittered leg of the thundering-herd scenario — a
// synchronized cold start of every client against four honest servers,
// then 16 poll rounds of 64 s with 10 % jitter.
const (
	fleetPoll   = 64 * time.Second
	fleetRounds = 16
	fleetSize   = 200_000
	// fleetCheckSize is the small fleet of the set-up check.
	fleetCheckSize = 20_000
)

func fleetConfig(n int, seed int64) population.Config {
	return population.Config{
		N:    n,
		Seed: seed,
		Mode: population.ModeSim,
		Upstreams: []population.Upstream{
			{Name: "s0", Err: 1 * time.Millisecond, Stratum: 2},
			{Name: "s1", Err: -2 * time.Millisecond, Stratum: 2},
			{Name: "s2", Err: 2 * time.Millisecond, Stratum: 2},
			{Name: "s3", Err: -1 * time.Millisecond, Stratum: 3},
		},
		PollBase:   fleetPoll,
		PollJitter: 0.1,
	}
}

// fleetCounts are the exchange counts of one fleet run; they repeat
// exactly for a seed.
type fleetCounts struct {
	N             int    `json:"n"`
	Sent          uint64 `json:"sent"`
	Served        uint64 `json:"served"`
	ServedClients int    `json:"served_clients"`
}

// fleetRun is one fleet simulated over the full horizon.
type fleetRun struct {
	counts   fleetCounts
	build    time.Duration   // population.New
	rounds   []time.Duration // wall time of each poll round
	cpu      []time.Duration // the runner's CPU time in build and in each round
	rssMB    []float64       // its resident set after each of them
	stats    population.OffsetStats
	rttP50Ms float64 // virtual
	heap     uint64  // live heap with the engine alive, after GC
}

func (r *fleetRun) wall() time.Duration {
	d := r.build
	for _, x := range r.rounds {
		d += x
	}
	return d
}

func heapInUse() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapInuse
}

// runFleet builds and runs one fleet, one span per phase. With
// measureHeap it also reads the live heap before and after (two forced
// GCs: traced runs only).
func runFleet(n int, seed int64, rounds int, tr *tracer, id uint64, measureHeap bool) (*fleetRun, error) {
	r := &fleetRun{}
	var before uint64
	if measureHeap {
		before = heapInUse()
	}
	var eng *population.Engine
	var err error
	cpu := selfCPU()
	lap := func() { // closes a phase's accounts
		now := selfCPU()
		r.cpu = append(r.cpu, now-cpu)
		if rss, err := procRSSMB(os.Getpid()); err == nil {
			r.rssMB = append(r.rssMB, rss)
		}
		cpu = selfCPU() // the reading above is the benchmark's, not the engine's
	}
	r.build = tr.span("population.new", "fleet", id, func() { eng, err = population.New(fleetConfig(n, seed)) })
	if err != nil {
		return nil, err
	}
	lap()
	for i := 1; i <= rounds; i++ {
		d := tr.span("population.round", "fleet", id, func() { err = eng.Run(time.Duration(i) * fleetPoll) })
		if err != nil {
			return nil, err
		}
		r.rounds = append(r.rounds, d)
		lap()
	}
	tr.span("population.stats", "fleet", id, func() { r.stats = eng.Stats(0) })
	t := eng.Totals()
	r.counts = fleetCounts{N: n, Sent: t.Sent, Served: t.OK, ServedClients: eng.ServedClients()}
	if q, ok := eng.RTT().Quantile(0.5); ok {
		r.rttP50Ms = float64(q) / 1e6
	}
	if measureHeap {
		if after := heapInUse(); after > before {
			r.heap = after - before
		}
	}
	runtime.KeepAlive(eng)
	return r, nil
}

// checkFleetGolden runs the small golden fleet and compares its counts.
func checkFleetGolden(g *golden, o *outcome) error {
	r, err := runFleet(g.Fleet.N, g.Seed, fleetRounds, nil, 0, false)
	if err != nil {
		return err
	}
	o.attempted += int64(g.Fleet.N)
	o.failed += int64(g.Fleet.N - r.counts.ServedClients)
	if r.counts != *g.Fleet {
		o.failed++
		o.problems = append(o.problems, fmt.Sprintf("fleet counts at golden seed: want %+v, got %+v", *g.Fleet, r.counts))
	}
	return nil
}

// runFleetSim is the timed run of fleet_sim: fleets at consecutive
// seeds until the window is used up. One operation is one simulated
// request; the latency of an operation batch is the wall time of one
// poll round of the whole fleet.
func runFleetSim(e *env, ms *metricSet) (*outcome, error) {
	o := &outcome{raw: map[string]any{}}
	g, err := loadGolden(e, "fleet_sim")
	if err != nil {
		return nil, err
	}
	// Set-up is the small golden fleet, its counts compared. As in
	// paper_sim it is timed again after every fleet of the window.
	var setups []float64
	var setUpErr error
	setUp := func() {
		if err := checkFleetGolden(g, o); err != nil {
			setUpErr = err
		}
	}
	setUp()

	n := fleetSize
	if e.smoke {
		n = fleetCheckSize
	}
	// A fleet takes seconds, so a window holds only a handful: too few
	// to find the undisturbed host among whole fleets. Its 17 phases
	// (build, then 16 poll rounds) are short, though, and the same in
	// every fleet: each phase is reduced over fleets on its own, and the
	// metrics are those of the fleet put together from the 17 results.
	phases := fleetRounds + 1
	wallUs, cpuUs := make([][]float64, phases), make([][]float64, phases)
	var errP50, errP90, events, rssMB []float64
	var runs []fleetCounts
	for start := time.Now(); len(runs) < 2 || time.Since(start) < e.window; {
		seed := e.seed + int64(len(runs))
		r, err := runFleet(n, seed, fleetRounds, nil, 0, false)
		if err != nil {
			return nil, err
		}
		for j, d := range append([]time.Duration{r.build}, r.rounds...) {
			wallUs[j] = append(wallUs[j], float64(d)/1e3)
			cpuUs[j] = append(cpuUs[j], float64(r.cpu[j])/1e3)
		}
		events = append(events, float64(r.counts.Sent))
		rssMB = append(rssMB, r.rssMB...)
		setups = append(setups, timed(setUp).Seconds())
		errP50 = append(errP50, float64(r.stats.Median)/1e3)
		errP90 = append(errP90, float64(r.stats.P90)/1e3)
		o.attempted += int64(n)
		if miss := n - r.counts.ServedClients; miss > 0 {
			o.failed += int64(miss)
			o.problems = append(o.problems, fmt.Sprintf("seed %d: %d of %d clients never served", seed, miss, n))
		}
		runs = append(runs, r.counts)
		if e.smoke {
			break
		}
	}
	if setUpErr != nil {
		return nil, setUpErr
	}
	var wall, cpu float64
	roundUs := make([]float64, 0, fleetRounds)
	for j := range wallUs {
		w := undisturbed(wallUs[j], "lower")
		wall += w
		cpu += undisturbed(cpuUs[j], "lower")
		if j > 0 {
			roundUs = append(roundUs, w)
		}
	}
	ms.set("setup_s", undisturbed(setups, "lower"))
	ms.set("ops_per_s", median(events)/(wall/1e6))
	ms.set("cpu_us_per_op", cpu/median(events))
	ms.set("op_p50_us", quantile(roundUs, 0.5))
	ms.set("op_p90_us", quantile(roundUs, 0.9))
	ms.set("time_err_p50_us", median(errP50))
	ms.set("time_err_p90_us", median(errP90))
	ms.set("rss_mb", median(rssMB))
	o.raw["fleets"] = runs
	o.raw["setups"] = setups
	return o, nil
}

// updateGolden rewrites both golden files from the current code.
func updateGolden(e *env) error {
	paper, _ := runSuite(goldenSeed, nil, 0)
	if err := writeGolden(e, "paper_sim", &golden{Paper: paper}); err != nil {
		return err
	}
	r, err := runFleet(fleetCheckSize, goldenSeed, fleetRounds, nil, 0, false)
	if err != nil {
		return err
	}
	return writeGolden(e, "fleet_sim", &golden{Fleet: &r.counts})
}
