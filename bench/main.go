// Command bench is the repository's benchmark runner. It drives the
// repo strictly from outside — the ntpserver binary as a child process
// and the exported APIs of the internal packages — and prints, as the
// last line of standard output, one JSON object with the run's verdict
// and metrics. BENCHMARK.json at the repo root is the contract: it
// names the workloads and every metric with unit, direction and bound.
//
//	bash bench/run.sh --workload serve_plain --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload serve_nts --seed 1 --seconds 20 --trace 1
//	bash bench/run.sh compare DIR_A DIR_B
//	bash bench/run.sh spread DIR
//	bash bench/run.sh -update-golden
//
// See README.md beside this file.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// env is what one run of one workload needs to know.
type env struct {
	root      string // checkout root (holds BENCHMARK.json, go.mod, cmd/)
	tmpDir    string // scratch for this run, removed at exit
	outDir    string // raw per-run output
	serverBin string // built ntpserver ("" until a serving workload builds it)
	spec      *spec
	workload  string
	seed      int64
	window    time.Duration // measured seconds
	smoke     bool          // tiny sizes: exercises every code path in about a second
	// setupRepeats is how many times a serving workload's set-up is
	// performed before the window (the simulations time theirs between
	// the units of the window).
	setupRepeats int
	buildSeconds float64
}

// scale shortens a fixed phase in smoke mode.
func (e *env) scale(d time.Duration) time.Duration {
	if e.smoke {
		return d / 5
	}
	return d
}

// outcome is a run's verdict besides its metrics.
type outcome struct {
	attempted, failed int64
	// problems are wrong outputs (or an invalid run), as opposed to
	// operations that merely failed: any makes the run incorrect.
	problems []string
	raw      map[string]any
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	code := 0
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		code = 1
	}
	stopAllChildren()
	os.Exit(code)
}

func run(args []string) error {
	if len(args) > 0 && (args[0] == "compare" || args[0] == "spread") {
		return compareMain(args[0], args[1:])
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 0, "measured seconds (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	root := fs.String("root", defaultRoot(), "checkout root")
	out := fs.String("out", "", "directory for raw per-run output (default <root>/bench/out)")
	smoke := fs.Bool("smoke", false, "tiny sizes: every code path in about a second, numbers meaningless")
	update := fs.Bool("update-golden", false, "rewrite bench/golden/ from the current code and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		return err
	}
	sp, err := loadSpec(absRoot)
	if err != nil {
		return err
	}
	e := &env{root: absRoot, spec: sp, workload: *workload, seed: *seed, smoke: *smoke, setupRepeats: 5,
		outDir: *out, window: time.Duration(*seconds * float64(time.Second))}
	if e.outDir == "" {
		e.outDir = filepath.Join(absRoot, "bench", "out")
	}
	if e.window <= 0 {
		e.window = time.Duration(sp.RunSeconds) * time.Second
	}
	if e.smoke {
		e.setupRepeats = 1
	}
	if s := os.Getenv("BENCH_BUILD_S"); s != "" {
		e.buildSeconds, _ = strconv.ParseFloat(s, 64) // absent or malformed: the runner was started by hand
	}
	if *update {
		return updateGolden(e)
	}
	if !sp.hasWorkload(e.workload) {
		return fmt.Errorf("unknown workload %q (BENCHMARK.json names %d)", e.workload, len(sp.Workloads))
	}

	if err := pinToOneCPU(); err != nil {
		return fmt.Errorf("binding the run to one CPU: %w", err)
	}
	buildDir := filepath.Join(absRoot, ".bench_build")
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	if e.tmpDir, err = os.MkdirTemp(buildDir, "run-"); err != nil {
		return err
	}
	defer os.RemoveAll(e.tmpDir)
	// A signal must not leave a child ntpserver (or the scratch
	// directory) behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAllChildren()
		os.RemoveAll(e.tmpDir)
		os.Exit(130)
	}()

	if _, serving := serveWorkloads[e.workload]; serving {
		e.serverBin = filepath.Join(buildDir, "bin", "ntpserver")
		d, err := buildServer(absRoot, e.serverBin)
		if err != nil {
			return err
		}
		e.buildSeconds += d.Seconds()
	}

	res, err := runWorkload(e, *trace != 0)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errors.New("outputs were not correct")
	}
	return nil
}

// runWorkload performs one timed or traced run of e.workload, stores
// its raw output and returns the result to print.
func runWorkload(e *env, traced bool) (result, error) {
	defs := e.spec.EndToEnd
	if traced {
		defs = e.spec.PerLayer
	}
	ms := newMetricSet(defs, traced)
	start := time.Now()
	var o *outcome
	var err error
	if traced {
		o, err = runTraced(e, ms)
	} else {
		o, err = runTimed(e, ms)
	}
	if err != nil {
		return result{}, err
	}
	metrics, err := ms.finish()
	if err != nil {
		return result{}, err
	}
	res := result{Correct: len(o.problems) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: metrics}
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "bench: INCORRECT:", p)
	}
	return res, writeRaw(e, traced, res, o, time.Since(start))
}

// defaultRoot is the checkout root run.sh exports, else the working
// directory.
func defaultRoot() string {
	if r := os.Getenv("BENCH_ROOT"); r != "" {
		return r
	}
	return "."
}

func runTimed(e *env, ms *metricSet) (*outcome, error) {
	switch e.workload {
	case "paper_sim":
		return runPaperSim(e, ms)
	case "fleet_sim":
		return runFleetSim(e, ms)
	}
	c, ok := serveWorkloads[e.workload]
	if !ok {
		return nil, fmt.Errorf("workload %q is declared in BENCHMARK.json but not implemented", e.workload)
	}
	return runServe(e, c, ms)
}

// hostInfo is recorded with every raw output, so numbers are never
// read without the box they came from.
func hostInfo(root string) map[string]any {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease") // absent off Linux: recorded as ""
	commit := "unknown"                                    // the driver's checkout is not a git repository
	if b, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"kernel":     strings.TrimSpace(string(kernel)),
		"go":         runtime.Version(),
		"goarch":     runtime.GOARCH,
		"commit":     commit,
		"pinned_cpu": os.Getenv("BENCH_PINNED"), // "" when run from a test
	}
}

// writeRaw stores the run under outDir as <workload>.json (timed) or
// <workload>.layers.json (traced).
func writeRaw(e *env, traced bool, res result, o *outcome, took time.Duration) error {
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return err
	}
	name := e.workload + ".json"
	if traced {
		name = e.workload + ".layers.json"
	}
	doc := map[string]any{
		"workload":     e.workload,
		"seed":         e.seed,
		"seconds":      e.window.Seconds(),
		"smoke":        e.smoke,
		"traced":       traced,
		"took_seconds": took.Seconds(),
		"host":         hostInfo(e.root),
		"result":       res,
		"problems":     o.problems,
		"raw":          o.raw,
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(e.outDir, name), append(b, '\n'), 0o644)
}
