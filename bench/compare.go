package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// runSet is the timed runs found under one directory: workload →
// metric → one value per run.
type runSet map[string]map[string][]float64

// loadRunSet walks dir for the raw outputs of timed runs
// (<workload>.json as writeRaw stores them); traced outputs and other
// files are skipped.
func loadRunSet(dir string) (runSet, error) {
	set := make(runSet)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var doc struct {
			Workload string `json:"workload"`
			Traced   bool   `json:"traced"`
			Result   *result
		}
		if json.Unmarshal(b, &doc) != nil || doc.Result == nil || doc.Workload == "" || doc.Traced {
			return nil
		}
		if set[doc.Workload] == nil {
			set[doc.Workload] = make(map[string][]float64)
		}
		for name, v := range doc.Result.Metrics {
			set[doc.Workload][name] = append(set[doc.Workload][name], v.Value)
		}
		return nil
	})
	if err == nil && len(set) == 0 {
		err = fmt.Errorf("%s holds no timed-run output", dir)
	}
	return set, err
}

// spreadFile is bench/spread.json: the run-to-run spread the builder
// observed on the reference box, per workload and end-to-end metric,
// as the contract measures it (interquartile distance ÷ median over
// runs at different seeds).
type spreadFile struct {
	Host   map[string]any                `json:"host"`
	Runs   int                           `json:"runs_per_workload"`
	Median map[string]map[string]float64 `json:"median"`
	Spread map[string]map[string]float64 `json:"iqr_share"`
}

func spreadPath(root string) string { return filepath.Join(root, "bench", "spread.json") }

func loadSpread(root string) *spreadFile {
	b, err := os.ReadFile(spreadPath(root))
	var s spreadFile
	if err != nil || json.Unmarshal(b, &s) != nil {
		return &spreadFile{} // none recorded: nothing is unresolved
	}
	return &s
}

// verdict classifies B against A for one metric. Worse means B's
// median is worse than A's by more than bound (a share of A's median).
// When the spread recorded for the metric exceeds its bound the two
// sets cannot be told apart at that resolution, and the answer is
// "unresolved" rather than "ok" or "worse".
func verdict(def metricDef, a, b, recordedSpread float64) string {
	if recordedSpread > def.Bound {
		return "unresolved"
	}
	change := (b - a) / math.Abs(a)
	if def.Better == "higher" {
		change = -change
	}
	if change > def.Bound {
		return "worse"
	}
	return "ok"
}

// compareMain implements `bench compare A B` and `bench spread DIR`.
func compareMain(cmd string, args []string) error {
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	root := fs.String("root", defaultRoot(), "checkout root")
	write := fs.Bool("write", false, "spread: record the result in bench/spread.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sp, err := loadSpec(*root)
	if err != nil {
		return err
	}
	if cmd == "spread" {
		if fs.NArg() != 1 {
			return errors.New("usage: spread [-write] DIR")
		}
		return spreadMain(*root, sp, fs.Arg(0), *write)
	}
	if fs.NArg() != 2 {
		return errors.New("usage: compare A B")
	}
	a, err := loadRunSet(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := loadRunSet(fs.Arg(1))
	if err != nil {
		return err
	}
	recorded := loadSpread(*root)
	worse := 0
	fmt.Printf("%-14s %-16s %14s %14s %8s %6s  %s\n", "workload", "metric", "A (median)", "B (median)", "B/A", "bound", "verdict")
	for _, w := range sp.Workloads {
		for _, def := range sp.EndToEnd {
			av, bv := a[w.Name][def.Name], b[w.Name][def.Name]
			if len(av) == 0 || len(bv) == 0 {
				fmt.Printf("%-14s %-16s %14s %14s %8s %6s  missing\n", w.Name, def.Name, "-", "-", "-", "-")
				worse++
				continue
			}
			am, bm := median(av), median(bv)
			v := verdict(def, am, bm, recorded.Spread[w.Name][def.Name])
			if v == "worse" {
				worse++
			}
			fmt.Printf("%-14s %-16s %14.4f %14.4f %8.3f %5.0f%%  %s (%s is better; n=%d,%d)\n",
				w.Name, def.Name, am, bm, bm/am, def.Bound*100, v, def.Better, len(av), len(bv))
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse or missing", worse)
	}
	return nil
}

// spreadMain prints, per workload and end-to-end metric, the median
// and the interquartile share over the runs under dir, marks what
// exceeds a third of its bound, and with write records it.
func spreadMain(root string, sp *spec, dir string, write bool) error {
	set, err := loadRunSet(dir)
	if err != nil {
		return err
	}
	out := spreadFile{Host: hostInfo(root), Median: map[string]map[string]float64{}, Spread: map[string]map[string]float64{}}
	over := 0
	fmt.Printf("%-14s %-16s %4s %14s %9s %6s\n", "workload", "metric", "n", "median", "iqr/med", "bound")
	workloads := make([]string, 0, len(set))
	for w := range set {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)
	for _, w := range workloads {
		out.Median[w], out.Spread[w] = map[string]float64{}, map[string]float64{}
		for _, def := range sp.EndToEnd {
			xs := set[w][def.Name]
			if len(xs) == 0 {
				continue
			}
			out.Runs = max(out.Runs, len(xs))
			s := iqrShare(xs)
			out.Median[w][def.Name], out.Spread[w][def.Name] = median(xs), s
			note := ""
			switch {
			case def.Name != "setup_s" && s > def.Bound:
				note = "  EXCEEDS BOUND"
				over++
			case def.Name != "setup_s" && s > def.Bound/3:
				note = "  above a third of the bound"
			}
			fmt.Printf("%-14s %-16s %4d %14.4f %8.2f%% %5.0f%%%s\n", w, def.Name, len(xs), median(xs), s*100, def.Bound*100, note)
		}
	}
	if write {
		b, err := json.MarshalIndent(out, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(spreadPath(root), append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if over > 0 {
		return fmt.Errorf("%d spread(s) exceed their bound", over)
	}
	return nil
}
