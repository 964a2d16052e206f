package chaos

import (
	"fmt"
	"strings"
	"time"

	"mntp/internal/trend"
)

// BakeOffCell is one scenario × estimator outcome.
type BakeOffCell struct {
	Scenario  string
	Estimator trend.Kind
	// Final is the absolute true clock offset when the run ended —
	// the per-scenario accuracy the bake-off compares.
	Final time.Duration
	// Violations are the scenario's acceptance failures (empty = pass).
	Violations []string
}

// BakeOff runs every named scenario under each estimator kind and
// returns the grid, scenarios in scenarios() order and estimators in
// trend.Kinds() order within each scenario.
func BakeOff() []BakeOffCell {
	var out []BakeOffCell
	for _, sc := range scenarios() {
		for _, kind := range trend.Kinds() {
			sc := sc
			sc.Estimator = kind
			r := run(sc)
			final := r.Final
			if final < 0 {
				final = -final
			}
			out = append(out, BakeOffCell{
				Scenario:   sc.Name,
				Estimator:  kind,
				Final:      final,
				Violations: r.violations(),
			})
		}
	}
	return out
}

// BakeOffTable renders the grid as a GitHub-flavored markdown table:
// one row per scenario, one final-|offset| column per estimator, best
// estimator bolded, with a trailing pass/fail marker per cell.
func BakeOffTable(cells []BakeOffCell) string {
	kinds := trend.Kinds()
	byScenario := make(map[string]map[trend.Kind]BakeOffCell)
	var order []string
	for _, c := range cells {
		m, ok := byScenario[c.Scenario]
		if !ok {
			m = make(map[trend.Kind]BakeOffCell)
			byScenario[c.Scenario] = m
			order = append(order, c.Scenario)
		}
		m[c.Estimator] = c
	}

	var b strings.Builder
	b.WriteString("| scenario |")
	for _, k := range kinds {
		fmt.Fprintf(&b, " %s |", k)
	}
	b.WriteString("\n|---|")
	b.WriteString(strings.Repeat("---|", len(kinds)))
	b.WriteString("\n")
	for _, name := range order {
		row := byScenario[name]
		// Find the best (smallest) final offset among passing cells.
		best := trend.Kind("")
		for _, k := range kinds {
			c, ok := row[k]
			if !ok || len(c.Violations) > 0 {
				continue
			}
			if best == "" || c.Final < row[best].Final {
				best = k
			}
		}
		fmt.Fprintf(&b, "| %s |", name)
		for _, k := range kinds {
			c, ok := row[k]
			if !ok {
				b.WriteString(" — |")
				continue
			}
			cell := fmtOffset(c.Final)
			if len(c.Violations) > 0 {
				cell += " ✗"
			} else if k == best {
				cell = "**" + cell + "** ✓"
			} else {
				cell += " ✓"
			}
			fmt.Fprintf(&b, " %s |", cell)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// fmtOffset renders a final offset with stable precision so the table
// is diffable across runs (microsecond resolution, ms units).
func fmtOffset(d time.Duration) string {
	return fmt.Sprintf("%.3f ms", float64(d)/float64(time.Millisecond))
}
