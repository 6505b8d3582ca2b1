// Command tcabench runs the experiment registry (internal/experiments)
// directly, without the testing harness, and prints one table per
// experiment — the rows EXPERIMENTS.md records. Use `go test -bench .`
// for the same rows with statistically settled numbers; tcabench is the
// quick look.
//
// With -json the tables are replaced by a machine-readable summary on
// stdout (one row object per table row, metrics keyed by name), which
// `make bench-json` writes to BENCH_latest.json so the perf trajectory
// can be tracked across PRs.
//
// With -grid the registry's gate-marked rows run instead of the table
// rows, each -repeats times with the seed varied deterministically
// (-seed + repeat index), and the summary carries mean/std/min/max
// throughput plus pooled-p99 latency per row — what `make bench-gate`
// diffs against ci/bench_baseline.json.
//
// A row whose run fails is named on stderr and left out of the output;
// the other rows still run and the exit status is 1.
//
// `tcabench -compare old.json new.json` diffs two summaries and flags
// throughput regressions beyond -threshold (default ±20%). When both
// sides carry repeat spreads the gate is std-aware: a delta inside
// 2× the pooled std is reported as noise, not failed. Rows present in
// old but missing from new fail the comparison outright.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"tca/internal/experiments"
	"tca/internal/grid"
)

func main() {
	all := experiments.All()
	var ids []string
	valid := map[string]bool{"all": true}
	for _, e := range all {
		ids = append(ids, e.Experiment)
		valid[e.Experiment] = true
	}
	known := strings.Join(ids, ",")

	ops := flag.Int("ops", 500, "operations per experiment cell")
	experiment := flag.String("experiment", "all",
		"comma-separated experiments to run: "+known+" (or all)")
	jsonOut := flag.Bool("json", false,
		"emit a machine-readable JSON summary on stdout instead of tables")
	audit := flag.String("audit", "live",
		"concurrency-experiment auditing: live (incremental auditors inside the loop) or off")
	arrival := flag.String("arrival", "poisson",
		"e23 arrival process: poisson (smooth) or bursty (2-state MMPP, same mean rate)")
	compare := flag.Bool("compare", false,
		"compare two -json summaries instead of running: tcabench -compare old.json new.json")
	threshold := flag.Float64("threshold", 20,
		"with -compare, flag throughput deltas beyond this percentage")
	gate := flag.Bool("grid", false,
		"run the pinned statistical gate grid instead of the tables; JSON summary on stdout")
	repeats := flag.Int("repeats", 3,
		"with -grid, how many seeded repeats each row runs")
	seed := flag.Int64("seed", 1,
		"with -grid, the base seed (repeat r uses seed base+r)")
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "tcabench: -compare needs exactly two summary files: old.json new.json")
			os.Exit(2)
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1), *threshold))
	}
	if *audit != "live" && *audit != "off" {
		fmt.Fprintf(os.Stderr, "tcabench: unknown -audit mode %q (use live or off)\n", *audit)
		os.Exit(2)
	}
	if *arrival != "poisson" && *arrival != "bursty" {
		fmt.Fprintf(os.Stderr, "tcabench: unknown -arrival process %q (use poisson or bursty)\n", *arrival)
		os.Exit(2)
	}
	selected := map[string]bool{}
	for _, name := range strings.Split(strings.ToLower(*experiment), ",") {
		name = strings.TrimSpace(name)
		if !valid[name] {
			fmt.Fprintf(os.Stderr, "tcabench: unknown experiment %q (use %s or all)\n", name, known)
			os.Exit(2)
		}
		selected[name] = true
	}

	// The tables and -json are the grid at one repeat under the default
	// seed; -grid is the gate rows at -repeats.
	sum := grid.Summary{OpsPerCell: *ops}
	if *gate {
		sum.Repeats, sum.BaseSeed = *repeats, *seed
	}
	failed := false
	for _, e := range all {
		if !selected["all"] && !selected[e.Experiment] {
			continue
		}
		spec := e.Spec
		spec.Ops, spec.Repeats, spec.BaseSeed = *ops, sum.Repeats, sum.BaseSeed
		spec.List = e.Rows(*gate)
		if len(spec.List) == 0 {
			continue
		}
		for i, row := range spec.List {
			// -audit and -arrival override the knobs of the rows that declare them.
			spec.List[i] = row.With("audit", *audit).With("arrival", *arrival)
		}
		var observe func(grid.Row, int)
		if *gate {
			observe = func(row grid.Row, r int) {
				fmt.Fprintf(os.Stderr, "grid %s %s repeat %d/%d\n", e.Experiment, row.Name(), r+1, spec.Repeats)
			}
		}
		var rows []grid.BenchRow
		for _, res := range grid.Run(spec, e.Run, observe) {
			if res.Err != nil {
				fmt.Fprintf(os.Stderr, "tcabench: FAILED %v\n", res.Err)
				failed = true
				continue
			}
			rows = append(rows, res.BenchRow(spec))
		}
		if e.Derive != nil {
			e.Derive(rows)
		}
		sum.Rows = append(sum.Rows, rows...)
		if !*jsonOut && !*gate {
			printTable(e, rows)
		}
	}
	if *jsonOut || *gate {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			fmt.Fprintf(os.Stderr, "tcabench: %v\n", err)
			os.Exit(1)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// printTable renders one experiment's rows under its declared columns; a
// column a row does not report prints as "-".
func printTable(e experiments.Experiment, rows []grid.BenchRow) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "%s: %s\nrow", strings.ToUpper(e.Experiment), e.Title)
	for _, key := range e.Columns {
		fmt.Fprintf(w, "\t%s", experiments.Unit(key))
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprint(w, r.Row)
		for _, key := range e.Columns {
			cell := "-"
			if v, ok := r.Metrics[key]; ok {
				cell = formatMetric(key, v)
			}
			fmt.Fprintf(w, "\t%s", cell)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	w.Flush()
}

// formatMetric renders one value by its key's unit suffix: durations for
// the *_us and *_ms columns, percentages for *_pct, plain numbers else.
func formatMetric(key string, v float64) string {
	switch {
	case strings.HasSuffix(key, "_us"):
		return time.Duration(v * 1e3).Round(time.Microsecond).String()
	case strings.HasSuffix(key, "_ms"):
		return time.Duration(v * 1e6).Round(10 * time.Microsecond).String()
	case strings.HasSuffix(key, "_pct"):
		return fmt.Sprintf("%.1f%%", v)
	case v == float64(int64(v)) || v >= 100:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.1f", v)
	}
}

// runCompare diffs two -json summaries through grid.Compare and prints
// every flagged delta. Throughput gating is std-aware when both sides
// carry repeat spreads: a delta beyond the percentage threshold but
// inside 2× the pooled std is reported as noise, not failed. Latency
// swings are informational. Returns the process exit code: 1 when any
// throughput metric regressed or any old row is missing from new, 0
// otherwise.
func runCompare(oldPath, newPath string, threshold float64) int {
	oldSum, err := grid.ReadSummary(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tcabench: %v\n", err)
		return 2
	}
	newSum, err := grid.ReadSummary(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tcabench: %v\n", err)
		return 2
	}
	if oldSum.OpsPerCell != newSum.OpsPerCell {
		fmt.Printf("note: ops_per_cell differs (%d vs %d) — rates are not directly comparable\n",
			oldSum.OpsPerCell, newSum.OpsPerCell)
	}
	res := grid.Compare(oldSum, newSum, threshold)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "row\tmetric\told\tnew\tdelta\tpooled-std\tverdict")
	for _, d := range res.Deltas {
		verdict := map[string]string{
			"regression":  "REGRESSED",
			"improvement": "improved",
			"noise":       "noise (within repeat spread)",
			"latency":     "latency (informational)",
		}[d.Kind]
		std := "-"
		if d.PooledStd > 0 {
			std = fmt.Sprintf("%.1f", d.PooledStd)
		}
		fmt.Fprintf(w, "%s\t%s\t%.1f\t%.1f\t%+.1f%%\t%s\t%s\n",
			d.RowKey, d.Metric, d.Old, d.New, d.Pct, std, verdict)
	}
	for _, key := range res.Added {
		fmt.Fprintf(w, "%s\t(new row)\t-\t-\t-\t-\t-\n", key)
	}
	for _, key := range res.Missing {
		fmt.Fprintf(w, "%s\t(MISSING from new)\t-\t-\t-\t-\tFAILED\n", key)
	}
	w.Flush()
	fmt.Printf("%d metrics compared: %d regressed, %d improved, %d noise-suppressed beyond %.0f%%; %d rows missing\n",
		res.Compared, res.Regressions, res.Improvements, res.Suppressed, threshold, len(res.Missing))
	if res.Failed() {
		return 1
	}
	return 0
}
