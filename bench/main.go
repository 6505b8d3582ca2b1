// Command bench is the repository's benchmark: TPC-C driven through the
// five programming-model cells from outside, through exported API only.
//
//	bench -workload tpcc-core -seed 1 -seconds 12 -trace 0   one workload, end-to-end metrics
//	bench -workload tpcc-core -seed 1 -seconds 12 -trace 1   one workload, per-layer metrics
//	bench -seed 1 [-workloads a,b]                           every workload, both passes
//	bench -compare a.json b.json                             regression verdict between two result files
//
// See README.md for the passes, the workloads and the metric catalogue.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 12

// workloadResult is everything one invocation learned about one workload.
type workloadResult struct {
	EndToEnd    map[string]metricValue `json:"end_to_end,omitempty"`
	Raw         map[string]metricValue `json:"raw,omitempty"`
	PerLayer    map[string]metricValue `json:"per_layer,omitempty"`
	Checks      *checks                `json:"checks,omitempty"`
	TraceChecks *checks                `json:"trace_checks,omitempty"`
	Breakdown   []layerRow             `json:"breakdown,omitempty"`
	TraceFile   string                 `json:"trace_file,omitempty"`
}

// results is the document written to <out>/results.json, the input of
// -compare.
type results struct {
	Seed       int64                      `json:"seed"`
	Seconds    float64                    `json:"seconds"`
	NumCPU     int                        `json:"nproc"`
	GOMAXPROCS int                        `json:"gomaxprocs"`
	WallS      float64                    `json:"wall_s"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload  = flag.String("workload", "", "run this one workload (the driver's contract)")
		subset    = flag.String("workloads", "", "comma-separated subset to run, for development")
		seed      = flag.Int64("seed", 1, "workload seed: the same seed gives the same op streams")
		seconds   = flag.Float64("seconds", defaultSeconds, "measuring time per workload and pass")
		trace     = flag.Int("trace", -1, "0: timed pass only, 1: traced and layers passes only, default both")
		outDir    = flag.String("out", filepath.Join("bench", "out"), "directory for results.json and trace files")
		doCompare = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	flag.Parse()
	if *doCompare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 || *seconds <= 0 || *trace < -1 || *trace > 1 {
		flag.Usage()
		return 2
	}
	specs := workloads
	names := *workload
	if names == "" {
		names = *subset
	}
	if names != "" {
		specs = nil
		for _, name := range strings.Split(names, ",") {
			spec, ok := findWorkload(name)
			if !ok {
				fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
				return 2
			}
			specs = append(specs, spec)
		}
	}

	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	// Exit paths that skip defers still remove the WAL directories.
	defer removeAllTempDirs()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	budget := time.Duration(watchdogPerRun*len(specs)) * time.Second
	go func() {
		select {
		case <-sig:
			fmt.Fprintln(os.Stderr, "bench: interrupted")
		case <-time.After(budget):
			fmt.Fprintf(os.Stderr, "bench: still running after %v: giving up\n", budget)
		}
		removeAllTempDirs()
		os.Exit(3)
	}()

	start := time.Now()
	res := &results{
		Seed: *seed, Seconds: *seconds, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workloads: map[string]*workloadResult{},
	}
	for _, spec := range specs {
		res.Workloads[spec.Name] = &workloadResult{}
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *trace != 1 {
		if err := timedPass(specs, *seed, *seconds, res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if *trace != 0 {
		if err := tracedAndLayers(specs, *seed, *seconds, *outDir, res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	res.WallS = time.Since(start).Seconds()

	ok := report(os.Stdout, specs, res)
	if err := writeJSON(filepath.Join(*outDir, "results.json"), res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if len(specs) == 1 && *trace >= 0 {
		printContractLine(res.Workloads[specs[0].Name], *trace, ok)
	}
	if !ok {
		return 1
	}
	return 0
}

// timedPass runs the timed rounds interleaved across the workloads
// (A B C, A B C, ...), so that a slow minute of the machine lands on
// every workload and not on one.
func timedPass(specs []workloadSpec, seed int64, seconds float64, res *results) error {
	warmup, window := roundPlan(seconds)
	rounds := map[string][]*roundResult{}
	for r := 0; r < timedRounds; r++ {
		for _, spec := range specs {
			rr, err := runRound(roundConfig{spec: spec, seed: seed, round: r, warmup: warmup, window: window})
			if err != nil {
				return err
			}
			rounds[spec.Name] = append(rounds[spec.Name], rr)
		}
	}
	for _, spec := range specs {
		setups, factor, err := timeSetups(spec, seed, setupCount)
		if err != nil {
			return err
		}
		wr := res.Workloads[spec.Name]
		var c checks
		wr.EndToEnd, wr.Raw, c = endToEnd(spec, rounds[spec.Name], setups, factor)
		wr.Checks = &c
	}
	return nil
}

// tracedAndLayers runs the layers pass once and the traced pass per
// workload, and writes each workload's span log.
func tracedAndLayers(specs []workloadSpec, seed int64, seconds float64, outDir string, res *results) error {
	probes, err := runProbes(seed)
	if err != nil {
		return err
	}
	for _, spec := range specs {
		traced, c, tr, err := tracedPass(spec, seed, seconds)
		if err != nil {
			return err
		}
		wr := res.Workloads[spec.Name]
		if wr.PerLayer, err = perLayer(traced, probes); err != nil {
			return err
		}
		wr.TraceChecks = &c
		wr.Breakdown = breakdown(tr.Spans)
		if wr.TraceFile, err = writeTraceFile(outDir, spec, seed, tr); err != nil {
			return err
		}
	}
	return nil
}

// report prints every metric by name with its unit, the validity checks
// beside them and the span breakdown, and returns whether every check held.
func report(w *os.File, specs []workloadSpec, res *results) bool {
	ok := true
	fmt.Fprintf(w, "seed %d, %gs per pass, nproc %d, GOMAXPROCS %d, wall %.1fs\n", res.Seed, res.Seconds, res.NumCPU, res.GOMAXPROCS, res.WallS)
	printChecks := func(label string, spec workloadSpec, c *checks) {
		if c == nil {
			return
		}
		fmt.Fprintf(w, "  %s: attempted %d, failed %d (fail_frac %.5f), drift_keys %d (exact=%v), apply samples n=%d\n",
			label, c.Attempted, c.Failed, c.FailFrac, c.DriftKeys, spec.Exact, c.ApplySamples)
		if spec.OpenRate > 0 {
			fmt.Fprintf(w, "  %s: open loop: completed/arrived %.4f, generator late_p50_us %.1f late_p99_us %.1f\n", label, c.CompletedFrac, c.LateP50US, c.LateP99US)
		}
		if !spec.Exact && c.DriftKeys > 0 {
			fmt.Fprintf(w, "  %s: drift tolerated: %s\n", label, spec.NotExactWhy)
		}
		for _, d := range c.Drift {
			fmt.Fprintf(w, "  %s: drift: %s\n", label, d)
		}
		for _, e := range c.Errors {
			ok = false
			fmt.Fprintf(w, "  %s: FAILED: %s\n", label, e)
		}
	}
	for _, spec := range specs {
		wr := res.Workloads[spec.Name]
		fmt.Fprintf(w, "\n== %s\n", spec.Name)
		for _, m := range endToEndMetrics {
			if v, found := wr.EndToEnd[m.Name]; found {
				fmt.Fprintf(w, "  %-34s %14.4f %-6s rounds %v\n", m.Name, v.Value, v.Unit, fmtRounds(v.Rounds))
			}
		}
		for _, m := range rawMetrics {
			if v, found := wr.Raw[m.Name]; found {
				fmt.Fprintf(w, "  raw %-30s %14.4f %-6s rounds %v\n", m.Name, v.Value, v.Unit, fmtRounds(v.Rounds))
			}
		}
		printChecks("timed", spec, wr.Checks)
		for _, m := range perLayerMetrics {
			if v, found := wr.PerLayer[m.Name]; found {
				fmt.Fprintf(w, "  %-34s %14.4f %-6s [%s, %s]\n", m.Name, v.Value, v.Unit, m.Layer, m.Source)
			}
		}
		printChecks("traced", spec, wr.TraceChecks)
		if len(wr.Breakdown) > 0 {
			fmt.Fprintf(w, "  span breakdown (%s):\n  %-16s %9s %12s %12s %10s\n", wr.TraceFile, "span", "count", "total_ms", "self_ms", "p50_us")
			for _, row := range wr.Breakdown {
				fmt.Fprintf(w, "  %-16s %9d %12.1f %12.1f %10.1f\n", row.Name, row.Count, row.TotalMS, row.SelfMS, row.P50US)
			}
		}
	}
	return ok
}

func fmtRounds(v []float64) string {
	if len(v) > timedRounds { // setup_s carries one value per set-up
		return fmt.Sprintf("n=%d", len(v))
	}
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// printContractLine prints the driver's result object as the last line of
// standard output.
func printContractLine(wr *workloadResult, trace int, ok bool) {
	metrics, c := wr.EndToEnd, wr.Checks
	if trace == 1 {
		metrics, c = wr.PerLayer, wr.TraceChecks
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: ok, Attempted: c.Attempted, Failed: c.Failed, Metrics: map[string]value{}}
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		out.Metrics[name] = value{metrics[name].Value, metrics[name].Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings
	}
	fmt.Println(string(line))
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
