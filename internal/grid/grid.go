// Package grid is the declarative experiment-grid runner behind every
// view of the experiment registry (internal/experiments): the tcabench
// tables and -json (one repeat), `tcabench -grid` and the CI regression
// gate (the gate-marked rows, N repeats), and `go test -bench` (one
// sample per sub-benchmark). A Spec declares an experiment's rows — knob
// axes or an explicit list — a repeat count, and a base seed; Run
// executes each row once per repeat with the seed varied
// deterministically (BaseSeed + repeat index), and aggregates the
// repeats into per-row mean/std metrics plus pooled latency tails. The
// package also owns the machine-readable summary schema (Summary — what
// BENCH_latest.json and ci/bench_baseline.json hold) and the std-aware
// comparison that gates PRs on it, so the runner, the emitter, and the
// gate can never disagree about what a row means.
//
// Isolation contract: a RunFunc must build all of its state fresh on
// every call — cells, runtimes, brokers, temp-dir logs — and tear it
// down before returning. Nothing may survive a repeat in package-level
// state; the repeat seeds (not execution order) are the only thing that
// distinguishes two repeats, which is what makes row statistics
// invariant under grid-order shuffling (pinned in grid_test.go).
package grid

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Axis is one knob of a grid: a name and the values to sweep.
type Axis struct {
	Name   string
	Values []string
}

// Spec declares one experiment's grid.
type Spec struct {
	// Experiment is the id the emitted rows carry (e.g. "e10").
	Experiment string
	// Axes are the knobs; the grid's rows are their cartesian product in
	// declaration order (first axis slowest).
	Axes []Axis
	// List, when non-empty, is an explicit row list used instead of the
	// axes' product — for sweeps that skip combinations or keep
	// hand-written row labels.
	List []Row
	// Repeats is how many times each row runs (min 1). Repeat r uses seed
	// BaseSeed + r, so the repeat index — never wall-clock or execution
	// order — determines a repeat's randomness.
	Repeats int
	// BaseSeed anchors the per-repeat seeds (zero means 1).
	BaseSeed int64
	// Ops is the per-run operation count handed to the RunFunc.
	Ops int
	// ThroughputKey names the sample metric that is the row's rate
	// ("ops_s", "tx_s", "goodput_s"): on repeated rows it carries
	// key_min/key_max beside the key_std every metric gets.
	ThroughputKey string
	// AcceptKey and ApplyKey, when non-empty, name the pooled-p99 latency
	// metrics (microseconds) computed from the repeats' accept/apply
	// sample sets.
	AcceptKey, ApplyKey string
}

// Row is one cell of the grid: the experiment id plus one value per
// knob.
type Row struct {
	Experiment string
	// Label, when set, is the row's key in summaries; an unlabeled row
	// is keyed by its knobs (see Name).
	Label string
	// Gate marks a row of the pinned regression gate: `tcabench -grid`
	// runs exactly the gate rows, the tables and -json the others.
	Gate   bool
	names  []string
	values []string
}

// NewRow builds a row for Spec.List: label is its summary key ("" keys
// it by the knobs), knobs are name, value pairs.
func NewRow(label string, knobs ...string) Row {
	r := Row{Label: label}
	for i := 0; i+1 < len(knobs); i += 2 {
		r.names = append(r.names, knobs[i])
		r.values = append(r.values, knobs[i+1])
	}
	return r
}

// Knob returns the row's value for the named axis ("" if absent).
func (r Row) Knob(name string) string {
	for i, n := range r.names {
		if n == name {
			return r.values[i]
		}
	}
	return ""
}

// Int returns the named knob as an integer, zero when the row does not
// declare it. Rows are declared in code, so a malformed knob is a bug in
// the spec and panics.
func (r Row) Int(name string) int {
	return int(r.Float(name))
}

// Float is Int for real-valued knobs.
func (r Row) Float(name string) float64 {
	v := r.Knob(name)
	if v == "" {
		return 0
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		panic(fmt.Sprintf("grid: row %s/%s knob %s=%q is not a number", r.Experiment, r.Name(), name, v))
	}
	return f
}

// With returns the row with the named knob set to value — how a caller
// overrides a knob the row declares (tcabench's -audit and -arrival). A
// row without that knob is returned unchanged.
func (r Row) With(name, value string) Row {
	for i, n := range r.names {
		if n == name {
			r.values = append([]string(nil), r.values...)
			r.values[i] = value
		}
	}
	return r
}

// Name is the row's key in summaries: its Label, or for an unlabeled
// row the "knob=value" pairs joined by "/" in declaration order.
func (r Row) Name() string {
	if r.Label != "" {
		return r.Label
	}
	if len(r.names) == 0 {
		return "default"
	}
	parts := make([]string, len(r.names))
	for i := range r.names {
		parts[i] = r.names[i] + "=" + r.values[i]
	}
	return strings.Join(parts, "/")
}

// Rows returns the spec's explicit List, or expands its axes into their
// cartesian product, first axis slowest. A spec with neither yields one
// knobless row.
func (s Spec) Rows() []Row {
	if len(s.List) > 0 {
		rows := append([]Row(nil), s.List...)
		for i := range rows {
			rows[i].Experiment = s.Experiment
		}
		return rows
	}
	rows := []Row{{Experiment: s.Experiment}}
	for _, ax := range s.Axes {
		next := make([]Row, 0, len(rows)*len(ax.Values))
		for _, r := range rows {
			for _, v := range ax.Values {
				nr := Row{
					Experiment: s.Experiment,
					names:      append(append([]string(nil), r.names...), ax.Name),
					values:     append(append([]string(nil), r.values...), v),
				}
				next = append(next, nr)
			}
		}
		rows = next
	}
	return rows
}

// Sample is one repeat's measurement of one row.
type Sample struct {
	// Metrics is everything the run measured, keyed by column name
	// ("tx_s", "anomalies", ...). Run reduces each key to its mean and
	// spread across the repeats that reported it.
	Metrics map[string]float64
	// Accept and Apply are the run's latency sample sets (the bounded
	// reservoir contents); Run pools them across repeats for the row's
	// tail estimate.
	Accept, Apply []time.Duration
}

// RunFunc executes one row once under one seed. It must construct all
// state fresh and release it before returning (see the package comment).
type RunFunc func(row Row, seed int64, ops int) (Sample, error)

// RowResult aggregates one row's repeats.
type RowResult struct {
	Row     Row
	Repeats int
	// Metrics is the repeat spread of each sample metric.
	Metrics map[string]Stats
	// AcceptP99 and ApplyP99 are p99s over the pooled per-repeat sample
	// sets (zero when no samples were reported).
	AcceptP99, ApplyP99 time.Duration
	// Err is set when a repeat failed: the row's remaining repeats were
	// skipped and it carries no statistics. The other rows still ran.
	Err error
}

// Run executes every row of the spec Repeats times and aggregates. Rows
// run sequentially in expansion order; each row's repeat r always uses
// seed BaseSeed + r, so results are independent of row order. A failing
// row is reported through its RowResult.Err with the row and repeat
// named, and does not stop the grid. observe, when non-nil, is called
// before each repeat (tcabench narrates -grid progress with it).
func Run(spec Spec, run RunFunc, observe func(row Row, repeat int)) []RowResult {
	if spec.Repeats < 1 {
		spec.Repeats = 1
	}
	base := spec.BaseSeed
	if base == 0 {
		base = 1
	}
	var out []RowResult
	for _, row := range spec.Rows() {
		res := RowResult{Row: row, Repeats: spec.Repeats}
		metrics := map[string][]float64{}
		var acceptSets, applySets [][]time.Duration
		for r := 0; r < spec.Repeats; r++ {
			if observe != nil {
				observe(row, r)
			}
			sample, err := run(row, base+int64(r), spec.Ops)
			if err != nil {
				res.Err = fmt.Errorf("grid %s %s repeat %d: %w", spec.Experiment, row.Name(), r, err)
				break
			}
			for k, v := range sample.Metrics {
				metrics[k] = append(metrics[k], v)
			}
			if len(sample.Accept) > 0 {
				acceptSets = append(acceptSets, sample.Accept)
			}
			if len(sample.Apply) > 0 {
				applySets = append(applySets, sample.Apply)
			}
		}
		if res.Err == nil {
			res.Metrics = make(map[string]Stats, len(metrics))
			for k, vs := range metrics {
				res.Metrics[k] = NewStats(vs)
			}
			res.AcceptP99 = PooledQuantile(acceptSets, 0.99)
			res.ApplyP99 = PooledQuantile(applySets, 0.99)
		}
		out = append(out, res)
	}
	return out
}
