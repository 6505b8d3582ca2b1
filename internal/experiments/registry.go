// Package experiments is the one registry of the repository's
// experiments (F1, E1, E2, E4–E10, E16–E24): each is written once, as a
// grid.Spec — its rows — plus the grid.RunFunc that measures one row, and
// every surface is a view over that pair. `go test -bench` runs each row
// as a sub-benchmark with ops = b.N, the tcabench tables and -json are
// the grid at one repeat, and `tcabench -grid` / `make bench-gate` is the
// gate-marked rows at N repeats with mean/std. Adding an experiment is
// adding one entry to All; EXPERIMENTS.md says what an entry owes.
package experiments

import (
	"strings"
	"time"

	"tca"
	"tca/internal/grid"
)

// Experiment is one registry entry. The embedded Spec carries the id, the
// explicit row list (table rows and gate rows together) and the summary
// keys; the views fill in Repeats, BaseSeed and Ops.
type Experiment struct {
	grid.Spec
	Title string
	// Columns are the metrics the table and benchmark views show, in
	// order, by their key in grid.Sample.Metrics and the -json rows. A
	// row reports the subset that applies to it.
	Columns []string
	// Run measures one row once. It follows internal/grid's isolation
	// contract: all state is built fresh per call and released before
	// returning, and seed is the call's only source of variation.
	Run grid.RunFunc
	// Derive, when set, adds the columns that compare rows of one run to
	// each other (E16's speedup over its single-partition row). It must
	// omit a column whose base row is absent from rows.
	Derive func(rows []grid.BenchRow)
}

// Rows returns the entry's gate rows (gate true: what -grid and the CI
// gate run) or its table rows (what the tables, -json and the benchmarks
// run).
func (e Experiment) Rows(gate bool) []grid.Row {
	var rows []grid.Row
	for _, r := range e.Spec.Rows() {
		if r.Gate == gate {
			rows = append(rows, r)
		}
	}
	return rows
}

// All returns the registry in EXPERIMENTS.md order. Each call builds
// fresh entries: an entry may close over calibration state (E23's
// measured capacities) that must not leak between views.
func All() []Experiment {
	return []Experiment{f1(), e1(), e2(), e4(), e5(), e6(), e7(), e8(), e9(), e10(), e16(), e17(), e18(), e19(), e20(), e21(), e22(), e23(), e24()}
}

// models is the five-cell sweep order shared by the matrix experiments.
var models = []tca.ProgrammingModel{
	tca.Microservices, tca.Actors, tca.CloudFunctions, tca.StatefulDataflow, tca.Deterministic,
}

// modelOf resolves a row's "model" knob back to the model.
func modelOf(row grid.Row) tca.ProgrammingModel {
	for _, m := range models {
		if m.String() == row.Knob("model") {
			return m
		}
	}
	panic("experiments: row " + row.Experiment + "/" + row.Name() + " names no programming model")
}

// gate marks a row as part of the pinned regression gate. Gate rows are
// unlabeled — their knobs are their key, the keys ci/bench_baseline.json
// holds — and are pinned by construction (a constructed service
// capacity, a modeled append, a fixed sub-capacity rate), not verified
// across machines.
func gate(knobs ...string) grid.Row {
	r := grid.NewRow("", knobs...)
	r.Gate = true
	return r
}

// Unit is a metric's table header and `go test -bench` unit: its key in
// the spelling benchmark units use ("accept_p99_us" → "accept-p99-us"), so
// a metric has one name on every surface.
func Unit(key string) string { return strings.ReplaceAll(key, "_", "-") }

// us converts a duration to the microseconds the *_us columns carry.
func us(d time.Duration) float64 { return float64(d) / 1e3 }
