package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"tca"
	"tca/internal/metrics"
)

// tracedPlan splits a run's measuring time over the traced pass: a
// quarter for an untraced reference round (for the tracing overhead), half
// for the traced round; the unloaded probe and the layer probes, which run
// on fixed call counts, take about the last quarter.
func tracedPlan(seconds float64) (refWindow, tracedWindow, warmup time.Duration) {
	unit := time.Duration(seconds / 4 * float64(time.Second))
	return unit, 2 * unit, unit / 4
}

// unloadedP50 is the cell with nothing else to do: one session, depth 1,
// blocking Invokes on a fresh cell.
func unloadedP50(spec workloadSpec, seed int64) (float64, error) {
	dep, err := deploy(spec, seed, 90, 1, 0)
	if err != nil {
		return 0, err
	}
	defer dep.close()
	st := dep.sess[0]
	durs := make([]int64, 0, unloadedOps)
	for i := 0; i < unloadedOps; i++ {
		op := st.gen.Next()
		args, err := json.Marshal(op)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		_, err = st.sess.Invoke(op.Kind.String(), args, nil)
		if err != nil {
			return 0, fmt.Errorf("%s: unloaded invoke: %w", spec.Name, err)
		}
		if i >= unloadedOps/10 {
			durs = append(durs, int64(time.Since(t0)))
		}
	}
	sortInt64(durs)
	return float64(durs[len(durs)/2]) / 1e3, nil
}

// tracedPass runs one workload's traced pass and returns its per-layer
// values (the probe metrics are merged in by the caller), its checks and
// the span log.
func tracedPass(spec workloadSpec, seed int64, seconds float64) (map[string]float64, checks, *roundResult, error) {
	refWindow, window, warmup := tracedPlan(seconds)
	ref, err := runRound(roundConfig{spec: spec, seed: seed, round: 0, warmup: warmup, window: refWindow})
	if err != nil {
		return nil, checks{}, nil, err
	}
	tr, err := runRound(roundConfig{spec: spec, seed: seed, round: 0, warmup: warmup, window: window, traced: true})
	if err != nil {
		return nil, checks{}, nil, err
	}
	unloaded, err := unloadedP50(spec, seed)
	if err != nil {
		return nil, checks{}, nil, err
	}

	var c checks
	c.foldRound(spec, 0, tr)
	ops := float64(max(tr.Attempted, 1))
	total := float64(max(tr.TotalOps, 1))
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	refTx, tracedTx := float64(ref.Committed)/ref.WindowS, float64(tr.Committed)/tr.WindowS
	cn := tr.Counters
	out := map[string]float64{
		"session.accept_p50_ns": pct(&c, "accept p50", tr.AcceptNS, 0.50) * 1e3,
		"session.wait_p50_ns":   pct(&c, "wait p50", tr.WaitNS, 0.50) * 1e3,
		"session.retries":       float64(tr.Retries),
		"session.sheds":         float64(tr.Retries + tr.Shed),

		"cell.unloaded_p50_us":     unloaded,
		"cell.settle_ms":           tr.SettleMS,
		"cell.trace_overhead_frac": 1 - ratio(tracedTx, refTx),
		"cell.aborts_per_op":       float64(tr.CellErrs) / ops,
		"cell.apply_p99_us":        pct(&c, "apply p99", tr.RawApplyNS, 0.99),

		"fabric.sim_p50_us":  pct(&c, "fabric sim p50", tr.SimNS, 0.50),
		"fabric.sim_p99_us":  pct(&c, "fabric sim p99", tr.SimNS, 0.99),
		"fabric.hops_per_op": float64(tr.Hops) / float64(max(len(tr.SimNS), 1)),

		"wal.dir_bytes_per_op": ratio(float64(tr.DirBytes), cn["core.commits"]),

		"core.txns_per_group_append": ratio(cn["core.grouped_txns"], cn["core.group_appends"]),
		"core.wal_records_per_group": ratio(cn["core.wal_records"], cn["core.wal_group_appends"]),
		"core.commits":               cn["core.commits"],
		"core.aborts":                cn["core.aborts"],
		"core.dedup_hits":            cn["core.dedup_hits"],
		"core.shed":                  cn["core.shed"],
		"core.readonly":              cn["core.readonly"],

		"dataflow.records_per_op": cn["dataflow.sink_records"] / total,
		"dataflow.checkpoints":    cn["dataflow.checkpoints"],

		"audit.record_observe_us": pct(&c, "audit p50", tr.AuditNS, 0.50),
		"audit.verify_ms":         tr.Audit.VerifyMS,
		"audit.anomalies":         float64(len(tr.Audit.Anomalies)),
		"audit.reordered":         float64(tr.Audit.Reordered),
		"audit.graph_cycles":      float64(tr.Audit.GraphCycles),
		"audit.violations":        float64(tr.Audit.Violations),

		"check.fail_frac":      c.FailFrac,
		"check.drift_keys":     float64(c.DriftKeys),
		"check.late_p99_us":    c.LateP99US,
		"check.completed_frac": c.CompletedFrac,
	}
	// The four isolated cells must audit clean; the saga and dataflow
	// cells promise no isolation, so their anomalies are a read-out.
	if tr.Isolated && len(tr.Audit.Anomalies) > 0 {
		c.failf("auditor: %d anomalies on an isolated cell, first: %s", len(tr.Audit.Anomalies), tr.Audit.Anomalies[0])
	}
	return out, c, tr, nil
}

// perLayer assembles the declared per-layer metrics from the traced and
// probe values; a declared metric nobody produced, or a produced one
// nobody declared, is a harness error.
func perLayer(traced, probes map[string]float64) (map[string]metricValue, error) {
	out := map[string]metricValue{}
	for _, m := range perLayerMetrics {
		src := probes
		if m.Source == "traced" {
			src = traced
		}
		v, ok := src[m.Name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s is declared but was not measured", m.Name)
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for _, src := range []map[string]float64{traced, probes} {
		for name := range src {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("per-layer metric %s was measured but is not declared", name)
			}
		}
	}
	return out, nil
}

// traceCounters are the counts snapshotted at the traced round's
// boundaries, written beside the spans.
func traceCounters(tr *roundResult) map[string]float64 {
	out := map[string]float64{
		"ops.total":        float64(tr.TotalOps),
		"ops.window":       float64(tr.Attempted),
		"ops.failed":       float64(tr.Failed),
		"cell.aborts":      float64(tr.CellErrs),
		"session.retries":  float64(tr.Retries),
		"fabric.hops":      float64(tr.Hops),
		"wal.dir_bytes":    float64(tr.DirBytes),
		"audit.anomalies":  float64(len(tr.Audit.Anomalies)),
		"check.drift_keys": float64(len(tr.Drift)),
	}
	for k, v := range tr.Counters {
		out[k] = v
	}
	return out
}

func writeTraceFile(outDir string, spec workloadSpec, seed int64, tr *roundResult) (string, error) {
	sort.SliceStable(tr.Spans, func(i, j int) bool { return tr.Spans[i].Start < tr.Spans[j].Start })
	path := filepath.Join(outDir, spec.Name+".trace.json")
	return path, writeTrace(path, spec.Name, seed, traceCounters(tr), tr.Spans)
}

// cellCounters snapshots the runtime counters a cell exposes from
// outside: the deterministic core's registry and the dataflow job's.
// Cells without an exported runtime accessor contribute nothing.
func cellCounters(cell tca.Cell) map[string]float64 {
	out := map[string]float64{}
	read := func(reg *metrics.Registry, names ...string) {
		for _, n := range names {
			out[n] = float64(reg.Counter(n).Value())
		}
	}
	if rt := tca.CoreRuntime(cell); rt != nil {
		read(rt.Metrics(), "core.commits", "core.aborts", "core.dedup_hits", "core.shed", "core.readonly",
			"core.group_appends", "core.grouped_txns", "core.wal_group_appends", "core.wal_records")
	}
	if sf := tca.StatefunRuntime(cell); sf != nil {
		read(sf.Job().Metrics(), "dataflow.sink_records", "dataflow.checkpoints")
	}
	return out
}
