package grid

import (
	"math"
	"sort"
)

// ThroughputMetrics are the "bigger is better" rates the comparison
// gates on. Exact names only — the _std/_min/_max companions a grid row
// carries are inputs to the gate, never gated themselves.
var ThroughputMetrics = []string{"tx_s", "ops_s", "query_s", "tx_s_audited", "tx_s_off", "goodput_s"}

// LatencyMetrics are the "smaller is better" columns the comparison
// reports alongside throughput. Informational by default: a latency
// swing beyond the threshold is printed but never fails the gate (tails
// swing with machine load at experiment-sized runs).
var LatencyMetrics = []string{
	"p50_us", "p99_us",
	"accept_p50_us", "accept_p99_us", "accept_p999_us",
	"apply_p50_us", "apply_p99_us", "apply_p999_us",
}

// stdFactor is the noise gate: when both rows carry a _std companion for
// a metric, a delta is flagged only if it also exceeds stdFactor × the
// pooled std. Rows without std info — old single-run summaries — gate on
// the percentage alone.
const stdFactor = 2

// Delta is one reported metric difference.
type Delta struct {
	RowKey, Metric string
	Old, New       float64
	// Pct is the relative change in percent (positive = higher in new).
	Pct float64
	// PooledStd is sqrt((std_old² + std_new²)/2) when both sides carry a
	// _std companion, else 0.
	PooledStd float64
	// Kind is "regression" (gates), "improvement", "latency"
	// (informational), or "noise" — a delta beyond the percentage
	// threshold that the std gate absorbed.
	Kind string
}

// CompareResult is the verdict of one summary comparison.
type CompareResult struct {
	Deltas []Delta
	// Missing are old rows absent from the new summary — a hard failure:
	// a deleted benchmark can never regress, so a gate that shrugs at
	// missing rows gates nothing.
	Missing []string
	// Added are new rows with no old counterpart (reported, not failed).
	Added    []string
	Compared int
	// Regressions counts gating deltas; Suppressed the throughput deltas
	// the std gate absorbed as repeat noise.
	Regressions, Improvements, Suppressed int
}

// Failed reports whether the comparison should gate: any regression, or
// any row present in old but missing from new.
func (r CompareResult) Failed() bool {
	return r.Regressions > 0 || len(r.Missing) > 0
}

// Compare diffs two summaries row by row: std-aware gating on the
// throughput metrics (deltas beyond ±thresholdPct), informational
// reporting on the latency columns, hard failure on rows the new summary
// dropped.
func Compare(oldSum, newSum *Summary, thresholdPct float64) CompareResult {
	oldRows := make(map[string]BenchRow, len(oldSum.Rows))
	for _, r := range oldSum.Rows {
		oldRows[r.Key()] = r
	}
	var res CompareResult
	seen := make(map[string]bool, len(newSum.Rows))
	for _, nr := range newSum.Rows {
		key := nr.Key()
		seen[key] = true
		or, ok := oldRows[key]
		if !ok {
			res.Added = append(res.Added, key)
			continue
		}
		for _, metric := range ThroughputMetrics {
			newV, ok := nr.Metrics[metric]
			if !ok {
				continue
			}
			oldV, ok := or.Metrics[metric]
			if !ok || oldV <= 0 {
				continue
			}
			res.Compared++
			pct := 100 * (newV - oldV) / oldV
			if math.Abs(pct) <= thresholdPct {
				continue
			}
			pooled := pooledStd(or.Metrics[metric+"_std"], nr.Metrics[metric+"_std"])
			d := Delta{RowKey: key, Metric: metric, Old: oldV, New: newV, Pct: pct, PooledStd: pooled}
			switch {
			case math.Abs(newV-oldV) <= stdFactor*pooled:
				// Beyond the percentage threshold but within repeat
				// noise: report, don't gate.
				d.Kind = "noise"
				res.Suppressed++
			case pct < 0:
				d.Kind = "regression"
				res.Regressions++
			default:
				d.Kind = "improvement"
				res.Improvements++
			}
			res.Deltas = append(res.Deltas, d)
		}
		for _, metric := range LatencyMetrics {
			newV, ok := nr.Metrics[metric]
			if !ok {
				continue
			}
			oldV, ok := or.Metrics[metric]
			if !ok || oldV <= 0 {
				continue
			}
			if pct := 100 * (newV - oldV) / oldV; math.Abs(pct) > thresholdPct {
				res.Deltas = append(res.Deltas, Delta{
					RowKey: key, Metric: metric, Old: oldV, New: newV, Pct: pct, Kind: "latency",
				})
			}
		}
	}
	for key := range oldRows {
		if !seen[key] {
			res.Missing = append(res.Missing, key)
		}
	}
	sort.Strings(res.Missing)
	sort.Strings(res.Added)
	return res
}

// pooledStd combines the two sides' repeat spreads; either side without
// std info (an old single-run summary) contributes zero.
func pooledStd(a, b float64) float64 {
	return math.Sqrt((a*a + b*b) / 2)
}
