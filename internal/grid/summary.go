package grid

import (
	"encoding/json"
	"fmt"
	"os"
)

// BenchRow is one machine-readable result row — the schema of
// BENCH_latest.json and ci/bench_baseline.json. Metrics are keyed by
// name; a repeated row carries each mean under the plain key (so
// single-run consumers keep working) plus key_std, a "repeats" count,
// and pooled-p99 latency keys.
type BenchRow struct {
	Experiment string             `json:"experiment"`
	Row        string             `json:"row"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Key is the row's identity in a summary: experiment/row.
func (r BenchRow) Key() string { return r.Experiment + "/" + r.Row }

// Summary is the -json document. Repeats and BaseSeed are present only
// on repeated (-grid) summaries; single-run summaries leave them zero
// and older files without the fields decode to zero — both sides of a
// comparison may therefore be either shape.
type Summary struct {
	OpsPerCell int        `json:"ops_per_cell"`
	Repeats    int        `json:"repeats,omitempty"`
	BaseSeed   int64      `json:"base_seed,omitempty"`
	Rows       []BenchRow `json:"rows"`
}

// ReadSummary decodes one summary file.
func ReadSummary(path string) (*Summary, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Summary
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &s, nil
}

// BenchRow renders one aggregated row into the summary schema: each
// metric's mean under its plain key, and the pooled p99 tails under the
// spec's latency keys (zero when the run reported no samples). A repeated row (Repeats > 1) also carries its
// "repeats" count and every metric's key_std, plus key_min/key_max for
// the spec's throughput metric; a single run emits the plain keys only.
func (res RowResult) BenchRow(spec Spec) BenchRow {
	m := map[string]float64{}
	if res.Repeats > 1 {
		m["repeats"] = float64(res.Repeats)
	}
	for k, st := range res.Metrics {
		m[k] = st.Mean
		if res.Repeats > 1 {
			m[k+"_std"] = st.Std
			if k == spec.ThroughputKey {
				m[k+"_min"] = st.Min
				m[k+"_max"] = st.Max
			}
		}
	}
	if spec.AcceptKey != "" {
		m[spec.AcceptKey] = float64(res.AcceptP99) / 1e3
	}
	if spec.ApplyKey != "" {
		m[spec.ApplyKey] = float64(res.ApplyP99) / 1e3
	}
	return BenchRow{Experiment: res.Row.Experiment, Row: res.Row.Name(), Metrics: m}
}
