package grid

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// update regenerates the golden files instead of diffing against them:
// go test ./internal/grid -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files")

// TestSummaryGolden pins the extended BENCH_latest schema against a
// checked-in golden file: the throughput mean under the plain key (the
// back-compat guarantee old consumers rely on) plus _std/_min/_max, the
// repeats count, pooled-p99 latency keys in microseconds, and extras
// with their _std companions. Regenerate with -update after a deliberate
// schema change.
func TestSummaryGolden(t *testing.T) {
	spec := Spec{
		Experiment:    "e23",
		Axes:          []Axis{{Name: "shed", Values: []string{"on"}}},
		Repeats:       3,
		BaseSeed:      1,
		Ops:           1000,
		ThroughputKey: "goodput_s",
		AcceptKey:     "accept_p99_us",
		ApplyKey:      "apply_p99_us",
	}
	res := RowResult{
		Row:       spec.Rows()[0],
		Repeats:   3,
		AcceptP99: 1500 * time.Microsecond,
		ApplyP99:  2500 * time.Microsecond,
		Metrics: map[string]Stats{
			"goodput_s": {Mean: 2000, Std: 25, Min: 1975, Max: 2025, N: 3},
			"shed_pct":  {Mean: 1.5, Std: 0.5, Min: 1, Max: 2, N: 3},
		},
	}
	sum := Summary{
		OpsPerCell: 1000,
		Repeats:    3,
		BaseSeed:   1,
		Rows:       []BenchRow{res.BenchRow(spec)},
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sum); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "summary_golden.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("summary schema drifted from %s:\ngot:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
	}
	// The golden file must itself survive a ReadSummary round trip.
	got, err := ReadSummary(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.Repeats != 3 || got.BaseSeed != 1 || len(got.Rows) != 1 {
		t.Fatalf("round-tripped summary malformed: %+v", got)
	}
	if v := got.Rows[0].Metrics["goodput_s"]; v != 2000 {
		t.Fatalf("round-tripped mean = %v, want 2000", v)
	}
	// A single run renders the plain keys only: no repeats, no spreads.
	res.Repeats = 1
	single := res.BenchRow(spec).Metrics
	if len(single) != 4 || single["goodput_s"] != 2000 || single["accept_p99_us"] != 1500 {
		t.Fatalf("single-run row = %v, want the 4 plain keys", single)
	}
}

// TestReadSummaryLegacy pins that pre-grid single-run files (no repeats,
// no base_seed, no _std keys) still decode — both sides of a comparison
// may be either shape.
func TestReadSummaryLegacy(t *testing.T) {
	legacy := filepath.Join(t.TempDir(), "legacy.json")
	raw := []byte(`{"ops_per_cell": 500, "rows": [
		{"experiment": "e10", "row": "closed 4 clients", "metrics": {"ops_s": 9500}}
	]}`)
	if err := os.WriteFile(legacy, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := ReadSummary(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if s.Repeats != 0 || s.BaseSeed != 0 || s.Rows[0].Metrics["ops_s"] != 9500 {
		t.Fatalf("legacy summary decoded wrong: %+v", s)
	}
}
