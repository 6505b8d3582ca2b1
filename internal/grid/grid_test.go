package grid

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// almost compares floats to a tolerance wide enough for arithmetic noise
// and tight enough that a wrong denominator (n vs n−1) fails.
func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestNewStats pins the spread computation on hand-computed fixtures:
// sample (n−1) standard deviation, and the single-observation and
// zero-variance edges the gate math must not divide by zero on.
func TestNewStats(t *testing.T) {
	for _, tc := range []struct {
		name                string
		xs                  []float64
		mean, std, min, max float64
	}{
		// var = ((10−12)² + 0 + (14−12)²)/2 = 4 → std 2.
		{"hand-computed", []float64{10, 12, 14}, 12, 2, 10, 14},
		{"single-repeat", []float64{5}, 5, 0, 5, 5},
		{"zero-variance", []float64{7, 7, 7}, 7, 0, 7, 7},
		// var = (4+4)/1 = 8 → std 2√2.
		{"two-repeats", []float64{1, 5}, 3, 2 * math.Sqrt2, 1, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStats(tc.xs)
			if !almost(s.Mean, tc.mean) || !almost(s.Std, tc.std) ||
				!almost(s.Min, tc.min) || !almost(s.Max, tc.max) || s.N != len(tc.xs) {
				t.Fatalf("NewStats(%v) = %+v, want mean %g std %g min %g max %g",
					tc.xs, s, tc.mean, tc.std, tc.min, tc.max)
			}
		})
	}
	if s := NewStats(nil); s != (Stats{}) {
		t.Fatalf("NewStats(nil) = %+v, want zero", s)
	}
}

// TestPooledQuantile pins the pooled tail: sets concatenate before
// sorting (index int(q·n) over the pool, matching the reservoir
// convention), q ≥ 1 is the pooled maximum, and no samples yield zero.
func TestPooledQuantile(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	sets := [][]time.Duration{
		{ms(5), ms(1), ms(9)},
		{ms(3), ms(7)},
	}
	// Pool sorted: 1,3,5,7,9. int(0.5·5)=2 → 5ms; int(0.99·5)=4 → 9ms.
	if got := PooledQuantile(sets, 0.5); got != ms(5) {
		t.Fatalf("median = %v, want 5ms", got)
	}
	if got := PooledQuantile(sets, 0.99); got != ms(9) {
		t.Fatalf("p99 = %v, want 9ms", got)
	}
	if got := PooledQuantile(sets, 1); got != ms(9) {
		t.Fatalf("q=1 = %v, want the maximum 9ms", got)
	}
	if got := PooledQuantile(nil, 0.99); got != 0 {
		t.Fatalf("empty pool = %v, want 0", got)
	}
}

// TestSpecRows pins the cartesian expansion (first axis slowest), the
// row labels, and the knobless degenerate case.
func TestSpecRows(t *testing.T) {
	spec := Spec{
		Experiment: "ex",
		Axes: []Axis{
			{Name: "a", Values: []string{"1", "2"}},
			{Name: "b", Values: []string{"x", "y"}},
		},
	}
	var names []string
	for _, r := range spec.Rows() {
		names = append(names, r.Name())
	}
	want := []string{"a=1/b=x", "a=1/b=y", "a=2/b=x", "a=2/b=y"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("rows = %v, want %v", names, want)
	}
	r := spec.Rows()[2]
	if r.Knob("a") != "2" || r.Knob("b") != "x" || r.Knob("zzz") != "" {
		t.Fatalf("knobs of %s wrong: a=%q b=%q", r.Name(), r.Knob("a"), r.Knob("b"))
	}
	if rows := (Spec{Experiment: "ex"}).Rows(); len(rows) != 1 || rows[0].Name() != "default" {
		t.Fatalf("knobless spec rows = %v", rows)
	}
}

// TestSpecList pins the explicit row list: it replaces the axes' product,
// rows are stamped with the experiment id, a label overrides the
// knob-rendered key, typed knob accessors parse, and With overrides a
// declared knob without touching the original row or inventing new ones.
func TestSpecList(t *testing.T) {
	spec := Spec{
		Experiment: "ex",
		Axes:       []Axis{{Name: "ignored", Values: []string{"1", "2"}}},
		List: []Row{
			NewRow("hand label", "n", "4", "f", "0.5"),
			NewRow("", "mode", "model", "n", "8"),
		},
	}
	rows := spec.Rows()
	if len(rows) != 2 || rows[0].Experiment != "ex" {
		t.Fatalf("list rows = %+v", rows)
	}
	if rows[0].Name() != "hand label" || rows[1].Name() != "mode=model/n=8" {
		t.Fatalf("row keys = %q, %q", rows[0].Name(), rows[1].Name())
	}
	if rows[0].Int("n") != 4 || rows[0].Float("f") != 0.5 {
		t.Fatalf("typed knobs = %d, %g", rows[0].Int("n"), rows[0].Float("f"))
	}
	over := rows[1].With("mode", "wal").With("absent", "x")
	if over.Knob("mode") != "wal" || over.Knob("absent") != "" || rows[1].Knob("mode") != "model" {
		t.Fatalf("With: override %q, absent %q, original %q", over.Knob("mode"), over.Knob("absent"), rows[1].Knob("mode"))
	}
}

// fakeRun is a deterministic RunFunc: throughput is a pure function of
// (row name, seed), so any two grids over the same rows and seeds must
// agree exactly — the harness for the seed-policy and order-invariance
// tests. It also logs the (row, seed) call sequence.
type fakeRun struct {
	calls []string
}

func (f *fakeRun) run(row Row, seed int64, ops int) (Sample, error) {
	f.calls = append(f.calls, fmt.Sprintf("%s@%d", row.Name(), seed))
	// Distinct per (row, seed), collision-free at test sizes.
	v := float64(seed * 1000)
	for _, c := range row.Name() {
		v += float64(c)
	}
	return Sample{
		Metrics: map[string]float64{"tx_s": v},
		Accept:  []time.Duration{time.Duration(seed) * time.Millisecond},
	}, nil
}

// TestRunSeedSequence pins the seed policy: repeat r of every row runs
// under BaseSeed + r, rows sequentially in expansion order.
func TestRunSeedSequence(t *testing.T) {
	f := &fakeRun{}
	spec := Spec{
		Experiment: "ex",
		Axes:       []Axis{{Name: "k", Values: []string{"a", "b"}}},
		Repeats:    3, BaseSeed: 10,
	}
	res := Run(spec, f.run, nil)
	want := []string{"k=a@10", "k=a@11", "k=a@12", "k=b@10", "k=b@11", "k=b@12"}
	if fmt.Sprint(f.calls) != fmt.Sprint(want) {
		t.Fatalf("call sequence %v, want %v", f.calls, want)
	}
	if len(res) != 2 || res[0].Repeats != 3 || res[0].Metrics["tx_s"].N != 3 {
		t.Fatalf("results malformed: %+v", res)
	}
	// Pooled accept tail over seeds 10,11,12 → p99 index 2 → 12ms.
	if res[0].AcceptP99 != 12*time.Millisecond {
		t.Fatalf("pooled AcceptP99 = %v, want 12ms", res[0].AcceptP99)
	}
}

// TestRunOrderInvariance pins the isolation contract's observable half:
// because a repeat's randomness is its seed and nothing leaks between
// rows, reversing the grid's row order must reproduce identical per-row
// statistics.
func TestRunOrderInvariance(t *testing.T) {
	fwd := Spec{
		Experiment: "ex",
		Axes:       []Axis{{Name: "k", Values: []string{"a", "b", "c"}}},
		Repeats:    3, BaseSeed: 5,
	}
	rev := fwd
	rev.Axes = []Axis{{Name: "k", Values: []string{"c", "b", "a"}}}
	resFwd := Run(fwd, (&fakeRun{}).run, nil)
	resRev := Run(rev, (&fakeRun{}).run, nil)
	byName := func(rs []RowResult) map[string]RowResult {
		m := map[string]RowResult{}
		for _, r := range rs {
			m[r.Row.Name()] = r
		}
		return m
	}
	f, r := byName(resFwd), byName(resRev)
	for name, fr := range f {
		rr, ok := r[name]
		if !ok {
			t.Fatalf("row %s missing from the reversed grid", name)
		}
		if fr.Metrics["tx_s"] != rr.Metrics["tx_s"] || fr.AcceptP99 != rr.AcceptP99 {
			t.Fatalf("row %s differs across orders: %+v vs %+v", name, fr, rr)
		}
	}
}

// TestRunErrorIsPerRow pins the failure path: a repeat error lands on
// its own row with the row and repeat named and its later repeats
// skipped, and the rest of the grid still runs.
func TestRunErrorIsPerRow(t *testing.T) {
	var calls int
	boom := func(row Row, seed int64, ops int) (Sample, error) {
		calls++
		if row.Knob("k") == "bad" && seed == 2 {
			return Sample{}, fmt.Errorf("boom")
		}
		return Sample{Metrics: map[string]float64{"tx_s": 1}}, nil
	}
	res := Run(Spec{
		Experiment: "ex",
		Axes:       []Axis{{Name: "k", Values: []string{"bad", "good"}}},
		Repeats:    3, BaseSeed: 1,
	}, boom, nil)
	if len(res) != 2 || res[0].Err == nil || res[1].Err != nil {
		t.Fatalf("per-row errors wrong: %+v", res)
	}
	if want := "grid ex k=bad repeat 1: boom"; res[0].Err.Error() != want {
		t.Fatalf("error = %q, want %q", res[0].Err, want)
	}
	if res[0].Metrics != nil || res[1].Metrics["tx_s"].N != 3 || calls != 5 {
		t.Fatalf("failed row kept stats or the grid stopped: %+v after %d calls", res, calls)
	}
}

// TestRunClamps pins the defensive defaults: Repeats < 1 runs once,
// BaseSeed 0 anchors at 1.
func TestRunClamps(t *testing.T) {
	f := &fakeRun{}
	Run(Spec{Experiment: "ex"}, f.run, nil)
	if fmt.Sprint(f.calls) != "[default@1]" {
		t.Fatalf("calls = %v, want one run at seed 1", f.calls)
	}
}

// mkSummary builds a one-row summary for the comparison tests.
func mkSummary(metrics map[string]float64) *Summary {
	return &Summary{
		OpsPerCell: 100,
		Rows:       []BenchRow{{Experiment: "ex", Row: "r", Metrics: metrics}},
	}
}

// TestCompareStdGate pins the std-aware verdicts: a delta beyond the
// percentage threshold gates only when it also clears 2× the pooled
// std; within that spread it is reported as noise. Old single-run
// summaries carry no std and gate on the percentage alone.
func TestCompareStdGate(t *testing.T) {
	t.Run("noisy-delta-suppressed", func(t *testing.T) {
		// −25% but pooled std = sqrt((20²+20²)/2) = 20, 2×20 = 40 ≥ |Δ|=25.
		old := mkSummary(map[string]float64{"tx_s": 100, "tx_s_std": 20})
		new := mkSummary(map[string]float64{"tx_s": 75, "tx_s_std": 20})
		res := Compare(old, new, 20)
		if res.Failed() || res.Suppressed != 1 || res.Regressions != 0 {
			t.Fatalf("noisy delta not suppressed: %+v", res)
		}
		if res.Deltas[0].Kind != "noise" {
			t.Fatalf("delta kind = %q, want noise", res.Deltas[0].Kind)
		}
	})
	t.Run("tight-delta-gates", func(t *testing.T) {
		// −25% with pooled std 1: far outside noise → regression.
		old := mkSummary(map[string]float64{"tx_s": 100, "tx_s_std": 1})
		new := mkSummary(map[string]float64{"tx_s": 75, "tx_s_std": 1})
		res := Compare(old, new, 20)
		if !res.Failed() || res.Regressions != 1 {
			t.Fatalf("tight regression not gated: %+v", res)
		}
	})
	t.Run("no-std-gates-on-pct", func(t *testing.T) {
		// Legacy single-run files: no _std keys → pooled std 0 → pct-only.
		old := mkSummary(map[string]float64{"tx_s": 100})
		new := mkSummary(map[string]float64{"tx_s": 75})
		res := Compare(old, new, 20)
		if !res.Failed() || res.Regressions != 1 {
			t.Fatalf("pct-only regression not gated: %+v", res)
		}
	})
	t.Run("improvement-reported-not-failed", func(t *testing.T) {
		old := mkSummary(map[string]float64{"tx_s": 100, "tx_s_std": 1})
		new := mkSummary(map[string]float64{"tx_s": 150, "tx_s_std": 1})
		res := Compare(old, new, 20)
		if res.Failed() || res.Improvements != 1 {
			t.Fatalf("improvement verdict wrong: %+v", res)
		}
	})
	t.Run("within-threshold-silent", func(t *testing.T) {
		old := mkSummary(map[string]float64{"tx_s": 100})
		new := mkSummary(map[string]float64{"tx_s": 90})
		res := Compare(old, new, 20)
		if res.Failed() || len(res.Deltas) != 0 || res.Compared != 1 {
			t.Fatalf("−10%% under a 20%% threshold flagged: %+v", res)
		}
	})
}

// TestCompareMissingRowFails pins the hard-failure bugfix: a row present
// in old but absent from new fails the comparison even with every
// surviving metric unchanged — a deleted benchmark can never regress.
func TestCompareMissingRowFails(t *testing.T) {
	old := &Summary{Rows: []BenchRow{
		{Experiment: "ex", Row: "kept", Metrics: map[string]float64{"tx_s": 100}},
		{Experiment: "ex", Row: "dropped", Metrics: map[string]float64{"tx_s": 100}},
	}}
	new := &Summary{Rows: []BenchRow{
		{Experiment: "ex", Row: "kept", Metrics: map[string]float64{"tx_s": 100}},
		{Experiment: "ex", Row: "added", Metrics: map[string]float64{"tx_s": 100}},
	}}
	res := Compare(old, new, 20)
	if !res.Failed() {
		t.Fatal("missing row did not fail the comparison")
	}
	if fmt.Sprint(res.Missing) != "[ex/dropped]" || fmt.Sprint(res.Added) != "[ex/added]" {
		t.Fatalf("missing/added = %v / %v", res.Missing, res.Added)
	}
	if res.Regressions != 0 {
		t.Fatalf("missing row counted as a metric regression: %+v", res)
	}
}

// TestCompareLatencyInformational pins that a latency swing beyond the
// threshold is reported but never gates.
func TestCompareLatencyInformational(t *testing.T) {
	old := mkSummary(map[string]float64{"tx_s": 100, "accept_p99_us": 100})
	new := mkSummary(map[string]float64{"tx_s": 100, "accept_p99_us": 300})
	res := Compare(old, new, 20)
	if res.Failed() {
		t.Fatalf("latency swing gated: %+v", res)
	}
	if len(res.Deltas) != 1 || res.Deltas[0].Kind != "latency" || res.Deltas[0].Metric != "accept_p99_us" {
		t.Fatalf("latency delta not reported: %+v", res.Deltas)
	}
}
