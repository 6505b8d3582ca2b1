package experiments

import (
	"testing"

	"tca/internal/grid"
)

// TestExperimentClaims runs the rows of the experiments that isolate one
// mechanism at 200 ops on seed 1 and checks the claims that hold at any
// machine speed: counts and modeled (fabric-trace) time, never wall-clock.
func TestExperimentClaims(t *testing.T) {
	got := map[string]float64{} // "experiment/row key" → value
	for _, e := range All() {
		if e.Experiment != "e1" && e.Experiment != "e2" && e.Experiment != "e5" && e.Experiment != "e7" && e.Experiment != "e9" {
			continue
		}
		spec := e.Spec
		spec.Ops = 200
		for _, res := range grid.Run(spec, e.Run, nil) {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			row := res.BenchRow(spec)
			for key, v := range row.Metrics {
				got[row.Key()+" "+key] = v
			}
		}
	}
	metric := func(name string) float64 {
		v, ok := got[name]
		if !ok {
			t.Fatalf("no row reports %s", name)
		}
		return v
	}
	// Consumer-side dedup is what makes at-least-once exactly-once,
	// idempotency keys absorb every duplicated request, embedded state pays
	// no network hop, and the serializable core never shows an observer a
	// partial transfer.
	for _, name := range []string{
		"e2/at-least-once-dedup anomalies", "e9/dup=10%/keys=true duplicate_effects",
		"e9/dup=20%/keys=true duplicate_effects", "e5/embedded-db sim_us_op", "e7/core-serializable anomalies",
	} {
		if v := metric(name); v != 0 {
			t.Errorf("%s = %v, want 0", name, v)
		}
	}
	// Without them, messages and effects are lost or doubled.
	for _, name := range []string{"e2/at-least-once-raw anomalies", "e2/at-most-once anomalies", "e9/dup=20%/keys=false duplicate_effects"} {
		if v := metric(name); v <= 0 {
			t.Errorf("%s = %v, want > 0", name, v)
		}
	}
	// An external read's hops, and an actor transaction's 2PL + 2PC
	// rounds, cost more than an embedded read and a plain call.
	for _, pair := range [][2]string{
		{"e5/embedded-db sim_us_op", "e5/external-db-rpc sim_us_op"},
		{"e1/plain-call/accounts=64 sim_us_op", "e1/transaction/accounts=64 sim_us_op"},
		{"e1/plain-call/accounts=4 sim_us_op", "e1/transaction/accounts=4 sim_us_op"},
	} {
		if lo, hi := metric(pair[0]), metric(pair[1]); lo >= hi {
			t.Errorf("%s = %v, want below %s = %v", pair[0], lo, pair[1], hi)
		}
	}
}
