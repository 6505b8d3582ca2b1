package experiments

import (
	"testing"

	"tca/internal/grid"
)

// TestRegistryRowsAreTheTrackedRows expands every entry's rows without
// running them and holds them to the two tracked summaries, which double
// as golden row lists: the table rows are exactly BENCH_latest.json's
// (regenerate with `make bench-json` after a deliberate change) and the
// gate rows exactly ci/bench_baseline.json's (`make bench-baseline`). A
// dropped, renamed or duplicated row fails here instead of waiting for a
// later -compare to notice.
func TestRegistryRowsAreTheTrackedRows(t *testing.T) {
	for _, view := range []struct {
		gate bool
		file string
	}{
		{false, "../../BENCH_latest.json"},
		{true, "../../ci/bench_baseline.json"},
	} {
		sum, err := grid.ReadSummary(view.file)
		if err != nil {
			t.Fatal(err)
		}
		tracked := map[string]bool{}
		for _, r := range sum.Rows {
			tracked[r.Key()] = true
		}
		seen := map[string]bool{}
		for _, e := range All() {
			for _, row := range e.Rows(view.gate) {
				key := e.Experiment + "/" + row.Name()
				if seen[key] {
					t.Errorf("registry declares %s twice", key)
				}
				seen[key] = true
				if !tracked[key] {
					t.Errorf("registry row %s is not in %s", key, view.file)
				}
			}
		}
		for key := range tracked {
			if !seen[key] {
				t.Errorf("%s holds %s, which the registry no longer declares", view.file, key)
			}
		}
	}
}
