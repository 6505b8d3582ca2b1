package reach

import (
	"path/filepath"
	"slices"
	"testing"
)

// TestCheckerClassifiesFixture pins how the scanner classifies one of each
// shape in testdata/fixture, so that an edit to the checker cannot quietly
// let everything pass (or fail).
func TestCheckerClassifiesFixture(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("testdata", "fixture"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := scan(module{"fixture", dir})
	if err != nil {
		t.Fatal(err)
	}
	names := func(es []entry) []string {
		var out []string
		for _, e := range es {
			out = append(out, e.name)
		}
		return out
	}
	// Reached, and so absent: main, lib.Reached and lib.helper (direct
	// calls), lib.fromInit (an init function), lib.fromInitializer (a
	// package-level initializer),
	// lib.Total, lib.Square.Area (only through the Shape interface call),
	// lib.DefaultConfig and lib.New.
	wantUnreached := []string{
		"fixture/lib.OnlyTests",        // only a test calls it
		"fixture/lib.Square.Perimeter", // reached type, no call of the name
		"fixture/lib.Unreached",        // nothing calls it
	}
	if got := names(res.unreached); !slices.Equal(got, wantUnreached) {
		t.Errorf("unreached = %q, want %q", got, wantUnreached)
	}
	// Set, and so absent: Config.ProgramSet (main assigns it).
	wantUnset := []string{
		"fixture/lib.Config.DefaultOnly", // only DefaultConfig's constant
		"fixture/lib.Config.Defaulted",   // only New's zero-means-default
		"fixture/lib.Config.TestOnly",    // only a test sets it
	}
	if got := names(res.unset); !slices.Equal(got, wantUnset) {
		t.Errorf("unset = %q, want %q", got, wantUnset)
	}
	if e := res.unreached[0]; e.lines != 1 || e.pkg != "fixture/lib" {
		t.Errorf("%s: %d lines in %s, want 1 line in fixture/lib", e.name, e.lines, e.pkg)
	}
}
