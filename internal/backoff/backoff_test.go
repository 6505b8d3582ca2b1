package backoff

import (
	"math/rand"
	"testing"
	"time"
)

func TestGrowDoublesUpToCap(t *testing.T) {
	const base = 20 * time.Microsecond
	w := base
	for i := 0; i < 10; i++ {
		w = Grow(w, base)
	}
	if w != MaxFactor*base {
		t.Fatalf("window after 10 doublings = %v, want the cap %v", w, MaxFactor*base)
	}
}

func TestDrawSeededAndInWindow(t *testing.T) {
	a, b := New(rand.New(rand.NewSource(7))), New(rand.New(rand.NewSource(7)))
	for i := 0; i < 1000; i++ {
		window := time.Duration(i) * time.Microsecond
		x, y := a.Draw(window), b.Draw(window)
		if x != y {
			t.Fatalf("draw %d: %v vs %v from the same seed", i, x, y)
		}
		if x < 0 || x > window {
			t.Fatalf("draw %d = %v, outside [0, %v]", i, x, window)
		}
	}
}
