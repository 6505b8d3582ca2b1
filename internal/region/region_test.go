package region

import (
	"slices"
	"testing"
	"time"

	"tca/internal/fabric"
)

func newTopology(wan time.Duration, jitter int, names ...string) *Topology {
	c := fabric.DefaultConfig()
	c.LatencyJitterPct = jitter
	return New(c, wan, names...)
}

func TestLatencyTiersAndOverrides(t *testing.T) {
	top := newTopology(80*time.Millisecond, 0, "us", "eu", "ap")
	if got := top.Latency("us", "us"); got != 0 {
		t.Fatalf("intra-region latency = %v, want 0", got)
	}
	if got := top.Latency("us", "eu"); got != 80*time.Millisecond {
		t.Fatalf("default WAN latency = %v, want 80ms", got)
	}
	if got := top.Latency("ap", "us"); got != 80*time.Millisecond {
		t.Fatalf("reverse WAN latency = %v, want 80ms", got)
	}
	if got := top.RTT("us", "eu"); got != 160*time.Millisecond {
		t.Fatalf("RTT = %v, want 160ms", got)
	}
}

func TestJitterBoundedAndSeeded(t *testing.T) {
	const wan = 20 * time.Millisecond
	a := newTopology(wan, 20, "us", "eu")
	b := newTopology(wan, 20, "us", "eu")
	for i := 0; i < 100; i++ {
		la, lb := a.Latency("us", "eu"), b.Latency("us", "eu")
		if la != lb {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", i, la, lb)
		}
		if la < wan || la >= wan+wan*20/100 {
			t.Fatalf("jittered latency %v outside [20ms, 24ms)", la)
		}
	}
}

func TestQuorumRTT(t *testing.T) {
	if got := newTopology(80*time.Millisecond, 0, "solo").QuorumRTT("solo"); got != 0 {
		t.Fatalf("single-region quorum RTT = %v, want 0", got)
	}
	// Majority needs n/2 peers beyond the origin, so the quorum RTT is the
	// (n/2)-th smallest peer RTT. Each RTT is one jittered draw, taken in
	// declaration order, so a second topology with the same seed draws the
	// same four (or two) RTTs.
	for _, names := range [][]string{{"a", "b", "c"}, {"a", "b", "c", "d", "e"}} {
		const wan = 80 * time.Millisecond
		got := newTopology(wan, 20, names...).QuorumRTT("a")
		twin := newTopology(wan, 20, names...)
		var rtts []time.Duration
		for _, r := range names[1:] {
			rtts = append(rtts, twin.RTT("a", r))
		}
		slices.Sort(rtts)
		if want := rtts[len(names)/2-1]; got != want {
			t.Fatalf("%d-region quorum RTT = %v, want %v (peer RTTs %v)", len(names), got, want, rtts)
		}
		if rtts[0] == rtts[len(rtts)-1] {
			t.Fatalf("%d-region peer RTTs all equal %v: jitter drew nothing to order", len(names), rtts[0])
		}
	}
}

func TestChargeAccumulatesOnTrace(t *testing.T) {
	top := newTopology(80*time.Millisecond, 0, "us", "eu")
	tr := fabric.NewTrace()
	if d := top.Charge("us", "eu", tr); d != 80*time.Millisecond {
		t.Fatalf("charged %v, want 80ms", d)
	}
	if tr.Total() != 80*time.Millisecond {
		t.Fatalf("trace total = %v, want 80ms", tr.Total())
	}
	// Intra-region charge is free and adds no hop.
	top.Charge("us", "us", tr)
	if tr.Hops() != 1 {
		t.Fatalf("hops = %d, want 1", tr.Hops())
	}
}
