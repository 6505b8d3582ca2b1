package region

import (
	"testing"
	"time"

	"tca/internal/fabric"
)

func cfg(wan time.Duration, jitter int) fabric.Config {
	c := fabric.DefaultConfig()
	c.CrossRegionLatency = wan
	c.LatencyJitterPct = jitter
	return c
}

func TestLatencyTiersAndOverrides(t *testing.T) {
	top := New(cfg(80*time.Millisecond, 0), "us", "eu", "ap")
	if got := top.Latency("us", "us"); got != 0 {
		t.Fatalf("intra-region latency = %v, want 0", got)
	}
	if got := top.Latency("us", "eu"); got != 80*time.Millisecond {
		t.Fatalf("default WAN latency = %v, want 80ms", got)
	}
	top.SetLatency("us", "ap", 120*time.Millisecond)
	if got := top.Latency("ap", "us"); got != 120*time.Millisecond {
		t.Fatalf("override not symmetric: %v", got)
	}
	if got := top.RTT("us", "eu"); got != 160*time.Millisecond {
		t.Fatalf("RTT = %v, want 160ms", got)
	}
}

func TestJitterBoundedAndSeeded(t *testing.T) {
	const wan = 20 * time.Millisecond
	a := New(cfg(wan, 20), "us", "eu")
	b := New(cfg(wan, 20), "us", "eu")
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
	if got := New(cfg(80*time.Millisecond, 0), "solo").QuorumRTT("solo"); got != 0 {
		t.Fatalf("single-region quorum RTT = %v, want 0", got)
	}
	// Three regions, asymmetric: quorum needs 1 peer beyond the origin,
	// so the nearest peer's RTT is the cost.
	top := New(cfg(80*time.Millisecond, 0), "us", "eu", "ap")
	top.SetLatency("us", "eu", 20*time.Millisecond)
	if got := top.QuorumRTT("us"); got != 40*time.Millisecond {
		t.Fatalf("quorum RTT = %v, want 40ms (nearest peer)", got)
	}
	// Five regions: majority needs 2 peers, so the 2nd-nearest RTT.
	top5 := New(cfg(80*time.Millisecond, 0), "a", "b", "c", "d", "e")
	top5.SetLatency("a", "b", 10*time.Millisecond)
	top5.SetLatency("a", "c", 30*time.Millisecond)
	if got := top5.QuorumRTT("a"); got != 60*time.Millisecond {
		t.Fatalf("5-region quorum RTT = %v, want 60ms (2nd peer)", got)
	}
}

func TestChargeAccumulatesOnTrace(t *testing.T) {
	top := New(cfg(80*time.Millisecond, 0), "us", "eu")
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

// SetLatency overrides the WAN base latency for one pair (both
// directions — the modeled WAN is symmetric).
func (t *Topology) SetLatency(a, b string, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.override[pair(a, b)] = d
}
