// Package region models a multi-region deployment: N named regions
// connected by a WAN whose per-pair latency dwarfs the intra-region
// fabric tiers. Like the fabric itself, the topology never sleeps —
// WAN delays are charged to a fabric.Trace in simulated time, so geo
// experiments report modeled latencies that are independent of the
// host (the E24 gate row relies on this).
//
// A Topology is the tier above a fabric cluster's node tiers, which stay
// inside one region: it declares the regions, one WAN latency for every
// pair, and a seeded jitter source shared with the fabric convention
// (uniform in [0, LatencyJitterPct] percent of the base).
package region

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"tca/internal/fabric"
)

// Topology declares N regions and the WAN between them.
type Topology struct {
	names []string
	wan   time.Duration // every pair's base latency
	pct   int           // jitter percent, fabric convention

	mu  sync.Mutex
	rng *rand.Rand
}

// New builds a topology over the named regions with wan as the
// per-pair WAN latency. The jitter percent comes from cfg's
// LatencyJitterPct, and the jitter stream is seeded from cfg.Seed so a
// geo run is as reproducible as a single-region one. Panics on fewer
// than one region or a duplicate name, mirroring App.Register's
// fail-fast contract.
func New(cfg fabric.Config, wan time.Duration, names ...string) *Topology {
	if len(names) == 0 {
		panic("region: topology needs at least one region")
	}
	t := &Topology{
		names: append([]string(nil), names...),
		wan:   wan,
		pct:   cfg.LatencyJitterPct,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if seen[n] {
			panic(fmt.Sprintf("region: duplicate region %q", n))
		}
		seen[n] = true
	}
	return t
}

// Names returns the region names in declaration order.
func (t *Topology) Names() []string { return append([]string(nil), t.names...) }

// Size returns the number of regions.
func (t *Topology) Size() int { return len(t.names) }

// Base returns the un-jittered WAN latency between two regions: zero
// within a region, the topology's WAN latency otherwise.
func (t *Topology) Base(a, b string) time.Duration {
	if a == b {
		return 0
	}
	return t.wan
}

// Latency returns one sampled one-way WAN latency between two regions:
// the base plus seeded uniform jitter in [0, pct] percent, matching
// fabric.Cluster.Send's jitter rule.
func (t *Topology) Latency(a, b string) time.Duration {
	base := t.Base(a, b)
	if base <= 0 {
		return base
	}
	jit := time.Duration(0)
	if t.pct > 0 {
		t.mu.Lock()
		jit = time.Duration(t.rng.Int63n(int64(base) * int64(t.pct) / 100))
		t.mu.Unlock()
	}
	return base + jit
}

// RTT returns one sampled round trip between two regions (two
// independently jittered one-way legs).
func (t *Topology) RTT(a, b string) time.Duration {
	return t.Latency(a, b) + t.Latency(b, a)
}

// QuorumRTT returns one sampled round trip from origin to the nearest
// majority of the topology: the k-th smallest peer RTT where k peers
// plus the origin form a strict majority of the regions. With one
// region it is zero (no coordination to pay); without jitter it equals
// the RTT to any peer. This is the modeled cost a cross-region
// sequenced commit pays before acknowledging.
func (t *Topology) QuorumRTT(origin string) time.Duration {
	n := len(t.names)
	if n <= 1 {
		return 0
	}
	need := n/2 + 1 - 1 // peers needed beyond the origin itself
	rtts := make([]time.Duration, 0, n-1)
	for _, r := range t.names {
		if r == origin {
			continue
		}
		rtts = append(rtts, t.RTT(origin, r))
	}
	sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
	return rtts[need-1]
}

// Charge samples the one-way WAN latency from a to b and charges it to
// tr (nil-safe via Trace.Charge). Returns the charged latency so
// callers can also account it.
func (t *Topology) Charge(a, b string, tr *fabric.Trace) time.Duration {
	d := t.Latency(a, b)
	if d > 0 {
		tr.Charge(d)
	}
	return d
}
