// Package fabric simulates the distributed computing infrastructure that
// transactional cloud applications run on: a cluster of nodes connected by a
// network with configurable latency, message loss, duplication, and
// partitions, plus crash/restart of nodes. Every runtime in this repository
// (microservices, actors, functions, dataflows) executes on a fabric Cluster
// so that the failure modes surveyed in §4.1 of the paper — partial
// failures, message redelivery, duplicate delivery — are exercised by the
// same code paths in tests and benchmarks.
//
// Simulated time: the fabric does not sleep for simulated network latency.
// Instead, every logical request carries a *Trace that accumulates the
// simulated delay it would have experienced. Benchmarks report both real
// execution cost (ns/op) and the simulated end-to-end latency distribution.
// This keeps the benchmark suite fast while preserving the relative shapes
// (cross-node > same-node, cold start > warm, 2PC round trips > saga hops).
package fabric

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Common fabric errors.
var (
	ErrNodeDown    = errors.New("fabric: node is down")
	ErrPartitioned = errors.New("fabric: network partitioned")
	ErrDropped     = errors.New("fabric: message dropped")
	ErrUnknownNode = errors.New("fabric: unknown node")
)

// NodeID identifies a node in the cluster.
type NodeID string

// Trace accumulates simulated latency along one logical request path.
// It is safe for concurrent use.
type Trace struct {
	mu    sync.Mutex
	total time.Duration
	hops  int
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{} }

// Charge adds simulated latency d to the trace.
func (t *Trace) Charge(d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.total += d
	t.hops++
	t.mu.Unlock()
}

// Total returns the accumulated simulated latency.
func (t *Trace) Total() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Hops returns the number of charged network hops.
func (t *Trace) Hops() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.hops
}

// Config describes the simulated infrastructure.
type Config struct {
	// Seed makes every probabilistic decision deterministic.
	Seed int64
	// SameNodeLatency is the simulated latency of a message that stays on
	// one node (loopback / IPC).
	SameNodeLatency time.Duration
	// CrossNodeLatency is the simulated base latency of a cross-node
	// message.
	CrossNodeLatency time.Duration
	// CrossRegionLatency is the simulated base latency of a message that
	// crosses a region boundary (WAN). It applies only between nodes that
	// have been placed in different regions with SetRegion; zero means the
	// cluster has no geo tier and cross-region sends fall back to
	// CrossNodeLatency. Jitter and seeding are shared with the other tiers.
	CrossRegionLatency time.Duration
	// LatencyJitterPct adds uniform jitter in [0, pct] percent of the base
	// latency.
	LatencyJitterPct int
	// DropProb is the probability in [0,1] that a message is dropped.
	DropProb float64
	// DupProb is the probability in [0,1] that a message is delivered
	// twice (the duplicate-delivery case §3.2 highlights).
	DupProb float64
}

// DefaultConfig models a single-AZ cluster: 50µs loopback, 500µs cross-node,
// no faults.
func DefaultConfig() Config {
	return Config{
		Seed:             1,
		SameNodeLatency:  50 * time.Microsecond,
		CrossNodeLatency: 500 * time.Microsecond,
		LatencyJitterPct: 20,
	}
}

// Cluster is a set of nodes plus the network between them.
type Cluster struct {
	cfg Config

	mu         sync.Mutex
	rng        *rand.Rand
	nodes      map[NodeID]*nodeState
	regions    map[NodeID]string
	partitions map[partitionKey]bool
	epoch      uint64 // incremented on every membership/failure event
}

type nodeState struct {
	up       bool
	restarts int
}

type partitionKey struct{ a, b NodeID }

func pkey(a, b NodeID) partitionKey {
	if a > b {
		a, b = b, a
	}
	return partitionKey{a, b}
}

// NewCluster creates a cluster with the given node IDs, all up.
func NewCluster(cfg Config, nodes ...NodeID) *Cluster {
	c := &Cluster{
		cfg:        cfg,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		nodes:      make(map[NodeID]*nodeState, len(nodes)),
		regions:    make(map[NodeID]string),
		partitions: make(map[partitionKey]bool),
	}
	for _, n := range nodes {
		c.nodes[n] = &nodeState{up: true}
	}
	return c
}

// SingleNode returns a one-node cluster with default config, convenient for
// unit tests and embedded deployments.
func SingleNode() *Cluster {
	return NewCluster(DefaultConfig(), "node-0")
}

// Nodes returns the IDs of all nodes, in unspecified order.
func (c *Cluster) Nodes() []NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]NodeID, 0, len(c.nodes))
	for n := range c.nodes {
		out = append(out, n)
	}
	return out
}

// Crash marks a node as down. Messages to/from it fail until Restart.
func (c *Cluster) Crash(n NodeID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.nodes[n]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, n)
	}
	if s.up {
		s.up = false
		c.epoch++
	}
	return nil
}

// Restart brings a crashed node back up and counts the restart.
func (c *Cluster) Restart(n NodeID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.nodes[n]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, n)
	}
	if !s.up {
		s.up = true
		s.restarts++
		c.epoch++
	}
	return nil
}

// Up reports whether node n is up.
func (c *Cluster) Up(n NodeID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.nodes[n]
	return ok && s.up
}

// Restarts returns how many times n has been restarted.
func (c *Cluster) Restarts(n NodeID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.nodes[n]
	if !ok {
		return 0
	}
	return s.restarts
}

// Epoch returns the membership epoch; it changes whenever a node crashes,
// restarts, or joins, or a partition is created/healed. Runtimes use it to
// invalidate placement caches.
func (c *Cluster) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// SetRegion places node n in the named region. Nodes default to the
// empty region, so clusters that never call SetRegion behave exactly as
// before the geo tier existed.
func (c *Cluster) SetRegion(n NodeID, region string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.regions[n] = region
}

// Partition severs the link between a and b in both directions.
func (c *Cluster) Partition(a, b NodeID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.partitions[pkey(a, b)] {
		c.partitions[pkey(a, b)] = true
		c.epoch++
	}
}

// Heal restores the link between a and b.
func (c *Cluster) Heal(a, b NodeID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.partitions[pkey(a, b)] {
		delete(c.partitions, pkey(a, b))
		c.epoch++
	}
}

// Delivery is the fabric's verdict on one message send.
type Delivery struct {
	// Err is non-nil when the message cannot be delivered (node down,
	// partition, or random drop).
	Err error
	// Latency is the simulated one-way latency to charge to the trace.
	Latency time.Duration
	// Duplicated reports that the network delivered the message twice;
	// receivers that are not idempotent will observe the payload again.
	Duplicated bool
}

// Send decides the fate of a message from src to dst and charges the
// simulated latency to tr (which may be nil).
func (c *Cluster) Send(src, dst NodeID, tr *Trace) Delivery {
	c.mu.Lock()
	srcUp := false
	if s, ok := c.nodes[src]; ok {
		srcUp = s.up
	}
	dstUp := false
	if s, ok := c.nodes[dst]; ok {
		dstUp = s.up
	}
	parted := c.partitions[pkey(src, dst)]
	var base time.Duration
	switch {
	case src == dst:
		base = c.cfg.SameNodeLatency
	case c.cfg.CrossRegionLatency > 0 && c.regions[src] != c.regions[dst]:
		base = c.cfg.CrossRegionLatency
	default:
		base = c.cfg.CrossNodeLatency
	}
	jitter := time.Duration(0)
	if c.cfg.LatencyJitterPct > 0 && base > 0 {
		jitter = time.Duration(c.rng.Int63n(int64(base) * int64(c.cfg.LatencyJitterPct) / 100))
	}
	drop := c.cfg.DropProb > 0 && c.rng.Float64() < c.cfg.DropProb
	dup := c.cfg.DupProb > 0 && c.rng.Float64() < c.cfg.DupProb
	c.mu.Unlock()

	lat := base + jitter
	tr.Charge(lat)
	switch {
	case !srcUp || !dstUp:
		return Delivery{Err: ErrNodeDown, Latency: lat}
	case parted && src != dst:
		return Delivery{Err: ErrPartitioned, Latency: lat}
	case drop:
		return Delivery{Err: ErrDropped, Latency: lat}
	default:
		return Delivery{Latency: lat, Duplicated: dup}
	}
}

// DupVerdict samples the configured duplicate-delivery probability once,
// letting transports outside the fabric (e.g. the message broker) share the
// cluster's chaos configuration and seed.
func (c *Cluster) DupVerdict() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cfg.DupProb > 0 && c.rng.Float64() < c.cfg.DupProb
}

// Rand returns a deterministic float64 in [0,1) from the cluster's seeded
// source; runtimes use it for their own probabilistic choices so that one
// seed drives the whole simulation.
func (c *Cluster) Rand() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Float64()
}

// Intn returns a deterministic int in [0,n).
func (c *Cluster) Intn(n int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Intn(n)
}

// Place deterministically maps a string key to one of the cluster's nodes
// using consistent ordering, ignoring liveness. Runtimes that need
// failure-aware placement should check Up and re-place.
func (c *Cluster) Place(key string) NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.nodes) == 0 {
		return ""
	}
	ids := make([]NodeID, 0, len(c.nodes))
	for n := range c.nodes {
		ids = append(ids, n)
	}
	sortNodeIDs(ids)
	h := fnv64(key)
	return ids[h%uint64(len(ids))]
}

// PlaceAlive maps a key to an up node, skipping crashed nodes; returns
// ErrNodeDown when no node is alive.
func (c *Cluster) PlaceAlive(key string) (NodeID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]NodeID, 0, len(c.nodes))
	for n, s := range c.nodes {
		if s.up {
			ids = append(ids, n)
		}
	}
	if len(ids) == 0 {
		return "", ErrNodeDown
	}
	sortNodeIDs(ids)
	h := fnv64(key)
	return ids[h%uint64(len(ids))], nil
}

func sortNodeIDs(ids []NodeID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// fnv64 hashes a string with FNV-1a.
func fnv64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}
