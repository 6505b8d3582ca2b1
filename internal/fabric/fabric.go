// Package fabric simulates the distributed computing infrastructure that
// transactional cloud applications run on: a cluster of nodes connected by a
// network with simulated latency, message loss, duplication, and
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
	"slices"
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

// The simulated base latencies of the two network tiers. A cluster is one
// region; region.Topology charges the WAN between clusters.
const (
	// sameNodeLatency is a message that stays on one node (loopback / IPC).
	sameNodeLatency = 50 * time.Microsecond
	// crossNodeLatency is a message between two nodes.
	crossNodeLatency = 500 * time.Microsecond
)

// Config describes the simulated infrastructure.
type Config struct {
	// Seed makes every probabilistic decision deterministic.
	Seed int64
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
	return Config{Seed: 1, LatencyJitterPct: 20}
}

// Cluster is a set of nodes plus the network between them. Placement hashes
// a key onto ids (every node) or alive (the up ones), both sorted and kept
// under mu; Crash and Restart rebuild alive, so placing allocates nothing.
type Cluster struct {
	cfg Config

	mu         sync.Mutex
	rng        *rand.Rand
	nodes      map[NodeID]*nodeState
	ids        []NodeID
	alive      []NodeID
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
		partitions: make(map[partitionKey]bool),
	}
	for _, n := range nodes {
		c.nodes[n] = &nodeState{up: true}
	}
	c.ids = slices.Clone(nodes)
	slices.Sort(c.ids)
	c.ids = slices.Compact(c.ids)
	c.refreshAlive()
	return c
}

// refreshAlive rebuilds alive from ids. Caller holds c.mu.
func (c *Cluster) refreshAlive() {
	c.alive = c.alive[:0]
	for _, n := range c.ids {
		if c.nodes[n].up {
			c.alive = append(c.alive, n)
		}
	}
}

// SingleNode returns a one-node cluster with default config, convenient for
// unit tests and embedded deployments.
func SingleNode() *Cluster {
	return NewCluster(DefaultConfig(), "node-0")
}

// Nodes returns the IDs of all nodes, in ascending order.
func (c *Cluster) Nodes() []NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.ids)
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
		c.refreshAlive()
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
		c.refreshAlive()
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
	base := crossNodeLatency
	if src == dst {
		base = sameNodeLatency
	}
	jitter := time.Duration(0)
	if c.cfg.LatencyJitterPct > 0 {
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

// Place deterministically maps a string key to one of the cluster's nodes
// using consistent ordering, ignoring liveness. Runtimes that need
// failure-aware placement should check Up and re-place.
func (c *Cluster) Place(key string) NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.ids) == 0 {
		return ""
	}
	return c.ids[Hash(key)%uint64(len(c.ids))]
}

// PlaceAlive maps a key to an up node, skipping crashed nodes; returns
// ErrNodeDown when no node is alive.
func (c *Cluster) PlaceAlive(key string) (NodeID, error) { return c.PlaceAliveHash(Hash(key)) }

// PlaceAliveHash is PlaceAlive of a key whose Hash is h: a caller that
// names a key by parts hashes them with HashMore instead of joining them.
func (c *Cluster) PlaceAliveHash(h uint64) (NodeID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.alive) == 0 {
		return "", ErrNodeDown
	}
	return c.alive[h%uint64(len(c.alive))], nil
}

// Hash is the repository's one key hash, 64-bit FNV-1a: cluster placement
// and every key-sharded component (mq.PartitionForKey) use it.
func Hash(s string) uint64 { return HashMore(14695981039346656037, s) }

// HashMore continues the hash h over s, so that HashMore(Hash(a), b) is
// Hash(a + b).
func HashMore(h uint64, s string) uint64 {
	const prime = 1099511628211
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}
