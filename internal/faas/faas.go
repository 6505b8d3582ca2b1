// Package faas implements the cloud-functions programming model of §3.1:
// Function-as-a-Service with the two state models §3.3 identifies —
// private state (a durable object tied to a function identity, the Azure
// Durable Functions "entity" design) and shared state (a causally
// consistent key-value store, the Cloudburst design). An operation over
// several entities is an explicit critical section: one store transaction
// under the entities' locks, whose writes commit together or not at all.
//
// Lifecycle costs are modeled explicitly (§4.3): each function keeps up to
// warmPool containers warm; an invocation that finds no warm container
// pays the cold start and state fetch latencies. Idle eviction shrinks the
// pool, trading memory for future cold starts — the tension that
// "undermines wider adoption of FaaS".
//
// Exactly-once per operation (§4.2 Durable Functions): invocations carry an
// id; replays of the same id return the recorded result instead of
// re-executing.
package faas

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"tca/internal/dedup"
	"tca/internal/fabric"
	"tca/internal/metrics"
)

// Common platform errors.
var (
	ErrNoFunction   = errors.New("faas: no such function")
	ErrThrottled    = errors.New("faas: concurrency limit reached")
	ErrPlatformDown = errors.New("faas: platform stopped")
)

// Handler is the body of a cloud function.
type Handler func(ctx *Ctx, payload []byte) ([]byte, error)

// Ctx is the per-invocation context.
type Ctx struct {
	// Function is the invoked function's name; Key its partition key.
	Function string
	Key      string
	// Trace accumulates simulated latency (cold start, state fetch, hops).
	Trace *fabric.Trace
	// Cold reports whether this invocation paid a cold start.
	Cold bool

	id       string
	platform *Platform
	session  *Session
}

// InvocationID returns the id the invocation was started under (InvokeID),
// empty for a plain Invoke.
func (c *Ctx) InvocationID() string { return c.id }

// Entities returns the durable-entity manager for cross-entity operations.
func (c *Ctx) Entities() *EntityManager { return c.platform.entities }

// Shared returns a causal session against the shared state store, created
// lazily per invocation (Cloudburst attaches causal metadata per request).
func (c *Ctx) Shared() *Session {
	if c.session == nil {
		c.session = c.platform.shared.NewSession(c.Function + "/" + c.Key)
	}
	return c.session
}

// Call invokes another function synchronously (function composition).
func (c *Ctx) Call(fn, key string, payload []byte) ([]byte, error) {
	return c.platform.Invoke(fn, key, payload, c.Trace)
}

// The lifecycle model of a typical FaaS.
const (
	// coldStart is the simulated latency of provisioning a container.
	coldStart = 50 * time.Millisecond
	// stateFetch is the simulated latency of pulling private state from
	// disaggregated storage into a fresh container.
	stateFetch = 2 * time.Millisecond
	// warmPool is the number of containers kept warm per function.
	// Invocations beyond the warm supply pay cold starts.
	warmPool = 8
)

// Config tunes the platform's admission; the lifecycle costs are the
// constants above.
type Config struct {
	// MaxConcurrent caps in-flight invocations per function (0 = 256).
	MaxConcurrent int
}

// DefaultConfig admits 256 in-flight invocations per function.
func DefaultConfig() Config {
	return Config{MaxConcurrent: 256}
}

// function is one registered function and its container pool.
type function struct {
	name    string
	handler Handler

	mu    sync.Mutex
	warm  int // containers currently warm and idle
	busy  int // containers currently executing
	limit int
}

// Platform hosts functions.
type Platform struct {
	cfg     Config
	cluster *fabric.Cluster
	metrics *metrics.Registry

	entities *EntityManager
	shared   *SharedStore
	results  *dedup.Store // invocation-id dedup (exactly-once per op)

	// The invoke path's counters, resolved once.
	coldStarts, warmStarts, throttled, dedupReplays, criticalSections *metrics.Counter

	mu      sync.RWMutex
	fns     map[string]*function
	stopped bool
}

// NewPlatform creates a platform on the cluster.
func NewPlatform(cluster *fabric.Cluster, cfg Config) *Platform {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 256
	}
	m := metrics.NewRegistry()
	p := &Platform{
		cfg:              cfg,
		cluster:          cluster,
		metrics:          m,
		results:          dedup.New(0),
		fns:              make(map[string]*function),
		coldStarts:       m.Counter("faas.cold_starts"),
		warmStarts:       m.Counter("faas.warm_starts"),
		throttled:        m.Counter("faas.throttled"),
		dedupReplays:     m.Counter("faas.dedup_replays"),
		criticalSections: m.Counter("faas.critical_sections"),
	}
	p.entities = newEntityManager(p)
	p.shared = NewSharedStore()
	return p
}

// Metrics returns the platform's instruments.
func (p *Platform) Metrics() *metrics.Registry { return p.metrics }

// Entities returns the platform's durable-entity manager.
func (p *Platform) Entities() *EntityManager { return p.entities }

// Register deploys a function.
func (p *Platform) Register(name string, h Handler) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fns[name] = &function{
		name:    name,
		handler: h,
		limit:   p.cfg.MaxConcurrent,
	}
}

// Invoke runs a function. The invocation pays a cold start if no warm
// container is idle, then the state-fetch cost, then executes.
func (p *Platform) Invoke(fn, key string, payload []byte, tr *fabric.Trace) ([]byte, error) {
	return p.InvokeID("", fn, key, payload, tr)
}

// InvokeID is Invoke with an invocation id: replays of the same non-empty
// id return the recorded result without re-executing (exactly-once per
// operation, the Durable Functions guarantee).
func (p *Platform) InvokeID(id, fn, key string, payload []byte, tr *fabric.Trace) ([]byte, error) {
	p.mu.RLock()
	if p.stopped {
		p.mu.RUnlock()
		return nil, ErrPlatformDown
	}
	f, ok := p.fns[fn]
	p.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoFunction, fn)
	}
	if id == "" {
		return p.execute(f, id, key, payload, tr)
	}
	resp, dup, err := p.results.DoLocked(fn+"/"+id, func() ([]byte, error) {
		return p.execute(f, id, key, payload, tr)
	})
	if dup {
		p.dedupReplays.Inc()
	}
	return resp, err
}

func (p *Platform) execute(f *function, id, key string, payload []byte, tr *fabric.Trace) ([]byte, error) {
	cold, err := f.acquire()
	if err != nil {
		p.throttled.Inc()
		return nil, err
	}
	defer f.release()
	if cold {
		tr.Charge(coldStart)
		tr.Charge(stateFetch) // fresh container pulls its state
		p.coldStarts.Inc()
	} else {
		p.warmStarts.Inc()
	}
	ctx := &Ctx{Function: f.name, Key: key, Trace: tr, Cold: cold, id: id, platform: p}
	return f.handler(ctx, payload)
}

// acquire takes a container, reporting whether it was a cold start.
func (f *function) acquire() (cold bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.busy >= f.limit {
		return false, fmt.Errorf("%w: %s at %d", ErrThrottled, f.name, f.limit)
	}
	f.busy++
	if f.warm > 0 {
		f.warm--
		return false, nil
	}
	return true, nil
}

// release returns the container to the warm pool (or discards it when the
// pool is full).
func (f *function) release() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.busy--
	if f.warm < warmPool {
		f.warm++
	}
}

// EvictIdle drops all warm containers of fn, modeling idle-timeout
// reclamation: the next invocations pay cold starts again.
func (p *Platform) EvictIdle(fn string) error {
	p.mu.RLock()
	f, ok := p.fns[fn]
	p.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoFunction, fn)
	}
	f.mu.Lock()
	f.warm = 0
	f.mu.Unlock()
	p.metrics.Counter("faas.evictions").Inc()
	return nil
}

// Stop rejects further invocations.
func (p *Platform) Stop() {
	p.mu.Lock()
	p.stopped = true
	p.mu.Unlock()
}
