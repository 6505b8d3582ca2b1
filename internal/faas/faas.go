// Package faas implements the cloud-functions programming model of §3.1:
// Function-as-a-Service with the two state models §3.3 identifies —
// private state (a durable object tied to a function identity, the Azure
// Durable Functions "entity" design) and shared state (a causally
// consistent key-value store, the Cloudburst design).
//
// Lifecycle costs are modeled explicitly (§4.3): each function has a warm
// container pool; an invocation that finds no warm container pays the cold
// start latency. Idle eviction shrinks the pool, trading memory for future
// cold starts — the tension that "undermines wider adoption of FaaS".
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

// Config tunes the platform's lifecycle model.
type Config struct {
	// ColdStart is the simulated latency of provisioning a container.
	ColdStart time.Duration
	// StateFetch is the simulated latency of pulling private state from
	// disaggregated storage into a fresh container.
	StateFetch time.Duration
	// MaxConcurrent caps in-flight invocations per function (0 = 256).
	MaxConcurrent int
	// WarmPool is the number of containers kept warm per function
	// (0 = 8). Invocations beyond the warm supply pay cold starts.
	WarmPool int
}

// DefaultConfig models a typical FaaS: 50ms cold start, 2ms state fetch.
func DefaultConfig() Config {
	return Config{
		ColdStart:     50 * time.Millisecond,
		StateFetch:    2 * time.Millisecond,
		MaxConcurrent: 256,
		WarmPool:      8,
	}
}

// function is one registered function and its container pool.
type function struct {
	name    string
	handler Handler

	mu    sync.Mutex
	warm  int // containers currently warm and idle
	busy  int // containers currently executing
	limit int
	pool  int
}

// Platform hosts functions.
type Platform struct {
	cfg     Config
	cluster *fabric.Cluster
	metrics *metrics.Registry

	entities *EntityManager
	shared   *SharedStore
	results  *dedup.Store // invocation-id dedup (exactly-once per op)

	mu      sync.RWMutex
	fns     map[string]*function
	stopped bool
}

// NewPlatform creates a platform on the cluster.
func NewPlatform(cluster *fabric.Cluster, cfg Config) *Platform {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 256
	}
	if cfg.WarmPool <= 0 {
		cfg.WarmPool = 8
	}
	p := &Platform{
		cfg:     cfg,
		cluster: cluster,
		metrics: metrics.NewRegistry(),
		results: dedup.New(0),
		fns:     make(map[string]*function),
	}
	p.entities = newEntityManager(p)
	p.shared = NewSharedStore()
	return p
}

// Metrics returns the platform's instruments.
func (p *Platform) Metrics() *metrics.Registry { return p.metrics }

// SharedStore returns the platform's shared causal store.
func (p *Platform) SharedStore() *SharedStore { return p.shared }

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
		pool:    p.cfg.WarmPool,
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
		p.metrics.Counter("faas.dedup_replays").Inc()
	}
	return resp, err
}

func (p *Platform) execute(f *function, id, key string, payload []byte, tr *fabric.Trace) ([]byte, error) {
	cold, err := f.acquire()
	if err != nil {
		p.metrics.Counter("faas.throttled").Inc()
		return nil, err
	}
	defer f.release()
	if cold {
		tr.Charge(p.cfg.ColdStart)
		tr.Charge(p.cfg.StateFetch) // fresh container pulls its state
		p.metrics.Counter("faas.cold_starts").Inc()
	} else {
		p.metrics.Counter("faas.warm_starts").Inc()
	}
	ctx := &Ctx{Function: f.name, Key: key, Trace: tr, Cold: cold, id: id, platform: p}
	start := time.Now()
	resp, err := f.handler(ctx, payload)
	p.metrics.Histogram("faas.exec." + f.name).RecordDuration(time.Since(start))
	return resp, err
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
	if f.warm < f.pool {
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
