// Package rpc simulates the synchronous request/response transports of the
// paper's messaging taxonomy (§3.2 "REST and gRPC"): stateless HTTP-style
// calls with no delivery guarantee. Timeouts, sender retries and duplicate
// delivery are first-class — they are exactly the two duplicate-message
// cases §3.2 enumerates (partial failure on the sender side, redelivery
// after timeout) — so the idempotency-key middleware and its cost can be
// measured rather than assumed.
//
// Transport model: endpoints are registered on fabric nodes; a Call
// consults the fabric for the verdict of each attempt (latency charge,
// drop, duplicate) and then invokes the handler in-process. A dropped
// *request* means the handler never ran; a dropped *response* means the
// handler ran but the client times out and retries — the dangerous case
// for non-idempotent operations.
package rpc

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"tca/internal/dedup"
	"tca/internal/fabric"
	"tca/internal/metrics"
)

// Common transport errors.
var (
	ErrNoEndpoint = errors.New("rpc: no such endpoint")
	ErrTimeout    = errors.New("rpc: timeout")
	ErrExhausted  = errors.New("rpc: retries exhausted")
)

// Handler processes one request.
type Handler func(c *Call, req []byte) ([]byte, error)

// Call carries per-request context through handler chains.
type Call struct {
	// Endpoint is the target endpoint name.
	Endpoint string
	// IdempotencyKey is the client-supplied unique request id ("" = none).
	IdempotencyKey string
	// Attempt is 1 for the first delivery, >1 for retries/duplicates.
	Attempt int
	// Trace accumulates simulated latency across the whole call tree.
	Trace *fabric.Trace
	// Node is the node the handler runs on.
	Node fabric.NodeID
}

// Transport connects clients to endpoints over a fabric cluster.
type Transport struct {
	cluster *fabric.Cluster
	metrics *metrics.Registry

	mu        sync.RWMutex
	endpoints map[string]*endpoint
}

type endpoint struct {
	name    string
	node    fabric.NodeID
	handler Handler
}

// NewTransport creates a transport over the given cluster.
func NewTransport(cluster *fabric.Cluster) *Transport {
	return &Transport{
		cluster:   cluster,
		metrics:   metrics.NewRegistry(),
		endpoints: make(map[string]*endpoint),
	}
}

// Metrics exposes the transport's instrument registry.
func (t *Transport) Metrics() *metrics.Registry { return t.metrics }

// Cluster returns the underlying fabric.
func (t *Transport) Cluster() *fabric.Cluster { return t.cluster }

// Register binds an endpoint name to a handler on a node. Re-registering
// replaces the handler (how a service restart rebinds its routes).
func (t *Transport) Register(name string, node fabric.NodeID, h Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.endpoints[name] = &endpoint{name: name, node: node, handler: h}
}

func (t *Transport) lookup(name string) (*endpoint, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ep, ok := t.endpoints[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoEndpoint, name)
	}
	return ep, nil
}

// CallOptions tune one logical call.
type CallOptions struct {
	// Retries is how many times the client re-sends after a lost request
	// or lost response. 0 means fire once.
	Retries int
	// RetryBackoff is the simulated wait charged to the trace before each
	// retry (the client's timeout).
	RetryBackoff time.Duration
	// IdempotencyKey is attached to every attempt of this logical call.
	IdempotencyKey string
}

// Call performs one logical request from src to the named endpoint.
// Each attempt independently risks request loss, response loss, and
// duplicate delivery per the fabric's chaos configuration. The handler may
// therefore execute zero, one, or multiple times for one logical call —
// the at-most-once / at-least-once tension of §3.2. Use idempotency keys
// plus Middleware to recover exactly-once effects.
func (t *Transport) Call(src fabric.NodeID, name string, req []byte, tr *fabric.Trace, opts CallOptions) ([]byte, error) {
	ep, err := t.lookup(name)
	if err != nil {
		return nil, err
	}
	attempts := opts.Retries + 1
	var lastErr error
	for i := 1; i <= attempts; i++ {
		if i > 1 {
			tr.Charge(opts.RetryBackoff)
			t.metrics.Counter("rpc.retries").Inc()
		}
		resp, err := t.attempt(src, ep, req, tr, i, opts.IdempotencyKey)
		if err == nil {
			t.metrics.Counter("rpc.ok").Inc()
			return resp, nil
		}
		lastErr = err
		if !retryable(err) {
			t.metrics.Counter("rpc.failed").Inc()
			return nil, err
		}
	}
	t.metrics.Counter("rpc.exhausted").Inc()
	return nil, fmt.Errorf("%w after %d attempts: %w", ErrExhausted, attempts, lastErr)
}

func retryable(err error) bool {
	return errors.Is(err, ErrTimeout) ||
		errors.Is(err, fabric.ErrDropped) ||
		errors.Is(err, fabric.ErrNodeDown) ||
		errors.Is(err, fabric.ErrPartitioned)
}

// attempt is one wire delivery: request leg, execution, response leg.
func (t *Transport) attempt(src fabric.NodeID, ep *endpoint, req []byte, tr *fabric.Trace, attempt int, key string) ([]byte, error) {
	// Request leg.
	d := t.cluster.Send(src, ep.node, tr)
	if d.Err != nil {
		return nil, fmt.Errorf("%w: request leg: %w", ErrTimeout, d.Err)
	}
	call := &Call{Endpoint: ep.name, IdempotencyKey: key, Attempt: attempt, Trace: tr, Node: ep.node}
	resp, err := ep.handler(call, req)
	if d.Duplicated {
		// The network delivered the request twice: the handler executes
		// again. The duplicate's response is discarded — only its side
		// effects remain, which is the whole problem.
		dupCall := &Call{Endpoint: ep.name, IdempotencyKey: key, Attempt: attempt + 1, Trace: tr, Node: ep.node}
		_, _ = ep.handler(dupCall, req)
		t.metrics.Counter("rpc.duplicates").Inc()
	}
	if err != nil {
		return nil, err
	}
	// Response leg.
	d = t.cluster.Send(ep.node, src, tr)
	if d.Err != nil {
		// The handler ran but the client never learns: timeout + retry
		// will re-execute a non-idempotent handler.
		t.metrics.Counter("rpc.lost_responses").Inc()
		return nil, fmt.Errorf("%w: response leg: %w", ErrTimeout, d.Err)
	}
	return resp, nil
}

// WithIdempotency wraps a handler with idempotency-key dedup: replayed
// keys return the recorded response without re-executing. Calls without a
// key pass through unprotected.
func WithIdempotency(store *dedup.Store, h Handler) Handler {
	return func(c *Call, req []byte) ([]byte, error) {
		if c.IdempotencyKey == "" {
			return h(c, req)
		}
		resp, _, err := store.DoLocked(c.IdempotencyKey, func() ([]byte, error) {
			return h(c, req)
		})
		return resp, err
	}
}
