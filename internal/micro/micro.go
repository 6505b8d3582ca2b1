// Package micro implements the paper's status-quo programming model
// (§3.1 "Microservice Frameworks"): stateless application-tier services in
// the style of Spring Boot / Flask / Dapr, each delegating state to an
// external database (internal/store) and communicating over synchronous RPC
// (internal/rpc) or asynchronously via the message broker.
//
// The two state-management deployments of §3.3 are both supported:
//
//   - database-per-service (decentralized): each service gets a dedicated
//     store.DB, physical isolation, higher infrastructure cost;
//   - shared database (centralized): services receive the same store.DB
//     and contend for its admission slots — the "noisy neighbor" regime.
//
// Fault tolerance follows §4.1: services are stateless, so Restart simply
// rebinds the handlers; all durable state lives in the database. What is
// lost on a crash is exactly what the paper says is lost: in-flight
// requests and any cross-service workflow progress not recorded in state.
package micro

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"time"

	"tca/internal/dedup"
	"tca/internal/fabric"
	"tca/internal/metrics"
	"tca/internal/rpc"
	"tca/internal/store"
)

// Common framework errors.
var (
	ErrNoService = errors.New("micro: no such service")
	ErrNoOp      = errors.New("micro: no such operation")
)

// Handler is one service operation. The request and response are raw bytes;
// use Codec for JSON convenience.
type Handler func(c *Ctx, req []byte) ([]byte, error)

// Ctx is the per-request context handed to handlers.
type Ctx struct {
	// Service is the service executing the handler.
	Service *Service
	// RPC is the underlying transport call (attempt number, idempotency
	// key, trace).
	RPC *rpc.Call
}

// DB returns the service's database.
func (c *Ctx) DB() *store.DB { return c.Service.db }

// Call invokes another service's operation synchronously, charging network
// hops to the current trace.
func (c *Ctx) Call(service, op string, req []byte) ([]byte, error) {
	return c.Service.dep.call(c.Service.node, service, op, req, c.RPC.Trace, rpc.CallOptions{
		Retries:      c.Service.cfg.CallRetries,
		RetryBackoff: c.Service.cfg.CallBackoff,
	})
}

// ServiceConfig describes one service.
type ServiceConfig struct {
	// Name is the service name, unique within the deployment.
	Name string
	// Node places the service; empty places it by hash of the name.
	Node fabric.NodeID
	// DB is the service's database. nil creates a dedicated instance
	// (database-per-service); passing a shared instance gives the
	// shared-database deployment.
	DB *store.DB
	// Idempotency enables idempotency-key dedup middleware on all
	// operations when non-nil.
	Idempotency *dedup.Store
	// CallRetries / CallBackoff configure outbound calls from this
	// service's handlers.
	CallRetries int
	CallBackoff time.Duration
}

// Service is one deployed microservice.
type Service struct {
	cfg  ServiceConfig
	dep  *Deployment
	node fabric.NodeID
	db   *store.DB

	mu  sync.RWMutex
	ops map[string]Handler
}

// Name returns the service name.
func (s *Service) Name() string { return s.cfg.Name }

// Node returns the node the service runs on.
func (s *Service) Node() fabric.NodeID { return s.node }

// DB returns the service's database (shared or dedicated).
func (s *Service) DB() *store.DB { return s.db }

// Handle registers an operation handler, wrapped with the service's
// idempotency middleware when configured.
func (s *Service) Handle(op string, h Handler) {
	s.mu.Lock()
	s.ops[op] = h
	s.mu.Unlock()
	s.bind(op)
}

// bind registers op's endpoint. Its name and the service's request
// counter are resolved here, once, not per request.
func (s *Service) bind(op string) {
	name := endpointName(s.cfg.Name, op)
	requests := s.dep.metrics.Counter("micro.requests." + s.cfg.Name)
	inner := func(c *rpc.Call, req []byte) ([]byte, error) {
		s.mu.RLock()
		h, ok := s.ops[op]
		s.mu.RUnlock()
		if !ok {
			return nil, fmt.Errorf("%w: %s/%s", ErrNoOp, s.cfg.Name, op)
		}
		requests.Inc()
		return h(&Ctx{Service: s, RPC: c}, req)
	}
	if s.cfg.Idempotency != nil {
		s.dep.transport.Register(name, s.node, rpc.WithIdempotency(s.cfg.Idempotency, inner))
	} else {
		s.dep.transport.Register(name, s.node, inner)
	}
}

// Restart models a stateless application-tier restart: handlers rebind,
// database state is untouched. Any in-memory progress is gone — which is
// the point.
func (s *Service) Restart() {
	s.mu.RLock()
	ops := make([]string, 0, len(s.ops))
	for op := range s.ops {
		ops = append(ops, op)
	}
	s.mu.RUnlock()
	for _, op := range ops {
		s.bind(op)
	}
	s.dep.metrics.Counter("micro.restarts." + s.cfg.Name).Inc()
}

func endpointName(service, op string) string { return "svc/" + service + "/" + op }

// Deployment is a set of services on a fabric cluster.
type Deployment struct {
	cluster   *fabric.Cluster
	transport *rpc.Transport
	metrics   *metrics.Registry

	mu       sync.RWMutex
	services map[string]*Service
}

// NewDeployment creates an empty deployment over the cluster.
func NewDeployment(cluster *fabric.Cluster) *Deployment {
	return &Deployment{
		cluster:   cluster,
		transport: rpc.NewTransport(cluster),
		metrics:   metrics.NewRegistry(),
		services:  make(map[string]*Service),
	}
}

// Cluster returns the deployment's fabric.
func (d *Deployment) Cluster() *fabric.Cluster { return d.cluster }

// Transport returns the deployment's RPC transport.
func (d *Deployment) Transport() *rpc.Transport { return d.transport }

// Metrics returns the deployment's instrument registry.
func (d *Deployment) Metrics() *metrics.Registry { return d.metrics }

// AddService deploys a service. With cfg.DB == nil the service gets a
// dedicated database named after it.
func (d *Deployment) AddService(cfg ServiceConfig) *Service {
	node := cfg.Node
	if node == "" {
		node = d.cluster.Place(cfg.Name)
	}
	db := cfg.DB
	if db == nil {
		db = store.NewDB(store.Config{Name: cfg.Name + "-db"})
	}
	s := &Service{cfg: cfg, dep: d, node: node, db: db, ops: make(map[string]Handler)}
	d.mu.Lock()
	d.services[cfg.Name] = s
	d.mu.Unlock()
	return s
}

// Service returns a deployed service by name.
func (d *Deployment) Service(name string) (*Service, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	s, ok := d.services[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoService, name)
	}
	return s, nil
}

// call routes one RPC to a service operation.
func (d *Deployment) call(from fabric.NodeID, service, op string, req []byte, tr *fabric.Trace, opts rpc.CallOptions) ([]byte, error) {
	d.mu.RLock()
	_, ok := d.services[service]
	d.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoService, service)
	}
	return d.transport.Call(from, endpointName(service, op), req, tr, opts)
}

// Invoke is the external-client entry point: it calls a service operation
// from outside the cluster (modeled as a loopback from the target's node)
// and returns the response plus the simulated end-to-end latency.
func (d *Deployment) Invoke(service, op string, req []byte, opts rpc.CallOptions) ([]byte, *fabric.Trace, error) {
	d.mu.RLock()
	s, ok := d.services[service]
	d.mu.RUnlock()
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s", ErrNoService, service)
	}
	tr := fabric.NewTrace()
	resp, err := d.transport.Call(s.node, endpointName(service, op), req, tr, opts)
	return resp, tr, err
}

// Codec marshals requests and responses as JSON, the lingua franca of REST
// microservices.
type Codec struct{}

// Marshal encodes v as JSON, panicking on programmer error (unmarshalable
// types), matching the ergonomics of typed handler helpers.
func (Codec) Marshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("micro: marshal: %v", err))
	}
	return b
}

// Unmarshal decodes JSON into v.
func (Codec) Unmarshal(b []byte, v any) error {
	return json.Unmarshal(b, v)
}

// JSONHandler adapts a typed request/response function into a Handler.
func JSONHandler[Req, Resp any](fn func(c *Ctx, req Req) (Resp, error)) Handler {
	return func(c *Ctx, raw []byte) ([]byte, error) {
		var req Req
		if len(raw) > 0 {
			if err := json.Unmarshal(raw, &req); err != nil {
				return nil, fmt.Errorf("micro: bad request: %w", err)
			}
		}
		resp, err := fn(c, req)
		if err != nil {
			return nil, err
		}
		out, err := json.Marshal(resp)
		if err != nil {
			return nil, fmt.Errorf("micro: bad response: %w", err)
		}
		return out, nil
	}
}
