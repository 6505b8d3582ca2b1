// Package actor implements a virtual-actor runtime in the style of Orleans
// (§3.1 "The Actor Model"): actors are addressed by (type, id), activated on
// demand on a node chosen by the runtime (location transparency), process
// their mailbox sequentially (single-threaded state access), and are
// transparently re-placed on another node when theirs fails — the failure
// transparency §4.1 attributes to Orleans.
//
// Delivery semantics follow §4.2: at-most-once by default; Ask with retries
// gives at-least-once, which duplicates effects unless the actor's handler
// is idempotent. State durability is the developer's responsibility, via
// Ctx.Load/Ctx.Save against the system's persistence store — the
// "checkpoint actor state to an external DBMS" pattern the paper describes.
//
// Cross-actor transactions (the Orleans Transactions API surveyed in §4.2)
// are provided by Coordinator in txn.go: lock-based two-phase commit over
// actor state, with the significant overhead the paper's cited evaluations
// measure.
package actor

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"tca/internal/fabric"
	"tca/internal/metrics"
	"tca/internal/store"
)

// Common runtime errors.
var (
	ErrNoSuchType    = errors.New("actor: no registered actor type")
	ErrMailboxFull   = errors.New("actor: mailbox full")
	ErrDeactivated   = errors.New("actor: activation deactivated")
	ErrAskTimeout    = errors.New("actor: ask timeout")
	ErrSystemStopped = errors.New("actor: system stopped")
)

// Ref addresses a virtual actor. Refs are valid forever; the runtime
// activates the actor when a message arrives.
type Ref struct {
	Type string
	ID   string
}

func (r Ref) String() string { return r.Type + "/" + r.ID }

// Message is one mailbox item.
type Message struct {
	// Method names the operation; Body carries its argument.
	Method string
	Body   []byte
	// Sender is the asking actor, when the message came from Ask inside
	// another actor ("" for external clients).
	Sender string
	// Trace accumulates simulated latency across the call chain.
	Trace *fabric.Trace
	// Attempt is >1 on redeliveries.
	Attempt int
}

// Behavior is the application-supplied actor logic. One Behavior instance
// exists per activation; the runtime guarantees Receive is never invoked
// concurrently for the same activation.
type Behavior interface {
	Receive(ctx *Ctx, msg Message) ([]byte, error)
}

// BehaviorFunc adapts a function to Behavior.
type BehaviorFunc func(ctx *Ctx, msg Message) ([]byte, error)

// Receive implements Behavior.
func (f BehaviorFunc) Receive(ctx *Ctx, msg Message) ([]byte, error) { return f(ctx, msg) }

// Factory creates a Behavior for a new activation of an actor type.
type Factory func(ref Ref) Behavior

// Ctx gives a behavior access to the runtime during one message.
type Ctx struct {
	// Ref is the actor's own address.
	Ref Ref
	// System is the hosting runtime.
	System *System
	// Node is where this activation lives.
	Node fabric.NodeID

	activation *activation
}

// Tell sends a one-way message to another actor (at-most-once: delivery
// failures are dropped, as in classic actor semantics).
func (c *Ctx) Tell(to Ref, method string, body []byte, tr *fabric.Trace) {
	_ = c.System.deliver(c.Node, to, Message{Method: method, Body: body, Sender: c.Ref.String(), Trace: tr, Attempt: 1}, nil)
}

// Ask performs a request/response call to another actor, charging hops to
// the trace. Retries give at-least-once delivery.
func (c *Ctx) Ask(to Ref, method string, body []byte, tr *fabric.Trace) ([]byte, error) {
	return c.System.ask(c.Node, to, method, body, tr)
}

// Load reads the actor's persisted state, returning ok=false when the actor
// has never saved.
func (c *Ctx) Load() (store.Row, bool, error) {
	return c.System.loadState(c.Ref)
}

// Save persists the actor's state to the system's storage.
func (c *Ctx) Save(state store.Row) error {
	return c.System.saveState(c.Ref, state)
}

// activation is one live instance of a virtual actor on some node.
type activation struct {
	ref      Ref
	node     fabric.NodeID
	behavior Behavior
	mailbox  chan envelope
	done     chan struct{}
	sys      *System

	mu          sync.Mutex
	deactivated bool
}

type envelope struct {
	msg   Message
	reply chan reply // nil for Tell
}

type reply struct {
	body []byte
	err  error
}

// Config tunes the runtime.
type Config struct {
	// MailboxSize bounds each activation's queue. Zero means 1024.
	MailboxSize int
	// AskTimeout bounds Ask waits. Zero means 2s.
	AskTimeout time.Duration
	// AskRetries is the redelivery count for Ask (at-least-once when > 0).
	AskRetries int
	// Persistence stores actor state; nil creates a dedicated store.DB.
	Persistence *store.DB
}

// System is the virtual-actor runtime over a fabric cluster.
type System struct {
	cfg     Config
	cluster *fabric.Cluster
	metrics *metrics.Registry
	db      *store.DB

	mu          sync.Mutex
	factories   map[string]Factory
	activations map[string]*activation // key: ref.String()
	epoch       uint64                 // cluster epoch at last placement validation
	stopped     bool
}

// NewSystem creates a runtime on the cluster.
func NewSystem(cluster *fabric.Cluster, cfg Config) *System {
	if cfg.MailboxSize <= 0 {
		cfg.MailboxSize = 1024
	}
	if cfg.AskTimeout <= 0 {
		cfg.AskTimeout = 2 * time.Second
	}
	db := cfg.Persistence
	if db == nil {
		db = store.NewDB(store.Config{Name: "actor-state"})
	}
	db.CreateTable("actor_state")
	return &System{
		cfg:         cfg,
		cluster:     cluster,
		metrics:     metrics.NewRegistry(),
		db:          db,
		factories:   make(map[string]Factory),
		activations: make(map[string]*activation),
	}
}

// Metrics returns the runtime's instruments.
func (s *System) Metrics() *metrics.Registry { return s.metrics }

// Persistence returns the actor-state database.
func (s *System) Persistence() *store.DB { return s.db }

// Register makes an actor type known to the runtime.
func (s *System) Register(actorType string, f Factory) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.factories[actorType] = f
}

// activationFor returns (activating on demand) the actor's activation.
// Placement is by consistent hash over alive nodes; when the cluster epoch
// moved (crash/restart), placements are revalidated and dead-node
// activations dropped — actor migration on failure.
func (s *System) activationFor(ref Ref) (*activation, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return nil, ErrSystemStopped
	}
	if e := s.cluster.Epoch(); e != s.epoch {
		s.epoch = e
		for k, a := range s.activations {
			if !s.cluster.Up(a.node) {
				a.shutdown()
				delete(s.activations, k)
				s.metrics.Counter("actor.migrations").Inc()
			}
		}
	}
	key := ref.String()
	if a, ok := s.activations[key]; ok {
		return a, nil
	}
	f, ok := s.factories[ref.Type]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchType, ref.Type)
	}
	node, err := s.cluster.PlaceAlive(key)
	if err != nil {
		return nil, err
	}
	a := &activation{
		ref:      ref,
		node:     node,
		behavior: f(ref),
		mailbox:  make(chan envelope, s.cfg.MailboxSize),
		done:     make(chan struct{}),
		sys:      s,
	}
	s.activations[key] = a
	s.metrics.Counter("actor.activations").Inc()
	go a.run()
	return a, nil
}

// run is the activation's single-threaded message loop.
func (a *activation) run() {
	ctx := &Ctx{Ref: a.ref, System: a.sys, Node: a.node, activation: a}
	for {
		select {
		case env := <-a.mailbox:
			body, err := a.behavior.Receive(ctx, env.msg)
			if env.reply != nil {
				env.reply <- reply{body: body, err: err}
			}
		case <-a.done:
			// Drain replies so askers do not hang on a deactivated actor.
			for {
				select {
				case env := <-a.mailbox:
					if env.reply != nil {
						env.reply <- reply{err: ErrDeactivated}
					}
				default:
					return
				}
			}
		}
	}
}

func (a *activation) shutdown() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.deactivated {
		a.deactivated = true
		close(a.done)
	}
}

// deliver enqueues a message for ref, activating as needed. reply may be
// nil (Tell). The fabric decides loss/duplication per the chaos config.
func (s *System) deliver(from fabric.NodeID, ref Ref, msg Message, replyCh chan reply) error {
	a, err := s.activationFor(ref)
	if err != nil {
		return err
	}
	return s.deliverTo(a, from, msg, replyCh)
}

func (s *System) deliverTo(a *activation, from fabric.NodeID, msg Message, replyCh chan reply) error {
	d := s.cluster.Send(from, a.node, msg.Trace)
	if d.Err != nil {
		s.metrics.Counter("actor.deliver_failures").Inc()
		return d.Err
	}
	send := func(r chan reply) error {
		select {
		case a.mailbox <- envelope{msg: msg, reply: r}:
			return nil
		default:
			s.metrics.Counter("actor.mailbox_full").Inc()
			return ErrMailboxFull
		}
	}
	if err := send(replyCh); err != nil {
		return err
	}
	if d.Duplicated {
		// Network duplicate: deliver again with no reply channel; the
		// behavior executes twice.
		dup := msg
		dup.Attempt = msg.Attempt + 1
		_ = send(nil)
		s.metrics.Counter("actor.duplicates").Inc()
	}
	return nil
}

// Tell sends a one-way message from outside the cluster (at-most-once).
func (s *System) Tell(ref Ref, method string, body []byte, tr *fabric.Trace) error {
	from, err := s.cluster.PlaceAlive(ref.String())
	if err != nil {
		return err
	}
	return s.deliver(from, ref, Message{Method: method, Body: body, Trace: tr, Attempt: 1}, nil)
}

// Ask sends a request from outside the cluster and waits for the response.
func (s *System) Ask(ref Ref, method string, body []byte, tr *fabric.Trace) ([]byte, error) {
	from, err := s.cluster.PlaceAlive(ref.String())
	if err != nil {
		return nil, err
	}
	return s.ask(from, ref, method, body, tr)
}

func (s *System) ask(from fabric.NodeID, ref Ref, method string, body []byte, tr *fabric.Trace) ([]byte, error) {
	attempts := s.cfg.AskRetries + 1
	var lastErr error
	for i := 1; i <= attempts; i++ {
		a, err := s.activationFor(ref)
		if err != nil {
			lastErr = err
			continue
		}
		replyCh := make(chan reply, 1)
		msg := Message{Method: method, Body: body, Trace: tr, Attempt: i}
		if err := s.deliverTo(a, from, msg, replyCh); err != nil {
			lastErr = err
			if i < attempts {
				s.metrics.Counter("actor.ask_retries").Inc()
			}
			continue
		}
		timer := time.NewTimer(s.cfg.AskTimeout)
		select {
		case r := <-replyCh:
			timer.Stop()
			s.cluster.Send(a.node, from, tr) // response hop
			if r.err != nil {
				return nil, r.err
			}
			return r.body, nil
		case <-timer.C:
			lastErr = ErrAskTimeout
		}
	}
	return nil, fmt.Errorf("actor: ask %s.%s failed: %w", ref, method, lastErr)
}

// loadState reads an actor's durable state.
func (s *System) loadState(ref Ref) (store.Row, bool, error) {
	tx := s.db.Begin(store.ReadCommitted)
	defer tx.Abort()
	return tx.Get("actor_state", ref.String())
}

// saveState writes an actor's durable state (its checkpoint to the
// external DBMS).
func (s *System) saveState(ref Ref, state store.Row) error {
	tx := s.db.Begin(store.ReadCommitted)
	if err := tx.Put("actor_state", ref.String(), state); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// Stop shuts the whole system down.
func (s *System) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return
	}
	s.stopped = true
	for k, a := range s.activations {
		a.shutdown()
		delete(s.activations, k)
	}
}
