// Package statefun implements Stateful Functions on streaming dataflows —
// the Flink Statefun / SFaaS design of §3.1: developers write functions
// addressed by (type, id); each function owns scoped state co-located with
// execution; functions exchange asynchronous messages; and the runtime
// provides exactly-once processing by integrating state updates with the
// message log (§4.2: "Statefun ... manages state updates and messages in an
// integrated manner, transparently rewinding the application state ... it
// achieves exactly-once processing and atomicity as a consequence.
// However, there is no transactional isolation across Statefun entities.").
//
// Architecture: one dataflow job over the app's one topic (Config.Ingress),
// whose single keyed operator dispatches each message to its function on
// the goroutine that owns the message's partition. External messages and
// function-to-function sends land on the same topic as envelope frames:
// the addressee's and sender's type and id, then the payload as is, to
// the end of the record; a record that is not a frame is dropped. Sends carry
// deterministic idempotent-producer sequence numbers derived from the
// consumed record's coordinates, so crash-replay re-sends are deduplicated
// by the broker — exactly-once function messaging without any application
// code. An external message is appended once, and like every record it
// replays from the checkpointed source offsets against the checkpointed
// state, so its effects also apply exactly once. Sends are also why a
// checkpoint needs no barriers: the partitions are the only channels
// between instances, and each instance's (offset, state) pair replays
// into the same sends. The goroutine that owns a partition owns every
// function instance on it, so an invocation may also reach the scoped
// state of another instance on its own partition (Ctx.StateOf), as
// atomically and as checkpoint-consistently as its own.
//
// The missing transactional isolation across functions is not a bug: it is
// the exact gap experiment E7 demonstrates, and the one internal/core
// closes.
package statefun

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"tca/internal/dataflow"
	"tca/internal/mq"
)

// Common runtime errors.
var (
	ErrNoFunction     = errors.New("statefun: no registered function type")
	ErrTooManySends   = errors.New("statefun: too many sends in one invocation")
	ErrNotRunning     = errors.New("statefun: app not running")
	ErrOtherPartition = errors.New("statefun: function instance on another partition")
)

// MaxSends bounds function fan-out per consumed message; the deterministic
// idempotence scheme reserves this many sequence numbers per input record.
// Wider fan-outs are not a runtime feature but a choreography pattern:
// send up to MaxSends-1 messages, reserve the last slot for a SendSelf
// continuation, and resume from the continuation's own invocation. Each
// continuation round is driven by its own consumed record (a fresh offset
// on the app's topic), so the per-record sequence space
// origin.Offset*MaxSends+sends stays collision-free across rounds — no
// extension of the idempotence scheme is needed, only the reserved slot.
const MaxSends = 32

// Ref addresses a function instance.
type Ref struct {
	Type string `json:"t"`
	ID   string `json:"i"`
}

func (r Ref) String() string { return r.Type + "/" + r.ID }

// envelope is a record on the app's topic: the addressee, the sender
// (zero for an external message) and the payload.
type envelope struct {
	To, From Ref
	Payload  []byte
}

// encode frames e: To.Type, To.ID, From.Type and From.ID, each a uvarint
// length and its bytes, then the payload, which runs to the end.
func (e envelope) encode() []byte {
	b := make([]byte, 0, 4*binary.MaxVarintLen64+len(e.To.Type)+len(e.To.ID)+len(e.From.Type)+len(e.From.ID)+len(e.Payload))
	for _, s := range [...]string{e.To.Type, e.To.ID, e.From.Type, e.From.ID} {
		b = append(binary.AppendUvarint(b, uint64(len(s))), s...)
	}
	return append(b, e.Payload...)
}

// decodeEnvelope parses a frame; the payload is a sub-slice of b.
func decodeEnvelope(b []byte) (envelope, bool) {
	var addr [4]string
	for i := range addr {
		n, k := binary.Uvarint(b)
		if k <= 0 || n > uint64(len(b)-k) {
			return envelope{}, false
		}
		addr[i], b = string(b[k:k+int(n)]), b[k+int(n):]
	}
	return envelope{To: Ref{addr[0], addr[1]}, From: Ref{addr[2], addr[3]}, Payload: b}, true
}

// Handler is the body of a stateful function.
type Handler func(ctx *Ctx, payload []byte) error

// Scope is the scoped state of one function instance: its keys, prefixed
// with the instance's address, within its partition's keyed state.
type Scope struct {
	state dataflow.State
	ref   Ref
}

func scopeOf(state dataflow.State, ref Ref) Scope { return Scope{state, ref} }

// key prefixes k with the instance's address and a NUL, in one allocation.
func (s Scope) key(k string) string { return s.ref.Type + "/" + s.ref.ID + "\x00" + k }

// Get reads a key of the scoped state.
func (s Scope) Get(key string) ([]byte, bool) { return s.state.Get(s.key(key)) }

// Set writes a key of the scoped state. The update is covered by the job's
// checkpoints: state and message progress commit together.
func (s Scope) Set(key string, value []byte) { s.state.Put(s.key(key), value) }

// Del removes a key of the scoped state.
func (s Scope) Del(key string) { s.state.Delete(s.key(key)) }

// Ctx is the per-invocation context of a function.
type Ctx struct {
	// Self is the function instance being invoked.
	Self Ref
	// Caller is the sending function (zero for ingress messages).
	Caller Ref

	app    *App
	op     *dataflow.OpCtx
	origin dataflow.Record
	sends  int
}

// Get reads a key of the function's scoped state.
func (c *Ctx) Get(key string) ([]byte, bool) { return scopeOf(c.op.State(), c.Self).Get(key) }

// Set writes a key of the function's scoped state.
func (c *Ctx) Set(key string, value []byte) { scopeOf(c.op.State(), c.Self).Set(key, value) }

// Del removes a key of the function's scoped state.
func (c *Ctx) Del(key string) { scopeOf(c.op.State(), c.Self).Del(key) }

// StateOf returns the scoped state of another function instance on the
// invocation's own partition, or ErrOtherPartition. The partition's
// goroutine owns every instance on it, so reads and writes through the
// Scope are as atomic and as checkpoint-consistent as the invocation's own
// Get and Set: one invocation may serve a whole partition's instances
// without a message each.
func (c *Ctx) StateOf(ref Ref) (Scope, error) {
	if c.app.PartitionOf(ref) != c.origin.Partition {
		return Scope{}, fmt.Errorf("%w: %s", ErrOtherPartition, ref)
	}
	return scopeOf(c.op.State(), ref), nil
}

// Send delivers a message to another function, exactly once even across
// crash-replay (deterministic idempotent produce).
func (c *Ctx) Send(to Ref, payload []byte) error {
	if c.sends >= MaxSends {
		return fmt.Errorf("%w: > %d", ErrTooManySends, MaxSends)
	}
	data := envelope{To: to, From: c.Self, Payload: payload}.encode()
	seq := c.origin.Offset*MaxSends + int64(c.sends)
	c.sends++
	_, err := c.app.broker.ProduceIdempotent(c.app.cfg.Ingress, to.String(), data, c.app.producers[c.origin.Partition], seq)
	return err
}

// SendSelf delivers a message to the invoked instance itself — the
// continuation primitive for multi-round choreographies. The message is
// keyed like any other send, so it lands on the same partition and sees
// the same scoped state, and it is exactly-once like any other send: a
// crash between rounds replays the round that produced the continuation,
// and the broker dedups the re-produce.
func (c *Ctx) SendSelf(payload []byte) error { return c.Send(c.Self, payload) }

// SendsRemaining returns how many sends this invocation may still make
// before Send returns ErrTooManySends. Choreographies that fan out wider
// than the budget chunk on it: send SendsRemaining()-1 messages, then one
// SendSelf continuation to claim a fresh budget.
func (c *Ctx) SendsRemaining() int { return MaxSends - c.sends }

// SendEgress emits a record to the app's egress. With an egress topic the
// delivery is exactly-once (committed at checkpoints); with a callback it
// is at-least-once.
func (c *Ctx) SendEgress(key string, value []byte) {
	c.op.Emit(key, value)
}

// Config describes a statefun application.
type Config struct {
	// Name identifies the app (it names the job and its producers).
	Name string
	// Parallelism is the number of partitions/instances. Zero means 4.
	Parallelism int
	// Ingress is the app's one topic (created if needed): the job reads
	// it, SendToIngress appends external messages to it, and every Send
	// appends to it.
	Ingress string
	// Egress is the exactly-once output topic ("" = use OnEgress).
	Egress string
	// OnEgress is the at-least-once callback sink used when Egress is "".
	// It runs on the goroutine of the partition that emitted the record:
	// calls for records one function instance emits come in order, and
	// calls from different partitions may overlap.
	OnEgress func(key string, value []byte)
}

// App is a stateful-functions application.
type App struct {
	cfg       Config
	broker    *mq.Broker
	job       *dataflow.Job
	producers []string // producers[p]: the producer id of sends on partition p

	mu      sync.RWMutex
	fns     map[string]Handler
	running bool
}

// NewApp creates an application over the broker.
func NewApp(broker *mq.Broker, cfg Config) *App {
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = 4
	}
	a := &App{cfg: cfg, broker: broker, fns: make(map[string]Handler)}
	for p := 0; p < cfg.Parallelism; p++ {
		a.producers = append(a.producers, fmt.Sprintf("%s-fn-p%d", cfg.Name, p))
	}
	broker.CreateTopic(cfg.Ingress, cfg.Parallelism)
	if cfg.Egress != "" {
		broker.CreateTopic(cfg.Egress, cfg.Parallelism)
	}
	return a
}

// PartitionOf returns the partition, and so the instance goroutine, that
// owns the function instance ref.
func (a *App) PartitionOf(ref Ref) int {
	return mq.PartitionForKey(ref.String(), a.cfg.Parallelism)
}

// Register binds a function type to its handler.
func (a *App) Register(fnType string, h Handler) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.fns[fnType] = h
}

// Job exposes the underlying dataflow job (checkpoint control, metrics).
func (a *App) Job() *dataflow.Job { return a.job }

// Start builds and launches the dataflow job.
func (a *App) Start() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.running {
		return dataflow.ErrRunning
	}
	if a.job == nil {
		j := dataflow.NewJob(a.broker, dataflow.Config{Name: a.cfg.Name}).
			Source(a.cfg.Ingress).
			Stage("functions", a.cfg.Parallelism, a.dispatch)
		switch {
		case a.cfg.Egress != "":
			j.SinkTo(a.cfg.Egress)
		case a.cfg.OnEgress != nil:
			j.Sink(func(r dataflow.Record) { a.cfg.OnEgress(r.Key, r.Value) })
		default:
			j.Sink(func(dataflow.Record) {})
		}
		a.job = j
	}
	if err := a.job.Start(); err != nil {
		return err
	}
	a.running = true
	return nil
}

// dispatch decodes an envelope and invokes the target function.
func (a *App) dispatch(op *dataflow.OpCtx, rec dataflow.Record) {
	env, ok := decodeEnvelope(rec.Value)
	if !ok {
		return // poison message: drop (a DLQ is application policy)
	}
	a.mu.RLock()
	h, ok := a.fns[env.To.Type]
	a.mu.RUnlock()
	if !ok {
		return
	}
	ctx := &Ctx{Self: env.To, Caller: env.From, app: a, op: op, origin: rec}
	_ = h(ctx, env.Payload) // handler errors are the function's own policy
}

// SendToIngress enqueues an external message for a function.
func (a *App) SendToIngress(to Ref, payload []byte) error {
	p := a.broker.NewProducer("")
	_, _, err := p.Send(a.cfg.Ingress, to.String(), envelope{To: to, Payload: payload}.encode())
	return err
}

// WaitIdle blocks until every message on the app's topic, external or
// sent, has been processed.
func (a *App) WaitIdle(timeout time.Duration) error {
	a.mu.RLock()
	job := a.job
	a.mu.RUnlock()
	if job == nil {
		return nil
	}
	return job.WaitIdle(timeout)
}

// TriggerCheckpoint checkpoints the app (state + progress + egress commit).
// It releases a.mu before the job checkpoints: dispatch read-locks a.mu
// for every record, and a writer queued behind a held read lock (Register,
// Stop) would block the instances the checkpoint waits on.
func (a *App) TriggerCheckpoint() (uint64, error) {
	a.mu.RLock()
	running, job := a.running, a.job
	a.mu.RUnlock()
	if !running {
		return 0, ErrNotRunning
	}
	return job.TriggerCheckpoint()
}

// Crash simulates a process failure of the whole app.
func (a *App) Crash() {
	if job := a.prepareShutdown(); job != nil {
		job.Crash()
	}
}

// Recover restarts from the last completed checkpoint.
func (a *App) Recover() error { return a.Start() }

// Stop halts the app gracefully.
func (a *App) Stop() {
	if job := a.prepareShutdown(); job != nil {
		job.Stop()
	}
}

// prepareShutdown flips the running flag and returns the job to halt, so
// the caller halts it without holding a.mu, which dispatch (running
// inside the job's instance goroutines) also acquires.
func (a *App) prepareShutdown() *dataflow.Job {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.running {
		return nil
	}
	a.running = false
	return a.job
}
