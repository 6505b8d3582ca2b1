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
// Architecture: one dataflow job over an internal message topic, whose
// single keyed operator dispatches each message to its function on the
// goroutine that owns the message's partition. An ingress relay copies
// external messages into the internal topic with a broker transaction
// (exactly-once). Function-to-function sends append to the internal topic
// with deterministic idempotent-producer sequence numbers derived from the
// consumed record's coordinates, so crash-replay re-sends are deduplicated
// by the broker — exactly-once function messaging without any application
// code. Sends are also why a checkpoint needs no barriers: the partitions
// are the only channels between instances, and each instance's (offset,
// state) pair replays into the same sends.
//
// The missing transactional isolation across functions is not a bug: it is
// the exact gap experiment E7 demonstrates, and the one internal/core
// closes.
package statefun

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"tca/internal/dataflow"
	"tca/internal/mq"
)

// Common runtime errors.
var (
	ErrNoFunction   = errors.New("statefun: no registered function type")
	ErrTooManySends = errors.New("statefun: too many sends in one invocation")
	ErrNotRunning   = errors.New("statefun: app not running")
)

// MaxSends bounds function fan-out per consumed message; the deterministic
// idempotence scheme reserves this many sequence numbers per input record.
// Wider fan-outs are not a runtime feature but a choreography pattern:
// send up to MaxSends-1 messages, reserve the last slot for a SendSelf
// continuation, and resume from the continuation's own invocation. Each
// continuation round is driven by its own consumed record (a fresh offset
// on the internal topic), so the per-record sequence space
// origin.Offset*MaxSends+sends stays collision-free across rounds — no
// extension of the idempotence scheme is needed, only the reserved slot.
const MaxSends = 32

// Ref addresses a function instance.
type Ref struct {
	Type string `json:"t"`
	ID   string `json:"i"`
}

func (r Ref) String() string { return r.Type + "/" + r.ID }

// envelope is the wire format on the internal topic.
type envelope struct {
	To      Ref    `json:"to"`
	From    Ref    `json:"from,omitempty"`
	Payload []byte `json:"p"`
}

// Handler is the body of a stateful function.
type Handler func(ctx *Ctx, payload []byte) error

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

// stateKey prefixes user keys with the function address, giving each
// (type, id) its own scoped namespace within the instance's keyed state.
func (c *Ctx) stateKey(key string) string { return c.Self.String() + "\x00" + key }

// Get reads a key of the function's scoped state.
func (c *Ctx) Get(key string) ([]byte, bool) {
	return c.op.State().Get(c.stateKey(key))
}

// Set writes a key of the function's scoped state. The update is covered by
// the job's checkpoints: state and message progress commit together.
func (c *Ctx) Set(key string, value []byte) {
	c.op.State().Put(c.stateKey(key), value)
}

// Del removes a key of the function's scoped state.
func (c *Ctx) Del(key string) {
	c.op.State().Delete(c.stateKey(key))
}

// Send delivers a message to another function, exactly once even across
// crash-replay (deterministic idempotent produce).
func (c *Ctx) Send(to Ref, payload []byte) error {
	if c.sends >= MaxSends {
		return fmt.Errorf("%w: > %d", ErrTooManySends, MaxSends)
	}
	env := envelope{To: to, From: c.Self, Payload: payload}
	data, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("statefun: marshal envelope: %w", err)
	}
	producerID := fmt.Sprintf("%s-fn-p%d", c.app.cfg.Name, c.origin.Partition)
	seq := c.origin.Offset*MaxSends + int64(c.sends)
	c.sends++
	_, err = c.app.broker.ProduceIdempotent(c.app.internalTopic(), to.String(), data, producerID, seq)
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
	// Name identifies the app (topics are derived from it).
	Name string
	// Parallelism is the number of partitions/instances. Zero means 4.
	Parallelism int
	// Ingress is the external input topic (created if needed).
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
	cfg    Config
	broker *mq.Broker
	job    *dataflow.Job

	mu      sync.RWMutex
	fns     map[string]Handler
	running bool

	relayStop chan struct{}
	relayWG   sync.WaitGroup
}

// NewApp creates an application over the broker.
func NewApp(broker *mq.Broker, cfg Config) *App {
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = 4
	}
	a := &App{cfg: cfg, broker: broker, fns: make(map[string]Handler)}
	broker.CreateTopic(cfg.Ingress, cfg.Parallelism)
	broker.CreateTopic(a.internalTopic(), cfg.Parallelism)
	if cfg.Egress != "" {
		broker.CreateTopic(cfg.Egress, cfg.Parallelism)
	}
	return a
}

func (a *App) internalTopic() string { return a.cfg.Name + "-internal" }

// Register binds a function type to its handler.
func (a *App) Register(fnType string, h Handler) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.fns[fnType] = h
}

// Job exposes the underlying dataflow job (checkpoint control, metrics).
func (a *App) Job() *dataflow.Job { return a.job }

// Start builds and launches the dataflow job and the ingress relay.
func (a *App) Start() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.running {
		return dataflow.ErrRunning
	}
	if a.job == nil {
		j := dataflow.NewJob(a.broker, dataflow.Config{Name: a.cfg.Name}).
			Source(a.internalTopic()).
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
	a.relayStop = make(chan struct{})
	a.relayWG.Add(1)
	go a.runRelay()
	a.running = true
	return nil
}

// dispatch decodes an envelope and invokes the target function.
func (a *App) dispatch(op *dataflow.OpCtx, rec dataflow.Record) {
	var env envelope
	if err := json.Unmarshal(rec.Value, &env); err != nil {
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

// runRelay pumps ingress into the internal topic with exactly-once
// consume-transform-produce.
func (a *App) runRelay() {
	defer a.relayWG.Done()
	group := a.cfg.Name + "-relay"
	consumer, err := a.broker.NewConsumer(group, mq.AtLeastOnce, a.cfg.Ingress)
	if err != nil {
		return
	}
	producer := a.broker.NewTransactionalProducer(group)
	for {
		select {
		case <-a.relayStop:
			return
		default:
		}
		msgs, err := consumer.Poll(64)
		if err != nil || len(msgs) == 0 {
			time.Sleep(100 * time.Microsecond)
			continue
		}
		if err := producer.Begin(); err != nil {
			return // fenced by a newer relay instance
		}
		for _, m := range msgs {
			producer.Send(a.internalTopic(), m.Key, m.Value)
		}
		producer.SendOffsets(group, consumer.PendingOffsets())
		if err := producer.Commit(); err != nil {
			return
		}
		consumer.ClearPending()
	}
}

// SendToIngress enqueues an external message for a function.
func (a *App) SendToIngress(to Ref, payload []byte) error {
	env := envelope{To: to, Payload: payload}
	data, err := json.Marshal(env)
	if err != nil {
		return err
	}
	p := a.broker.NewProducer("")
	_, _, err = p.Send(a.cfg.Ingress, to.String(), data)
	return err
}

// WaitIdle blocks until ingress, internal traffic, and in-flight records
// drain.
func (a *App) WaitIdle(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		idle := true
		// Ingress relay lag.
		for p := 0; p < a.cfg.Parallelism; p++ {
			tp := mq.TopicPartition{Topic: a.cfg.Ingress, Partition: p}
			hw, err := a.broker.HighWater(tp)
			if err == nil && hw > a.broker.CommittedOffset(a.cfg.Name+"-relay", tp) {
				idle = false
			}
		}
		if a.job != nil && a.job.Lag() != 0 {
			idle = false
		}
		if idle {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("statefun: not idle after %v", timeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
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

// Crash simulates a process failure of the whole app (job + relay).
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

// prepareShutdown stops the relay and flips the running flag, returning the
// job to halt — without holding a.mu, which dispatch (running inside the
// job's instance goroutines) also acquires.
func (a *App) prepareShutdown() *dataflow.Job {
	a.mu.Lock()
	if !a.running {
		a.mu.Unlock()
		return nil
	}
	a.running = false
	stop := a.relayStop
	job := a.job
	a.mu.Unlock()
	close(stop)
	a.relayWG.Wait()
	return job
}
