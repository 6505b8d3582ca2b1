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
// Architecture: an app has one topic, Config.Ingress, and one instance
// goroutine per partition of it. Instance i fetches partition i, dispatches
// each message to its function and hands what the function emits to the
// egress, all inline; at the end of its partition it parks on the broker's
// append wakeup instead of polling. External messages and
// function-to-function sends land on the same topic as envelope frames:
// the addressee's and sender's type and id, then the payload as is, to the
// end of the record; a record that is not a frame is dropped. Sends carry
// deterministic idempotent-producer sequence numbers derived from the
// consumed record's coordinates, so crash-replay re-sends are deduplicated
// by the broker — exactly-once function messaging without any application
// code. The goroutine that owns a partition owns every function instance
// on it, so an invocation may also reach the scoped state of another
// instance on its own partition (Ctx.StateOf), as atomically and as
// checkpoint-consistently as its own.
//
// Fault tolerance follows §4.1:
//
//   - Checkpoints: each instance reports, at a record boundary, its next
//     offset, a copy of its partition's state and the egress it buffered
//     for the egress topic. No barriers are needed: the instances share no
//     channel but broker partitions, which replay from the saved offsets,
//     so any per-partition cut is consistent, because every send is
//     idempotent, keyed on the record it consumed.
//   - Recovery: on failure the whole app rolls back to the last completed
//     checkpoint (state snapshots + offsets) and replays the log. An
//     external message is appended once, and like every record it replays
//     against the checkpointed state, so its effects apply exactly once.
//
// Together with the log this yields exactly-once *state* semantics (§4.2):
// every message's effect on function state is applied exactly once,
// because replayed records re-execute against rolled-back state. Egress is
// exactly-once only through the egress topic (Config.Egress), which stages
// each epoch's records in a broker transaction committed when the
// checkpoint completes; the OnEgress callback is at-least-once across
// failures — precisely the distinction the paper draws between
// exactly-once processing and end-to-end guarantees.
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
	"sync/atomic"
	"time"

	"tca/internal/metrics"
	"tca/internal/mq"
)

// Common runtime errors.
var (
	ErrTooManySends   = errors.New("statefun: too many sends in one invocation")
	ErrRunning        = errors.New("statefun: app already running")
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
// offset*MaxSends+sends stays collision-free across rounds — no extension
// of the idempotence scheme is needed, only the reserved slot.
const MaxSends = 32

// pollBatch is the most records one fetch hands an instance.
const pollBatch = 128

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
// with the instance's address, within its partition's state.
type Scope struct {
	state map[string][]byte
	ref   Ref
}

// key prefixes k with the instance's address and a NUL, in one allocation.
func (s Scope) key(k string) string { return s.ref.Type + "/" + s.ref.ID + "\x00" + k }

// Get reads a key of the scoped state.
func (s Scope) Get(key string) ([]byte, bool) {
	v, ok := s.state[s.key(key)]
	return v, ok
}

// Set writes a copy of value to a key of the scoped state. The update is
// covered by the app's checkpoints: state and message progress commit
// together.
func (s Scope) Set(key string, value []byte) { s.state[s.key(key)] = append([]byte(nil), value...) }

// Del removes a key of the scoped state.
func (s Scope) Del(key string) { delete(s.state, s.key(key)) }

// Ctx is the per-invocation context of a function.
type Ctx struct {
	// Self is the function instance being invoked.
	Self Ref
	// Caller is the sending function (zero for ingress messages).
	Caller Ref

	inst   *instance
	offset int64 // of the consumed record
	sends  int
}

func (c *Ctx) scope() Scope { return Scope{c.inst.state, c.Self} }

// Get reads a key of the function's scoped state.
func (c *Ctx) Get(key string) ([]byte, bool) { return c.scope().Get(key) }

// Set writes a key of the function's scoped state.
func (c *Ctx) Set(key string, value []byte) { c.scope().Set(key, value) }

// Del removes a key of the function's scoped state.
func (c *Ctx) Del(key string) { c.scope().Del(key) }

// StateOf returns the scoped state of another function instance on the
// invocation's own partition, or ErrOtherPartition. The partition's
// goroutine owns every instance on it, so reads and writes through the
// Scope are as atomic and as checkpoint-consistent as the invocation's own
// Get and Set: one invocation may serve a whole partition's instances
// without a message each.
func (c *Ctx) StateOf(ref Ref) (Scope, error) {
	if c.inst.app.PartitionOf(ref) != c.inst.tp.Partition {
		return Scope{}, fmt.Errorf("%w: %s", ErrOtherPartition, ref)
	}
	return Scope{c.inst.state, ref}, nil
}

// Send delivers a message to another function, exactly once even across
// crash-replay (deterministic idempotent produce).
func (c *Ctx) Send(to Ref, payload []byte) error {
	if c.sends >= MaxSends {
		return fmt.Errorf("%w: > %d", ErrTooManySends, MaxSends)
	}
	data := envelope{To: to, From: c.Self, Payload: payload}.encode()
	seq := c.offset*MaxSends + int64(c.sends)
	c.sends++
	_, err := c.inst.app.broker.ProduceIdempotent(c.inst.tp.Topic, to.String(), data, c.inst.producer, seq)
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
	i := c.inst
	switch {
	case i.app.cfg.Egress != "":
		i.out = append(i.out, mq.Message{Key: key, Value: value})
	case i.app.cfg.OnEgress != nil:
		i.app.cfg.OnEgress(key, value)
	}
	i.app.sinkRecords.Inc()
}

// Config describes a statefun application.
type Config struct {
	// Name identifies the app (it names its producers).
	Name string
	// Parallelism is the number of partitions/instances. Zero means 4.
	Parallelism int
	// Ingress is the app's one topic (created if needed): the app reads
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

// App is a stateful-functions application, and the job that runs it.
type App struct {
	cfg    Config
	broker *mq.Broker

	m                  *metrics.Registry
	sinkRecords, parks *metrics.Counter

	fnMu sync.RWMutex
	fns  map[string]Handler

	// mu orders the lifecycle: it is held across a whole halt, so a Start
	// never overlaps a dying incarnation. The instances never take it.
	mu     sync.Mutex
	live   *incarnation // nil when stopped
	parked broadcast    // signalled by each park and each halt
	epochs atomic.Uint64

	// latest is the last completed checkpoint, one cut per partition. It
	// survives Crash: it models the external durable storage (S3 / DFS)
	// checkpoints are written to (§3.3 Dataflows).
	latest atomic.Pointer[[]cut]
}

// NewApp creates an application over the broker.
func NewApp(broker *mq.Broker, cfg Config) *App {
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = 4
	}
	m := metrics.NewRegistry()
	a := &App{
		cfg: cfg, broker: broker, fns: make(map[string]Handler),
		m: m, sinkRecords: m.Counter("dataflow.sink_records"), parks: m.Counter("dataflow.idle_parks"),
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
	a.fnMu.Lock()
	defer a.fnMu.Unlock()
	a.fns[fnType] = h
}

// Job returns the app itself: the app is its own dataflow job.
func (a *App) Job() *App { return a }

// Metrics exposes the app's instruments: dataflow.sink_records,
// dataflow.idle_parks (an idle app parks once per partition),
// dataflow.checkpoints and dataflow.crashes.
func (a *App) Metrics() *metrics.Registry { return a.m }

// Start launches the app from the latest completed checkpoint (or from the
// beginning when none exists).
func (a *App) Start() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.live != nil {
		return ErrRunning
	}
	// The topic may predate the app; PartitionOf must name its partitions.
	if n, _ := a.broker.Partitions(a.cfg.Ingress); n != a.cfg.Parallelism {
		return fmt.Errorf("statefun: ingress %q has %d partitions, want %d", a.cfg.Ingress, n, a.cfg.Parallelism)
	}
	inc := &incarnation{stop: make(chan struct{})}
	var ck []cut
	if p := a.latest.Load(); p != nil {
		ck = *p
	}
	for p := 0; p < a.cfg.Parallelism; p++ {
		inst := &instance{
			app:      a,
			tp:       mq.TopicPartition{Topic: a.cfg.Ingress, Partition: p},
			producer: fmt.Sprintf("%s-fn-p%d", a.cfg.Name, p),
			state:    map[string][]byte{},
			cuts:     make(chan chan cut),
		}
		if ck != nil {
			inst.pos.Store(ck[p].offset)
			inst.state = clone(ck[p].state)
		}
		inc.insts = append(inc.insts, inst)
		inc.wg.Add(1)
		go inst.run(inc)
	}
	a.live = inc
	return nil
}

// Stop halts the app gracefully (no state loss; a later Start resumes from
// the last checkpoint, so un-checkpointed work is re-done).
func (a *App) Stop() { a.halt() }

// Crash simulates a process failure of the whole app: execution halts and
// all in-memory state is discarded. Only checkpoints survive.
func (a *App) Crash() {
	if a.halt() {
		a.m.Counter("dataflow.crashes").Inc()
	}
}

// Recover restarts from the last completed checkpoint.
func (a *App) Recover() error { return a.Start() }

// halt stops the live incarnation, if any, and reports whether one ran.
func (a *App) halt() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.live == nil {
		return false
	}
	close(a.live.stop)
	a.live.wg.Wait()
	a.live = nil
	a.parked.signal()
	return true
}

// running returns the live incarnation, or nil.
func (a *App) running() *incarnation {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.live
}

// dispatch decodes an envelope and invokes the target function.
func (a *App) dispatch(i *instance, m mq.Message) {
	env, ok := decodeEnvelope(m.Value)
	if !ok {
		return // poison message: drop (a DLQ is application policy)
	}
	a.fnMu.RLock()
	h, ok := a.fns[env.To.Type]
	a.fnMu.RUnlock()
	if !ok {
		return
	}
	_ = h(&Ctx{Self: env.To, Caller: env.From, inst: i, offset: m.Offset}, env.Payload) // handler errors are the function's own policy
}

// SendToIngress enqueues an external message for a function on the
// partition PartitionOf names.
func (a *App) SendToIngress(to Ref, payload []byte) error {
	key := to.String()
	tp := mq.TopicPartition{Topic: a.cfg.Ingress, Partition: mq.PartitionForKey(key, a.cfg.Parallelism)}
	_, err := a.broker.Produce(tp, key, envelope{To: to, Payload: payload}.encode())
	return err
}

// lag returns the records on the app's topic not yet processed — zero
// means the app is quiescent.
func (a *App) lag() int64 {
	if inc := a.running(); inc != nil {
		return inc.lag(a.broker)
	}
	return 0
}

// WaitIdle blocks until every message on the app's topic, external or
// sent, has been processed, or the timeout elapses. It takes the park
// signal before it reads the lag: an instance with records left signals
// when it next parks, so no wakeup is lost in between.
func (a *App) WaitIdle(timeout time.Duration) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		parked := a.parked.wait()
		if a.lag() == 0 {
			return nil
		}
		select {
		case <-parked:
		case <-deadline.C:
			return fmt.Errorf("statefun: not idle after %v (lag %d)", timeout, a.lag())
		}
	}
}

// TriggerCheckpoint takes the next checkpoint epoch and blocks until it
// completes (every instance's cut taken, egress topic committed). It
// returns the epoch.
func (a *App) TriggerCheckpoint() (uint64, error) {
	inc := a.running()
	if inc == nil {
		return 0, ErrNotRunning
	}
	epoch := a.epochs.Add(1)
	if err := a.checkpoint(inc, epoch); err != nil {
		return 0, err
	}
	a.m.Counter("dataflow.checkpoints").Inc()
	return epoch, nil
}

// checkpoint asks every instance for its cut, commits the egress topic's
// records in one broker transaction, and saves the checkpoint. The
// instances are asked one after another, each answering between two
// records; see the package doc for why that is a consistent cut.
//
// Ordering note: the egress transaction commits before the checkpoint is
// saved. A crash between the two replays the epoch and can duplicate
// *egress* (state stays exactly-once); production engines close this
// window with resumable transaction handles, which the broker stand-in
// does not model. The window is nanoseconds wide here and irrelevant to
// the experiments, but it is the honest place to say so.
func (a *App) checkpoint(inc *incarnation, epoch uint64) error {
	inc.ckptMu.Lock()
	defer inc.ckptMu.Unlock()
	ck := make([]cut, len(inc.insts))
	var out []mq.Message
	timeout := time.After(10 * time.Second)
	for p, inst := range inc.insts {
		reply := make(chan cut, 1) // the instance never blocks answering
		select {
		case inst.cuts <- reply:
			ck[p] = <-reply
		case <-inc.stop:
			return ErrNotRunning
		case <-timeout:
			return fmt.Errorf("statefun: checkpoint %d timed out (%d/%d instances)", epoch, p, len(inc.insts))
		}
		out = append(out, ck[p].out...)
		ck[p].out = nil
	}
	if err := a.commitEgress(epoch, out); err != nil {
		return fmt.Errorf("statefun: egress commit for epoch %d: %w", epoch, err)
	}
	a.latest.Store(&ck)
	return nil
}

// commitEgress publishes an epoch's egress records atomically via a
// transactional producer.
func (a *App) commitEgress(epoch uint64, recs []mq.Message) error {
	if len(recs) == 0 {
		return nil
	}
	p := a.broker.NewTransactionalProducer(fmt.Sprintf("%s-sink-%d", a.cfg.Name, epoch))
	if err := p.Begin(); err != nil {
		return err
	}
	for _, r := range recs {
		if _, _, err := p.Send(a.cfg.Egress, r.Key, r.Value); err != nil {
			p.Abort()
			return err
		}
	}
	return p.Commit()
}

// incarnation is one live run of the app, from Start to its halt.
type incarnation struct {
	stop   chan struct{}
	wg     sync.WaitGroup
	insts  []*instance
	ckptMu sync.Mutex
}

// lag sums the records each instance has yet to process. It reads every
// position before any high-water mark: a total of zero then means that at
// one instant between the two passes every partition was fully processed,
// and, since an instance stores its position only after a record's sends
// are in the broker, that no record was mid-flight.
func (inc *incarnation) lag(b *mq.Broker) int64 {
	pos := make([]int64, len(inc.insts))
	for p, inst := range inc.insts {
		pos[p] = inst.pos.Load()
	}
	var lag int64
	for p, inst := range inc.insts {
		if hw, err := b.HighWater(inst.tp); err == nil {
			lag += hw - pos[p]
		}
	}
	return lag
}

// instance runs the functions of one partition of the app's topic.
type instance struct {
	app      *App
	tp       mq.TopicPartition
	producer string       // the producer id of sends from this partition
	pos      atomic.Int64 // next offset to process; stored after each record
	state    map[string][]byte
	// out is the egress topic's records since the last checkpoint.
	out []mq.Message
	// cuts carries checkpoint requests; the instance answers each on the
	// channel it receives, between two records.
	cuts chan chan cut
}

// cut is one instance's part of a checkpoint.
type cut struct {
	offset int64
	state  map[string][]byte
	out    []mq.Message
}

// clone deep-copies a partition's state: a checkpoint shares no value
// with a live instance.
func clone(state map[string][]byte) map[string][]byte {
	out := make(map[string][]byte, len(state))
	for k, v := range state {
		out[k] = append([]byte(nil), v...)
	}
	return out
}

// run fetches the partition and dispatches each record. Between batches
// it serves a pending stop or checkpoint request (select picks it or the
// next batch at random). After an empty fetch it signals WaitIdle and
// parks on the broker's append wakeup; dataflow.idle_parks counts the
// parks.
func (i *instance) run(inc *incarnation) {
	defer inc.wg.Done()
	a := i.app
	for {
		pos := i.pos.Load()
		// Start checked the partition, so Fetch and Grown cannot fail.
		msgs, _ := a.broker.Fetch(i.tp, pos, pollBatch)
		for _, m := range msgs {
			a.dispatch(i, m)
			i.pos.Store(m.Offset + 1)
		}
		wake := ready
		if len(msgs) == 0 {
			wake, _ = a.broker.Grown(i.tp, pos)
			a.parks.Inc()
			a.parked.signal()
		}
		select {
		case <-inc.stop:
			return
		case reply := <-i.cuts:
			reply <- cut{offset: i.pos.Load(), state: clone(i.state), out: i.out}
			i.out = nil
		case <-wake:
		}
	}
}

// ready is closed: after a non-empty batch run does not wait.
var ready = func() <-chan struct{} { c := make(chan struct{}); close(c); return c }()

// broadcast wakes all its waiters at once: signal closes the channel that
// wait made, if any. A signal with no waiter costs one lock.
type broadcast struct {
	mu sync.Mutex
	ch chan struct{}
}

func (b *broadcast) wait() <-chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.ch == nil {
		b.ch = make(chan struct{})
	}
	return b.ch
}

func (b *broadcast) signal() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.ch != nil {
		close(b.ch)
		b.ch = nil
	}
}
