// Package dataflow implements the stateful dataflow programming model of
// §3.1 in the style of Apache Flink: one keyed, stateful operator fed by
// the partitions of a message-log topic. Instance i owns partition i: one
// goroutine fetches it, runs the operator on each record, and hands every
// emitted record to the sink, all inline; at the end of its partition it
// parks on the broker's append wakeup instead of polling. The engine
// provides the fault-tolerance design of §4.1:
//
//   - Checkpoints: each instance reports, at a record boundary, its next
//     source offset, a copy of its state and the output it buffered for
//     the topic sink. No barriers are needed: the instances share no
//     channel but broker partitions, which replay from the saved offsets,
//     so any per-partition cut is consistent, provided an operator that
//     writes to another partition does so idempotently keyed on the
//     record it consumed (as internal/statefun's sends are).
//   - Recovery: on failure the whole job rolls back to the last completed
//     checkpoint (state snapshots + source offsets) and replays the log.
//
// Together with the log-based sources this yields exactly-once *state*
// semantics (§4.2): every input record's effect on operator state is
// applied exactly once, because replayed records re-execute against
// rolled-back state. Output is exactly-once only through the transactional
// sink (SinkTo), which stages each epoch's output in a broker transaction
// committed when the checkpoint completes; the plain callback sink is
// at-least-once across failures — precisely the distinction the paper
// draws between exactly-once processing and end-to-end guarantees.
//
// The paper's other §4.2 observation — exactly-once processing does NOT
// give cross-key transactional isolation — is directly observable here and
// measured by experiment E7.
package dataflow

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tca/internal/metrics"
	"tca/internal/mq"
)

// Common engine errors.
var (
	ErrRunning     = errors.New("dataflow: job already running")
	ErrNotRunning  = errors.New("dataflow: job not running")
	ErrBadTopology = errors.New("dataflow: invalid topology")
)

// Record is one record read from the source or emitted by the operator.
type Record struct {
	Key   string
	Value []byte
	// Source coordinates (set on records read from the log).
	Topic     string
	Partition int
	Offset    int64
}

// State is the per-instance keyed state accessor. All access is
// single-threaded within an operator instance (the dataflow model's
// no-shared-state rule, §3.1).
type State interface {
	Get(key string) ([]byte, bool)
	Put(key string, value []byte)
	Delete(key string)
	// Len returns the number of live keys (used by checkpoint sizing).
	Len() int
}

// mapState is the in-memory state backend; snapshots deep-copy it.
type mapState struct {
	m map[string][]byte
}

func newMapState() *mapState { return &mapState{m: make(map[string][]byte)} }

func (s *mapState) Get(key string) ([]byte, bool) {
	v, ok := s.m[key]
	return v, ok
}
func (s *mapState) Put(key string, value []byte) {
	s.m[key] = append([]byte(nil), value...)
}
func (s *mapState) Delete(key string) { delete(s.m, key) }
func (s *mapState) Len() int          { return len(s.m) }

func (s *mapState) snapshot() map[string][]byte {
	out := make(map[string][]byte, len(s.m))
	for k, v := range s.m {
		out[k] = append([]byte(nil), v...)
	}
	return out
}

func (s *mapState) restore(snap map[string][]byte) {
	s.m = make(map[string][]byte, len(snap))
	for k, v := range snap {
		s.m[k] = append([]byte(nil), v...)
	}
}

// OpCtx is handed to process functions.
type OpCtx struct {
	state *mapState
	emit  func(Record)
}

// State returns the instance's keyed state.
func (c *OpCtx) State() State { return c.state }

// Emit hands a record to the sink.
func (c *OpCtx) Emit(key string, value []byte) {
	c.emit(Record{Key: key, Value: value})
}

// ProcessFunc is the operator body: it receives one record and may read or
// write state and emit records to the sink.
type ProcessFunc func(ctx *OpCtx, rec Record)

// stageSpec describes one operator stage.
type stageSpec struct {
	name        string
	parallelism int
	fn          ProcessFunc
}

// Config names a job.
type Config struct {
	// Name identifies the job (it names the sink's transactional producers).
	Name string
}

// Job is one dataflow topology plus its execution machinery.
type Job struct {
	cfg    Config
	broker *mq.Broker
	m      *metrics.Registry

	sourceTopic string
	stages      []stageSpec
	sinkTopic   string       // "" = callback sink
	sinkFn      func(Record) // may be nil

	mu     sync.Mutex
	rt     *runtime  // live execution; nil when stopped
	parked broadcast // signalled by each park and each halt

	// latest is the last completed checkpoint. It survives Crash: it
	// models the external durable storage (S3 / DFS) checkpoints are
	// written to (§3.3 Dataflows).
	latest   atomic.Pointer[checkpoint]
	epochSeq atomic.Uint64
}

// NewJob creates an empty job over the broker.
func NewJob(broker *mq.Broker, cfg Config) *Job {
	return &Job{cfg: cfg, broker: broker, m: metrics.NewRegistry()}
}

// Metrics exposes the job's instruments.
func (j *Job) Metrics() *metrics.Registry { return j.m }

// Source sets the input topic; partition i feeds operator instance i.
func (j *Job) Source(topic string) *Job {
	j.sourceTopic = topic
	return j
}

// Stage appends a keyed stateful operator stage. Start accepts exactly one
// stage, whose parallelism equals the source's partition count.
func (j *Job) Stage(name string, parallelism int, fn ProcessFunc) *Job {
	if parallelism <= 0 {
		parallelism = 1
	}
	j.stages = append(j.stages, stageSpec{name: name, parallelism: parallelism, fn: fn})
	return j
}

// SinkTo directs the operator's output to a topic with exactly-once semantics:
// each epoch's records are staged in a broker transaction that commits when
// the checkpoint completes. Output between checkpoints is invisible.
func (j *Job) SinkTo(topic string) *Job {
	j.sinkTopic = topic
	return j
}

// Sink installs a callback sink invoked as records are emitted
// (at-least-once across failures: replays after recovery re-deliver). The
// callback runs on the goroutine of the partition whose record emitted it:
// calls from one partition, and so for one source key, come in emit order;
// calls from different partitions may overlap.
func (j *Job) Sink(fn func(Record)) *Job {
	j.sinkFn = fn
	return j
}

// validate checks the topology against the source's partition count.
func (j *Job) validate(partitions int) error {
	switch {
	case j.sinkTopic == "" && j.sinkFn == nil:
		return fmt.Errorf("%w: no sink", ErrBadTopology)
	case len(j.stages) != 1:
		return fmt.Errorf("%w: %d stages, want 1", ErrBadTopology, len(j.stages))
	case j.stages[0].parallelism != partitions:
		return fmt.Errorf("%w: stage %q has parallelism %d, source has %d partitions",
			ErrBadTopology, j.stages[0].name, j.stages[0].parallelism, partitions)
	}
	return nil
}

// Start launches the job from the latest completed checkpoint (or from the
// beginning when none exists).
func (j *Job) Start() error {
	if j.sourceTopic == "" {
		return fmt.Errorf("%w: no source", ErrBadTopology)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.rt != nil {
		return ErrRunning
	}
	parts, err := j.broker.Partitions(j.sourceTopic)
	if err != nil {
		return err
	}
	if err := j.validate(parts); err != nil {
		return err
	}
	j.rt = newRuntime(j, parts, j.latest.Load())
	return nil
}

// Stop halts execution gracefully (no state loss; a later Start resumes
// from the last checkpoint, so un-checkpointed work is re-done).
func (j *Job) Stop() { j.halt() }

// Crash simulates a process failure: execution halts and all in-memory
// state is discarded. Only checkpoints survive.
func (j *Job) Crash() {
	if j.halt() {
		j.m.Counter("dataflow.crashes").Inc()
	}
}

// halt stops the live runtime, if any, and reports whether one ran.
func (j *Job) halt() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.rt == nil {
		return false
	}
	j.rt.halt()
	j.rt = nil
	j.parked.signal()
	return true
}

// Recover restarts after a crash from the last completed checkpoint.
func (j *Job) Recover() error {
	return j.Start()
}

// TriggerCheckpoint takes the next checkpoint epoch and blocks until it
// completes (all instances snapshotted, transactional sink committed).
// Returns the epoch id.
func (j *Job) TriggerCheckpoint() (uint64, error) {
	j.mu.Lock()
	rt := j.rt
	j.mu.Unlock()
	if rt == nil {
		return 0, ErrNotRunning
	}
	epoch := j.epochSeq.Add(1)
	if err := rt.checkpoint(epoch); err != nil {
		return 0, err
	}
	j.m.Counter("dataflow.checkpoints").Inc()
	return epoch, nil
}

// Lag returns the source records not yet processed — zero means the job
// is quiescent.
func (j *Job) Lag() int64 {
	j.mu.Lock()
	rt := j.rt
	j.mu.Unlock()
	if rt == nil {
		return 0
	}
	return rt.lag()
}

// WaitIdle blocks until the job is quiescent or the timeout elapses. It
// takes the park signal before it reads the lag: an instance with records
// left signals when it next parks, so no wakeup is lost in between.
func (j *Job) WaitIdle(timeout time.Duration) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		parked := j.parked.wait()
		if j.Lag() == 0 {
			return nil
		}
		select {
		case <-parked:
		case <-deadline.C:
			return fmt.Errorf("dataflow: not idle after %v (lag %d)", timeout, j.Lag())
		}
	}
}
