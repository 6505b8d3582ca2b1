// Package dataflow implements the stateful dataflow programming model of
// §3.1: an application is a chain of keyed, stateful operator stages fed by
// message-log partitions, in the style of Apache Flink. The engine provides
// the fault-tolerance design of §4.1:
//
//   - Coordinated checkpoints: Chandy-Lamport-style barriers flow from the
//     sources through every stage; an operator aligns barriers from all its
//     inputs, snapshots its state, and forwards the barrier.
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
	ErrRunning      = errors.New("dataflow: job already running")
	ErrNotRunning   = errors.New("dataflow: job not running")
	ErrNoCheckpoint = errors.New("dataflow: no completed checkpoint")
	ErrBadTopology  = errors.New("dataflow: invalid topology")
)

// Record is one data element flowing through the graph.
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
	// StageIndex / InstanceIndex identify the executing instance.
	StageIndex    int
	InstanceIndex int
}

// State returns the instance's keyed state.
func (c *OpCtx) State() State { return c.state }

// Emit sends a record to the next stage (or sink), routed by key hash.
func (c *OpCtx) Emit(key string, value []byte) {
	c.emit(Record{Key: key, Value: value})
}

// ProcessFunc is the operator body: it receives one record and may read or
// write state and emit downstream records.
type ProcessFunc func(ctx *OpCtx, rec Record)

// stageSpec describes one operator stage.
type stageSpec struct {
	name        string
	parallelism int
	fn          ProcessFunc
}

// Config tunes a job.
type Config struct {
	// Name identifies the job in metrics.
	Name string
	// PollBatch is the source fetch size. Zero means 128.
	PollBatch int
	// ChannelDepth bounds inter-instance channels. Zero means 256.
	ChannelDepth int
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
	sinkAtEpoch bool         // deliver collector records on epoch commit

	mu      sync.Mutex
	running bool
	rt      *runtime // live execution; nil when stopped
	ckptmgr *checkpointStore

	inflight atomic.Int64 // records currently inside the graph
	epochSeq atomic.Uint64
}

// NewJob creates an empty job over the broker.
func NewJob(broker *mq.Broker, cfg Config) *Job {
	if cfg.PollBatch <= 0 {
		cfg.PollBatch = 128
	}
	if cfg.ChannelDepth <= 0 {
		cfg.ChannelDepth = 256
	}
	return &Job{
		cfg:     cfg,
		broker:  broker,
		m:       metrics.NewRegistry(),
		ckptmgr: newCheckpointStore(),
	}
}

// Metrics exposes the job's instruments.
func (j *Job) Metrics() *metrics.Registry { return j.m }

// Source sets the input topic; every partition becomes one source instance.
func (j *Job) Source(topic string) *Job {
	j.sourceTopic = topic
	return j
}

// Stage appends a keyed stateful operator stage.
func (j *Job) Stage(name string, parallelism int, fn ProcessFunc) *Job {
	if parallelism <= 0 {
		parallelism = 1
	}
	j.stages = append(j.stages, stageSpec{name: name, parallelism: parallelism, fn: fn})
	return j
}

// SinkTo directs final-stage output to a topic with exactly-once semantics:
// each epoch's records are staged in a broker transaction that commits when
// the checkpoint completes. Output between checkpoints is invisible.
func (j *Job) SinkTo(topic string) *Job {
	j.sinkTopic = topic
	return j
}

// Sink installs a callback sink invoked as records arrive (at-least-once
// across failures: replays after recovery re-deliver).
func (j *Job) Sink(fn func(Record)) *Job {
	j.sinkFn = fn
	return j
}

// validate checks the topology.
func (j *Job) validate() error {
	if j.sourceTopic == "" {
		return fmt.Errorf("%w: no source", ErrBadTopology)
	}
	if len(j.stages) == 0 {
		return fmt.Errorf("%w: no stages", ErrBadTopology)
	}
	if j.sinkTopic == "" && j.sinkFn == nil {
		return fmt.Errorf("%w: no sink", ErrBadTopology)
	}
	return nil
}

// Start launches the job from the latest completed checkpoint (or from the
// beginning when none exists).
func (j *Job) Start() error {
	if err := j.validate(); err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.running {
		return ErrRunning
	}
	parts, err := j.broker.Partitions(j.sourceTopic)
	if err != nil {
		return err
	}
	ck := j.ckptmgr.latest()
	rt, err := newRuntime(j, parts, ck)
	if err != nil {
		return err
	}
	j.rt = rt
	j.running = true
	rt.start()
	return nil
}

// Stop halts execution gracefully (no state loss; a later Start resumes
// from the last checkpoint, so un-checkpointed work is re-done).
func (j *Job) Stop() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.running {
		return
	}
	j.rt.halt()
	j.rt = nil
	j.running = false
}

// Crash simulates a process failure: execution halts, all in-memory state
// and in-flight records are discarded. Only checkpoints survive.
func (j *Job) Crash() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.running {
		return
	}
	j.rt.halt()
	j.rt = nil
	j.running = false
	j.inflight.Store(0)
	j.m.Counter("dataflow.crashes").Inc()
}

// Recover restarts after a crash from the last completed checkpoint.
func (j *Job) Recover() error {
	return j.Start()
}

// TriggerCheckpoint starts checkpoint epoch n and blocks until it completes
// (all instances snapshotted, transactional sink committed). Returns the
// epoch id.
func (j *Job) TriggerCheckpoint() (uint64, error) {
	j.mu.Lock()
	rt := j.rt
	j.mu.Unlock()
	if rt == nil {
		return 0, ErrNotRunning
	}
	epoch := j.epochSeq.Add(1)
	if err := rt.runCheckpoint(epoch); err != nil {
		return 0, err
	}
	j.m.Counter("dataflow.checkpoints").Inc()
	return epoch, nil
}

// Lag returns unprocessed source records plus in-flight records — zero
// means the job is quiescent.
func (j *Job) Lag() int64 {
	j.mu.Lock()
	rt := j.rt
	j.mu.Unlock()
	if rt == nil {
		return 0
	}
	return rt.sourceLag() + j.inflight.Load()
}

// WaitIdle blocks until the job is quiescent or the timeout elapses.
func (j *Job) WaitIdle(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if j.Lag() == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("dataflow: not idle after %v (lag %d)", timeout, j.Lag())
		}
		time.Sleep(200 * time.Microsecond)
	}
}
