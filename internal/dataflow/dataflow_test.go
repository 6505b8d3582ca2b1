package dataflow

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tca/internal/mq"
)

func i64(v int64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(v))
	return b
}

func toI64(b []byte) int64 { return int64(binary.LittleEndian.Uint64(b)) }

// counterStage accumulates a per-key sum of the incoming values and emits
// the running total.
func counterStage(ctx *OpCtx, rec Record) {
	var cur int64
	if b, ok := ctx.State().Get(rec.Key); ok {
		cur = toI64(b)
	}
	cur += toI64(rec.Value)
	ctx.State().Put(rec.Key, i64(cur))
	ctx.Emit(rec.Key, i64(cur))
}

func produce(t *testing.T, b *mq.Broker, topic, key string, v int64) {
	t.Helper()
	if _, _, err := b.NewProducer("").Send(topic, key, i64(v)); err != nil {
		t.Fatal(err)
	}
}

func waitIdle(t *testing.T, j *Job) {
	t.Helper()
	if err := j.WaitIdle(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestTopologyValidation(t *testing.T) {
	b := mq.NewBroker()
	b.CreateTopic("in", 1)
	if err := NewJob(b, Config{}).Start(); !errors.Is(err, ErrBadTopology) {
		t.Fatalf("empty job Start = %v, want ErrBadTopology", err)
	}
	j := NewJob(b, Config{}).Source("in").Stage("s", 1, counterStage)
	if err := j.Start(); !errors.Is(err, ErrBadTopology) {
		t.Fatalf("job without sink Start = %v, want ErrBadTopology", err)
	}
	j = NewJob(b, Config{}).Source("in").Stage("s", 1, counterStage).
		Stage("t", 1, counterStage).Sink(func(Record) {})
	if err := j.Start(); !errors.Is(err, ErrBadTopology) {
		t.Fatalf("two-stage job Start = %v, want ErrBadTopology", err)
	}
	j = NewJob(b, Config{}).Source("in").Stage("s", 2, counterStage).Sink(func(Record) {})
	if err := j.Start(); !errors.Is(err, ErrBadTopology) {
		t.Fatalf("parallelism 2 on 1 partition Start = %v, want ErrBadTopology", err)
	}
}

func TestSingleStageProcessing(t *testing.T) {
	b := mq.NewBroker()
	b.CreateTopic("in", 2)
	var mu sync.Mutex
	got := map[string]int64{}
	j := NewJob(b, Config{Name: "sum"}).
		Source("in").
		Stage("count", 2, counterStage).
		Sink(func(r Record) {
			mu.Lock()
			got[r.Key] = toI64(r.Value)
			mu.Unlock()
		})
	if err := j.Start(); err != nil {
		t.Fatal(err)
	}
	defer j.Stop()
	for i := 0; i < 10; i++ {
		produce(t, b, "in", fmt.Sprintf("k%d", i%3), 1)
	}
	waitIdle(t, j)
	mu.Lock()
	defer mu.Unlock()
	want := map[string]int64{"k0": 4, "k1": 3, "k2": 3}
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("key %s = %d, want %d (got=%v)", k, got[k], w, got)
		}
	}
}

func TestKeyedRoutingIsolatesState(t *testing.T) {
	// Same key always lands on the same instance, so per-key counts are
	// exact even with parallelism > 1 and interleaved keys.
	b := mq.NewBroker()
	b.CreateTopic("in", 4)
	var mu sync.Mutex
	last := map[string]int64{}
	j := NewJob(b, Config{}).
		Source("in").
		Stage("count", 4, counterStage).
		Sink(func(r Record) {
			mu.Lock()
			last[r.Key] = toI64(r.Value)
			mu.Unlock()
		})
	if err := j.Start(); err != nil {
		t.Fatal(err)
	}
	defer j.Stop()
	const keys, per = 20, 25
	for i := 0; i < keys*per; i++ {
		produce(t, b, "in", fmt.Sprintf("key-%d", i%keys), 1)
	}
	waitIdle(t, j)
	mu.Lock()
	defer mu.Unlock()
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("key-%d", k)
		if last[key] != per {
			t.Fatalf("%s = %d, want %d", key, last[key], per)
		}
	}
}

func TestCheckpointAndRecoverExactlyOnceState(t *testing.T) {
	b := mq.NewBroker()
	b.CreateTopic("in", 2)
	var mu sync.Mutex
	last := map[string]int64{}
	j := NewJob(b, Config{Name: "ck"}).
		Source("in").
		Stage("count", 2, counterStage).
		Sink(func(r Record) {
			mu.Lock()
			last[r.Key] = toI64(r.Value)
			mu.Unlock()
		})
	if err := j.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		produce(t, b, "in", "k", 1)
	}
	waitIdle(t, j)
	if _, err := j.TriggerCheckpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint records, then crash before another checkpoint.
	for i := 0; i < 5; i++ {
		produce(t, b, "in", "k", 1)
	}
	waitIdle(t, j)
	j.Crash()
	if err := j.Recover(); err != nil {
		t.Fatal(err)
	}
	defer j.Stop()
	waitIdle(t, j)
	mu.Lock()
	got := last["k"]
	mu.Unlock()
	// State rolled back to 10, replayed the 5 post-checkpoint records:
	// exactly-once state — 15, not 20.
	if got != 15 {
		t.Fatalf("count after recovery = %d, want 15 (exactly-once state)", got)
	}
}

func TestRecoveryWithoutCheckpointReplaysAll(t *testing.T) {
	b := mq.NewBroker()
	b.CreateTopic("in", 1)
	var lastVal atomic.Int64
	j := NewJob(b, Config{}).
		Source("in").
		Stage("count", 1, counterStage).
		Sink(func(r Record) { lastVal.Store(toI64(r.Value)) })
	if err := j.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		produce(t, b, "in", "k", 1)
	}
	waitIdle(t, j)
	j.Crash()
	if err := j.Recover(); err != nil {
		t.Fatal(err)
	}
	defer j.Stop()
	waitIdle(t, j)
	if got := lastVal.Load(); got != 4 {
		t.Fatalf("count = %d, want 4 (full replay from offset 0)", got)
	}
}

func TestCallbackSinkIsAtLeastOnceAcrossFailures(t *testing.T) {
	b := mq.NewBroker()
	b.CreateTopic("in", 1)
	var deliveries atomic.Int64
	j := NewJob(b, Config{}).
		Source("in").
		Stage("pass", 1, func(ctx *OpCtx, rec Record) { ctx.Emit(rec.Key, rec.Value) }).
		Sink(func(r Record) { deliveries.Add(1) })
	if err := j.Start(); err != nil {
		t.Fatal(err)
	}
	produce(t, b, "in", "k", 1)
	waitIdle(t, j)
	j.Crash()
	j.Recover()
	defer j.Stop()
	waitIdle(t, j)
	if got := deliveries.Load(); got != 2 {
		t.Fatalf("callback deliveries = %d, want 2 (replay duplicates plain sinks)", got)
	}
}

func TestTransactionalSinkExactlyOnceOutput(t *testing.T) {
	b := mq.NewBroker()
	b.CreateTopic("in", 1)
	b.CreateTopic("out", 1)
	j := NewJob(b, Config{Name: "eo"}).
		Source("in").
		Stage("pass", 1, func(ctx *OpCtx, rec Record) { ctx.Emit(rec.Key, rec.Value) }).
		SinkTo("out")
	if err := j.Start(); err != nil {
		t.Fatal(err)
	}
	produce(t, b, "in", "k", 7)
	waitIdle(t, j)
	// Output invisible before the checkpoint commits it.
	hw, _ := b.HighWater(mq.TopicPartition{Topic: "out", Partition: 0})
	if hw != 0 {
		t.Fatalf("out visible before checkpoint: %d", hw)
	}
	if _, err := j.TriggerCheckpoint(); err != nil {
		t.Fatal(err)
	}
	hw, _ = b.HighWater(mq.TopicPartition{Topic: "out", Partition: 0})
	if hw != 1 {
		t.Fatalf("out after checkpoint = %d, want 1", hw)
	}
	// Crash + replay of committed work must not duplicate output.
	j.Crash()
	j.Recover()
	defer j.Stop()
	waitIdle(t, j)
	if _, err := j.TriggerCheckpoint(); err != nil {
		t.Fatal(err)
	}
	hw, _ = b.HighWater(mq.TopicPartition{Topic: "out", Partition: 0})
	if hw != 1 {
		t.Fatalf("out after recovery = %d, want 1 (exactly-once output)", hw)
	}
}

func TestMultipleCheckpointsUseLatest(t *testing.T) {
	b := mq.NewBroker()
	b.CreateTopic("in", 1)
	var lastVal atomic.Int64
	j := NewJob(b, Config{}).
		Source("in").
		Stage("count", 1, counterStage).
		Sink(func(r Record) { lastVal.Store(toI64(r.Value)) })
	j.Start()
	defer j.Stop()
	for ck := 1; ck <= 3; ck++ {
		produce(t, b, "in", "k", 1)
		waitIdle(t, j)
		if _, err := j.TriggerCheckpoint(); err != nil {
			t.Fatal(err)
		}
		if got := j.LatestCheckpoint(); got != uint64(ck) {
			t.Fatalf("LatestCheckpoint = %d, want %d", got, ck)
		}
	}
	j.Crash()
	j.Recover()
	waitIdle(t, j)
	// Nothing to replay: all 3 records were checkpointed. lastVal stays 3
	// (the sink callback does not re-fire).
	produce(t, b, "in", "k", 1)
	waitIdle(t, j)
	if got := lastVal.Load(); got != 4 {
		t.Fatalf("count = %d, want 4 (recovered state 3 + 1 new)", got)
	}
}

func TestDoubleStartRejected(t *testing.T) {
	b := mq.NewBroker()
	b.CreateTopic("in", 1)
	j := NewJob(b, Config{}).Source("in").Stage("s", 1, counterStage).Sink(func(Record) {})
	if err := j.Start(); err != nil {
		t.Fatal(err)
	}
	defer j.Stop()
	if err := j.Start(); !errors.Is(err, ErrRunning) {
		t.Fatalf("second Start = %v, want ErrRunning", err)
	}
}

func TestCheckpointWhileStoppedFails(t *testing.T) {
	b := mq.NewBroker()
	b.CreateTopic("in", 1)
	j := NewJob(b, Config{}).Source("in").Stage("s", 1, counterStage).Sink(func(Record) {})
	if _, err := j.TriggerCheckpoint(); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("TriggerCheckpoint stopped = %v, want ErrNotRunning", err)
	}
}

func TestStateLen(t *testing.T) {
	b := mq.NewBroker()
	b.CreateTopic("in", 2)
	j := NewJob(b, Config{}).Source("in").Stage("count", 2, counterStage).Sink(func(Record) {})
	j.Start()
	defer j.Stop()
	for i := 0; i < 10; i++ {
		produce(t, b, "in", fmt.Sprintf("k%d", i), 1)
	}
	waitIdle(t, j)
	if got := j.StateLen(0); got != 10 {
		t.Fatalf("StateLen = %d, want 10", got)
	}
}

func TestStopAndResumeContinuesFromCheckpoint(t *testing.T) {
	b := mq.NewBroker()
	b.CreateTopic("in", 1)
	var lastVal atomic.Int64
	j := NewJob(b, Config{}).
		Source("in").
		Stage("count", 1, counterStage).
		Sink(func(r Record) { lastVal.Store(toI64(r.Value)) })
	j.Start()
	produce(t, b, "in", "k", 1)
	waitIdle(t, j)
	j.TriggerCheckpoint()
	j.Stop()
	produce(t, b, "in", "k", 1) // arrives while stopped
	if err := j.Start(); err != nil {
		t.Fatal(err)
	}
	defer j.Stop()
	waitIdle(t, j)
	if got := lastVal.Load(); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
}

func TestBarrierAlignmentUnderLoad(t *testing.T) {
	// Checkpoints interleaved with a continuous stream, then a crash: the
	// callbacks for different partitions run concurrently, yet each key's
	// values arrive in order, and recovery neither drops nor double-applies
	// a record. The callback sink is at-least-once, so values replayed after
	// the crash may repeat.
	b := mq.NewBroker()
	b.CreateTopic("in", 4)
	var mu sync.Mutex
	last := map[string]int64{}
	var crashed atomic.Bool
	j := NewJob(b, Config{}).
		Source("in").
		Stage("count", 4, counterStage).
		Sink(func(r Record) {
			mu.Lock()
			defer mu.Unlock()
			v := toI64(r.Value)
			if !crashed.Load() && v <= last[r.Key] {
				t.Errorf("%s: value %d after %d", r.Key, v, last[r.Key])
			}
			last[r.Key] = v
		})
	j.Start()
	defer j.Stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 400; i++ {
			produce(t, b, "in", fmt.Sprintf("k%d", i%8), 1)
		}
	}()
	for i := 0; i < 5; i++ {
		if _, err := j.TriggerCheckpoint(); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	waitIdle(t, j)
	crashed.Store(true)
	j.Crash()
	if err := j.Recover(); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, j)
	mu.Lock()
	defer mu.Unlock()
	for k := 0; k < 8; k++ {
		key := fmt.Sprintf("k%d", k)
		if last[key] != 50 {
			t.Fatalf("%s = %d, want 50", key, last[key])
		}
	}
}

// LatestCheckpoint returns the last completed checkpoint epoch (0 = none).
func (j *Job) LatestCheckpoint() uint64 {
	ck := j.latest.Load()
	if ck == nil {
		return 0
	}
	return ck.epoch
}

// StateLen returns the total number of state keys across all instances.
// Only stage 0 exists.
func (j *Job) StateLen(stage int) int {
	j.mu.Lock()
	rt := j.rt
	j.mu.Unlock()
	if rt == nil || stage != 0 {
		return 0
	}
	n := 0
	for _, inst := range rt.insts {
		n += len(inst.state.m)
	}
	return n
}
