package statefun

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tca/internal/mq"
)

// The app as a dataflow job: keyed routing, checkpoints, recovery, the
// two egress guarantees, the lifecycle, and parking.

// add sends v to the counter with the given id.
func add(t *testing.T, app *App, id string, v int64) {
	t.Helper()
	if err := app.SendToIngress(Ref{"counter", id}, i64(v)); err != nil {
		t.Fatal(err)
	}
}

// lastValues is an OnEgress callback that keeps the last value per key.
type lastValues struct {
	mu   sync.Mutex
	last map[string]int64
}

func newLastValues() *lastValues { return &lastValues{last: map[string]int64{}} }

func (l *lastValues) egress(key string, value []byte) {
	l.mu.Lock()
	l.last[key] = toI64(value)
	l.mu.Unlock()
}

func (l *lastValues) get(key string) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last[key]
}

// passFn emits its payload under its own id.
func passFn(ctx *Ctx, payload []byte) error {
	ctx.SendEgress(ctx.Self.ID, payload)
	return nil
}

// TestTopologyValidation: the app's partitions are its ingress topic's,
// so Start rejects a topic made earlier with another partition count.
func TestTopologyValidation(t *testing.T) {
	b := mq.NewBroker()
	b.CreateTopic("in", 1)
	app := NewApp(b, Config{Name: "topo", Parallelism: 2, Ingress: "in"})
	if err := app.Start(); err == nil {
		app.Stop()
		t.Fatal("Start on a 1-partition topic with parallelism 2 succeeded")
	}
	startCounterApp(t, b, Config{Name: "topo1", Parallelism: 1, Ingress: "in"})
}

func TestSingleStageProcessing(t *testing.T) {
	got := newLastValues()
	app := startCounterApp(t, mq.NewBroker(), Config{Name: "sum", Parallelism: 2, Ingress: "in", OnEgress: got.egress})
	for i := 0; i < 10; i++ {
		add(t, app, fmt.Sprintf("k%d", i%3), 1)
	}
	waitIdle(t, app)
	for k, w := range map[string]int64{"k0": 4, "k1": 3, "k2": 3} {
		if g := got.get(k); g != w {
			t.Fatalf("key %s = %d, want %d", k, g, w)
		}
	}
}

func TestKeyedRoutingIsolatesState(t *testing.T) {
	// Same key always lands on the same instance, so per-key counts are
	// exact even with parallelism > 1 and interleaved keys.
	got := newLastValues()
	app := startCounterApp(t, mq.NewBroker(), Config{Name: "route", Parallelism: 4, Ingress: "in", OnEgress: got.egress})
	const keys, per = 20, 25
	for i := 0; i < keys*per; i++ {
		add(t, app, fmt.Sprintf("key-%d", i%keys), 1)
	}
	waitIdle(t, app)
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("key-%d", k)
		if g := got.get(key); g != per {
			t.Fatalf("%s = %d, want %d", key, g, per)
		}
	}
}

func TestCheckpointAndRecoverExactlyOnceState(t *testing.T) {
	got := newLastValues()
	app := startCounterApp(t, mq.NewBroker(), Config{Name: "ck", Parallelism: 2, Ingress: "in", OnEgress: got.egress})
	for i := 0; i < 10; i++ {
		add(t, app, "k", 1)
	}
	waitIdle(t, app)
	if _, err := app.TriggerCheckpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint records, then crash before another checkpoint.
	for i := 0; i < 5; i++ {
		add(t, app, "k", 1)
	}
	waitIdle(t, app)
	app.Crash()
	if err := app.Recover(); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, app)
	// State rolled back to 10, replayed the 5 post-checkpoint records:
	// exactly-once state — 15, not 20.
	if g := got.get("k"); g != 15 {
		t.Fatalf("count after recovery = %d, want 15 (exactly-once state)", g)
	}
}

func TestRecoveryWithoutCheckpointReplaysAll(t *testing.T) {
	got := newLastValues()
	app := startCounterApp(t, mq.NewBroker(), Config{Name: "replay", Parallelism: 1, Ingress: "in", OnEgress: got.egress})
	for i := 0; i < 4; i++ {
		add(t, app, "k", 1)
	}
	waitIdle(t, app)
	app.Crash()
	if err := app.Recover(); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, app)
	if g := got.get("k"); g != 4 {
		t.Fatalf("count = %d, want 4 (full replay from offset 0)", g)
	}
}

func TestCallbackSinkIsAtLeastOnceAcrossFailures(t *testing.T) {
	var deliveries atomic.Int64
	app := NewApp(mq.NewBroker(), Config{
		Name: "alo", Parallelism: 1, Ingress: "in",
		OnEgress: func(string, []byte) { deliveries.Add(1) },
	})
	app.Register("pass", passFn)
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	defer app.Stop()
	app.SendToIngress(Ref{"pass", "k"}, i64(1))
	waitIdle(t, app)
	app.Crash()
	if err := app.Recover(); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, app)
	if got := deliveries.Load(); got != 2 {
		t.Fatalf("callback deliveries = %d, want 2 (replay duplicates the callback)", got)
	}
}

func TestTransactionalSinkExactlyOnceOutput(t *testing.T) {
	b := mq.NewBroker()
	app := NewApp(b, Config{Name: "eo", Parallelism: 1, Ingress: "in", Egress: "out"})
	app.Register("pass", passFn)
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	defer app.Stop()
	out := mq.TopicPartition{Topic: "out", Partition: 0}
	app.SendToIngress(Ref{"pass", "k"}, i64(7))
	waitIdle(t, app)
	// Output invisible before the checkpoint commits it.
	if hw, _ := b.HighWater(out); hw != 0 {
		t.Fatalf("out visible before checkpoint: %d", hw)
	}
	if _, err := app.TriggerCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if hw, _ := b.HighWater(out); hw != 1 {
		t.Fatalf("out after checkpoint = %d, want 1", hw)
	}
	// Crash + replay of committed work must not duplicate output.
	app.Crash()
	if err := app.Recover(); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, app)
	if _, err := app.TriggerCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if hw, _ := b.HighWater(out); hw != 1 {
		t.Fatalf("out after recovery = %d, want 1 (exactly-once output)", hw)
	}
}

func TestMultipleCheckpointsUseLatest(t *testing.T) {
	var mu sync.Mutex
	var emitted []int64
	app := startCounterApp(t, mq.NewBroker(), Config{
		Name: "latest", Parallelism: 1, Ingress: "in",
		OnEgress: func(_ string, v []byte) {
			mu.Lock()
			emitted = append(emitted, toI64(v))
			mu.Unlock()
		},
	})
	for ck := 1; ck <= 3; ck++ {
		add(t, app, "k", 1)
		waitIdle(t, app)
		epoch, err := app.TriggerCheckpoint()
		if err != nil {
			t.Fatal(err)
		}
		if epoch != uint64(ck) {
			t.Fatalf("checkpoint epoch = %d, want %d", epoch, ck)
		}
	}
	app.Crash()
	if err := app.Recover(); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, app)
	// Nothing replays: the latest checkpoint covers all 3 records, so the
	// one new record is the only emit after the crash.
	add(t, app, "k", 1)
	waitIdle(t, app)
	mu.Lock()
	defer mu.Unlock()
	if want := []int64{1, 2, 3, 4}; fmt.Sprint(emitted) != fmt.Sprint(want) {
		t.Fatalf("emitted %v, want %v (recovered state 3 + 1 new, no replay)", emitted, want)
	}
}

func TestDoubleStartRejected(t *testing.T) {
	app, _ := newCounterApp(t, "twice", nil)
	if err := app.Start(); !errors.Is(err, ErrRunning) {
		t.Fatalf("second Start = %v, want ErrRunning", err)
	}
}

func TestCheckpointWhileStoppedFails(t *testing.T) {
	app := NewApp(mq.NewBroker(), Config{Name: "stopped", Parallelism: 1, Ingress: "in"})
	if _, err := app.TriggerCheckpoint(); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("TriggerCheckpoint stopped = %v, want ErrNotRunning", err)
	}
}

// stateLen returns the number of state keys across the live instances.
func (a *App) stateLen() int {
	n := 0
	if inc := a.running(); inc != nil {
		for _, inst := range inc.insts {
			n += len(inst.state)
		}
	}
	return n
}

func TestStateLen(t *testing.T) {
	app, _ := newCounterApp(t, "len", nil)
	for i := 0; i < 10; i++ {
		add(t, app, fmt.Sprintf("k%d", i), 1)
	}
	waitIdle(t, app)
	if got := app.stateLen(); got != 10 {
		t.Fatalf("state keys = %d, want 10", got)
	}
}

func TestStopAndResumeContinuesFromCheckpoint(t *testing.T) {
	got := newLastValues()
	app := startCounterApp(t, mq.NewBroker(), Config{Name: "resume", Parallelism: 1, Ingress: "in", OnEgress: got.egress})
	add(t, app, "k", 1)
	waitIdle(t, app)
	if _, err := app.TriggerCheckpoint(); err != nil {
		t.Fatal(err)
	}
	app.Stop()
	add(t, app, "k", 1) // arrives while stopped
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, app)
	if g := got.get("k"); g != 2 {
		t.Fatalf("count = %d, want 2", g)
	}
}

func TestBarrierAlignmentUnderLoad(t *testing.T) {
	// Checkpoints interleaved with a continuous stream, then a crash: the
	// callbacks for different partitions run concurrently, yet each key's
	// values arrive in order, and recovery neither drops nor double-applies
	// a record. The callback is at-least-once, so values replayed after
	// the crash may repeat.
	var mu sync.Mutex
	last := map[string]int64{}
	var crashed atomic.Bool
	app := startCounterApp(t, mq.NewBroker(), Config{
		Name: "load", Parallelism: 4, Ingress: "in",
		OnEgress: func(k string, value []byte) {
			mu.Lock()
			defer mu.Unlock()
			v := toI64(value)
			if !crashed.Load() && v <= last[k] {
				t.Errorf("%s: value %d after %d", k, v, last[k])
			}
			last[k] = v
		},
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 400; i++ {
			if err := app.SendToIngress(Ref{"counter", fmt.Sprintf("k%d", i%8)}, i64(1)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 5; i++ {
		if _, err := app.TriggerCheckpoint(); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	waitIdle(t, app)
	crashed.Store(true)
	app.Crash()
	if err := app.Recover(); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, app)
	mu.Lock()
	defer mu.Unlock()
	for k := 0; k < 8; k++ {
		key := fmt.Sprintf("k%d", k)
		if last[key] != 50 {
			t.Fatalf("%s = %d, want 50", key, last[key])
		}
	}
}

// idleJob starts a counter app over a 4-partition topic with an egress
// topic, feeds it a few records and waits until every instance has parked.
func idleJob(t *testing.T) *App {
	t.Helper()
	app := startCounterApp(t, mq.NewBroker(), Config{Name: "idle", Parallelism: 4, Ingress: "in", Egress: "out"})
	for i := 0; i < 16; i++ {
		add(t, app, fmt.Sprintf("k%d", i), 1)
	}
	waitIdle(t, app)
	parks := app.Metrics().Counter("dataflow.idle_parks")
	for deadline := time.Now().Add(5 * time.Second); parks.Value() < 4; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d parks after 5 s on a 4-partition app", parks.Value())
		}
	}
	return app
}

// within runs f and fails the test unless it returns inside d.
func within(t *testing.T, what string, d time.Duration, f func()) {
	t.Helper()
	done := make(chan struct{})
	start := time.Now()
	go func() { f(); close(done) }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not return within %v", what, d)
	}
	t.Logf("%s took %v", what, time.Since(start))
}

func TestParkedJobAnswersCheckpointAndStop(t *testing.T) {
	app := idleJob(t)
	within(t, "TriggerCheckpoint", time.Second, func() {
		if _, err := app.TriggerCheckpoint(); err != nil {
			t.Error(err)
		}
	})
	within(t, "Stop", time.Second, app.Stop)
}

func TestWaitIdleOnIdleJobReturnsAtOnce(t *testing.T) {
	app := idleJob(t)
	within(t, "WaitIdle", 100*time.Millisecond, func() {
		if err := app.WaitIdle(10 * time.Second); err != nil {
			t.Error(err)
		}
	})
}

// TestWaitIdleReleasedByStop: an app stopped with records left unprocessed
// parks no instance, so only the halt can wake a WaitIdle caller.
func TestWaitIdleReleasedByStop(t *testing.T) {
	release := make(chan struct{})
	app := NewApp(mq.NewBroker(), Config{Name: "block", Parallelism: 1, Ingress: "in"})
	app.Register("block", func(ctx *Ctx, _ []byte) error {
		if ctx.offset == 0 {
			<-release
		}
		return nil
	})
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	// After each batch a stopping instance picks the stop or the next
	// batch at random, so it stops with records left all but surely.
	for i := 0; i < 16*pollBatch; i++ {
		if err := app.SendToIngress(Ref{"block", "k"}, nil); err != nil {
			t.Fatal(err)
		}
	}
	idle := make(chan error, 1)
	go func() { idle <- app.WaitIdle(10 * time.Second) }()
	time.Sleep(10 * time.Millisecond) // WaitIdle sees the lag and waits
	stopped := make(chan struct{})
	go func() { app.Stop(); close(stopped) }()
	time.Sleep(10 * time.Millisecond) // the stop is requested before the batch ends
	close(release)
	<-stopped
	select {
	case err := <-idle:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("WaitIdle not released by Stop")
	}
}

// TestIdleJobDoesNotSpin: once the app is idle and nothing is appended,
// each instance parks at most once more (if it had not yet parked after
// its last record) and then stays parked.
func TestIdleJobDoesNotSpin(t *testing.T) {
	app := idleJob(t)
	parks := app.Metrics().Counter("dataflow.idle_parks")
	before := parks.Value()
	time.Sleep(20 * time.Millisecond)
	if n := parks.Value() - before; n > 4 {
		t.Fatalf("%d parks over 20 ms on an idle 4-partition app, want at most 4", n)
	}
}

// TestSendToIngressLandsOnPartitionOf: the record SendToIngress appends
// is consumed by the instance PartitionOf names, which is where StateOf
// lets a handler reach the ref's state.
func TestSendToIngressLandsOnPartitionOf(t *testing.T) {
	var mu sync.Mutex
	ran := map[string]int{}
	app := NewApp(mq.NewBroker(), Config{Name: "place", Parallelism: 4, Ingress: "in"})
	app.Register("where", func(ctx *Ctx, _ []byte) error {
		mu.Lock()
		ran[ctx.Self.ID] = ctx.inst.tp.Partition
		mu.Unlock()
		return nil
	})
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	defer app.Stop()
	const refs = 1000
	for i := 0; i < refs; i++ {
		if err := app.SendToIngress(Ref{"where", fmt.Sprintf("r%d", i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	waitIdle(t, app)
	mu.Lock()
	defer mu.Unlock()
	if len(ran) != refs {
		t.Fatalf("%d of %d refs ran", len(ran), refs)
	}
	for i := 0; i < refs; i++ {
		ref := Ref{"where", fmt.Sprintf("r%d", i)}
		if got, want := ran[ref.ID], app.PartitionOf(ref); got != want {
			t.Fatalf("%v ran on partition %d, PartitionOf says %d", ref, got, want)
		}
	}
}

// hopAllocs bounds the mallocs of one warm ingress → handler → OnEgress
// hop, counted across every goroutine (9 on go1.24). Most are the
// envelope and its copy in the log, the fetched batch, the Ctx, the scoped
// key the handler sets and the channel of the instance's next park.
const hopAllocs = 11

// TestWarmHopAllocations pins the garbage of one message through the app:
// SendToIngress, a handler that Gets, Sets and SendEgresses, and the
// OnEgress callback.
func TestWarmHopAllocations(t *testing.T) {
	egress := make(chan struct{}, 1) // the instance hands off and parks without waiting on the test
	app := NewApp(mq.NewBroker(), Config{
		Name: "hop", Parallelism: 2, Ingress: "in",
		OnEgress: func(string, []byte) { egress <- struct{}{} },
	})
	app.Register("echo", func(ctx *Ctx, payload []byte) error {
		prev, _ := ctx.Get("n")
		ctx.Set("n", payload)
		ctx.SendEgress("done", prev)
		return nil
	})
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	defer app.Stop()
	ref, payload := Ref{"echo", "e"}, i64(1)
	hop := func() {
		if err := app.SendToIngress(ref, payload); err != nil {
			t.Fatal(err)
		}
		<-egress
	}
	for i := 0; i < 10; i++ {
		hop()
	}
	if allocs := testing.AllocsPerRun(500, hop); allocs > hopAllocs {
		t.Fatalf("one warm hop makes %v allocations, want at most %d", allocs, hopAllocs)
	}
}
