package statefun

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"tca/internal/mq"
)

func i64(v int64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(v))
	return b
}

func toI64(b []byte) int64 {
	if len(b) < 8 {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

// counterFn keeps a per-id counter; "add" increments by the payload and
// emits the new total to egress.
func counterFn(ctx *Ctx, payload []byte) error {
	cur := int64(0)
	if b, ok := ctx.Get("n"); ok {
		cur = toI64(b)
	}
	cur += toI64(payload)
	ctx.Set("n", i64(cur))
	ctx.SendEgress(ctx.Self.ID, i64(cur))
	return nil
}

func newCounterApp(t *testing.T, name string, egress func(key string, value []byte)) (*App, *mq.Broker) {
	t.Helper()
	b := mq.NewBroker()
	return startCounterApp(t, b, Config{Name: name, Parallelism: 2, Ingress: name + "-in", OnEgress: egress}), b
}

// startCounterApp starts an app over b with counterFn registered as
// "counter"; the test's cleanup stops it.
func startCounterApp(t *testing.T, b *mq.Broker, cfg Config) *App {
	t.Helper()
	app := NewApp(b, cfg)
	app.Register("counter", counterFn)
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(app.Stop)
	return app
}

func waitIdle(t *testing.T, app *App) {
	t.Helper()
	if err := app.WaitIdle(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestIngressToFunction(t *testing.T) {
	var mu sync.Mutex
	last := map[string]int64{}
	app, _ := newCounterApp(t, "app1", func(k string, v []byte) {
		mu.Lock()
		last[k] = toI64(v)
		mu.Unlock()
	})
	for i := 0; i < 5; i++ {
		if err := app.SendToIngress(Ref{"counter", "a"}, i64(1)); err != nil {
			t.Fatal(err)
		}
	}
	waitIdle(t, app)
	mu.Lock()
	defer mu.Unlock()
	if last["a"] != 5 {
		t.Fatalf("counter a = %d, want 5", last["a"])
	}
}

func TestScopedStatePerFunctionInstance(t *testing.T) {
	var mu sync.Mutex
	last := map[string]int64{}
	app, _ := newCounterApp(t, "app2", func(k string, v []byte) {
		mu.Lock()
		last[k] = toI64(v)
		mu.Unlock()
	})
	app.SendToIngress(Ref{"counter", "x"}, i64(10))
	app.SendToIngress(Ref{"counter", "y"}, i64(20))
	waitIdle(t, app)
	mu.Lock()
	defer mu.Unlock()
	if last["x"] != 10 || last["y"] != 20 {
		t.Fatalf("x=%d y=%d, want 10, 20 (state must be scoped per id)", last["x"], last["y"])
	}
}

func TestFunctionToFunctionMessaging(t *testing.T) {
	b := mq.NewBroker()
	var mu sync.Mutex
	var egressed []string
	app := NewApp(b, Config{
		Name: "chain", Parallelism: 2, Ingress: "chain-in",
		OnEgress: func(k string, v []byte) {
			mu.Lock()
			egressed = append(egressed, k)
			mu.Unlock()
		},
	})
	// forwarder passes to counter; counter emits.
	app.Register("forwarder", func(ctx *Ctx, payload []byte) error {
		return ctx.Send(Ref{"counter", "target"}, payload)
	})
	app.Register("counter", func(ctx *Ctx, payload []byte) error {
		if ctx.Caller.Type != "forwarder" {
			return fmt.Errorf("caller = %v, want forwarder", ctx.Caller)
		}
		ctx.SendEgress(ctx.Self.ID, payload)
		return nil
	})
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	defer app.Stop()
	app.SendToIngress(Ref{"forwarder", "f1"}, i64(7))
	waitIdle(t, app)
	mu.Lock()
	defer mu.Unlock()
	if len(egressed) != 1 || egressed[0] != "target" {
		t.Fatalf("egressed = %v", egressed)
	}
}

func TestExactlyOnceStateAcrossCrash(t *testing.T) {
	var mu sync.Mutex
	last := map[string]int64{}
	app, _ := newCounterApp(t, "app3", func(k string, v []byte) {
		mu.Lock()
		last[k] = toI64(v)
		mu.Unlock()
	})
	for i := 0; i < 6; i++ {
		app.SendToIngress(Ref{"counter", "c"}, i64(1))
	}
	waitIdle(t, app)
	if _, err := app.TriggerCheckpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		app.SendToIngress(Ref{"counter", "c"}, i64(1))
	}
	waitIdle(t, app)
	app.Crash()
	if err := app.Recover(); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, app)
	mu.Lock()
	defer mu.Unlock()
	if last["c"] != 10 {
		t.Fatalf("counter = %d, want 10 (exactly-once across crash)", last["c"])
	}
}

func TestFunctionSendsExactlyOnceAcrossCrash(t *testing.T) {
	// A fan-out function sends to a counter; crash-replay of the fan-out
	// must not double-deliver (deterministic idempotent produce).
	b := mq.NewBroker()
	var mu sync.Mutex
	last := map[string]int64{}
	app := NewApp(b, Config{
		Name: "fan", Parallelism: 2, Ingress: "fan-in",
		OnEgress: func(k string, v []byte) {
			mu.Lock()
			last[k] = toI64(v)
			mu.Unlock()
		},
	})
	app.Register("fanout", func(ctx *Ctx, payload []byte) error {
		for i := 0; i < 3; i++ {
			if err := ctx.Send(Ref{"counter", fmt.Sprintf("t%d", i)}, payload); err != nil {
				return err
			}
		}
		return nil
	})
	app.Register("counter", counterFn)
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	defer app.Stop()

	app.SendToIngress(Ref{"fanout", "f"}, i64(1))
	waitIdle(t, app)
	// Crash without a checkpoint: everything replays from scratch. The
	// fan-out re-executes and re-sends, but the broker dedups the sends.
	app.Crash()
	if err := app.Recover(); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, app)
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < 3; i++ {
		k := fmt.Sprintf("t%d", i)
		if last[k] != 1 {
			t.Fatalf("counter %s = %d, want 1 (function sends must dedup)", k, last[k])
		}
	}
}

func TestEgressTopicExactlyOnce(t *testing.T) {
	b := mq.NewBroker()
	app := NewApp(b, Config{
		Name: "eg", Parallelism: 1, Ingress: "eg-in", Egress: "eg-out",
	})
	app.Register("counter", counterFn)
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	defer app.Stop()
	app.SendToIngress(Ref{"counter", "k"}, i64(5))
	waitIdle(t, app)
	// Invisible until checkpoint.
	hw, _ := b.HighWater(mq.TopicPartition{Topic: "eg-out", Partition: 0})
	if hw != 0 {
		t.Fatalf("egress visible before checkpoint: %d", hw)
	}
	if _, err := app.TriggerCheckpoint(); err != nil {
		t.Fatal(err)
	}
	var total int64
	for p := 0; p < 1; p++ {
		hw, _ := b.HighWater(mq.TopicPartition{Topic: "eg-out", Partition: p})
		total += hw
	}
	if total != 1 {
		t.Fatalf("egress after checkpoint = %d, want 1", total)
	}
}

func TestNoIsolationAcrossFunctions(t *testing.T) {
	// The §4.2 observation: exactly-once processing is not transactional
	// isolation. A "transfer" implemented as two separate function
	// messages exposes an intermediate state where money has left one
	// account and not arrived at the other.
	b := mq.NewBroker()
	var mu sync.Mutex
	balances := map[string]int64{}
	app := NewApp(b, Config{
		Name: "bank", Parallelism: 2, Ingress: "bank-in",
		OnEgress: func(k string, v []byte) {
			mu.Lock()
			balances[k] = toI64(v)
			mu.Unlock()
		},
	})
	app.Register("account", func(ctx *Ctx, payload []byte) error {
		cur := int64(0)
		if b, ok := ctx.Get("bal"); ok {
			cur = toI64(b)
		}
		cur += toI64(payload)
		ctx.Set("bal", i64(cur))
		ctx.SendEgress(ctx.Self.ID, i64(cur))
		return nil
	})
	// transfer debits one account, then credits the other via a second
	// message — the saga-like, isolation-free pattern.
	app.Register("transfer", func(ctx *Ctx, payload []byte) error {
		if err := ctx.Send(Ref{"account", "from"}, i64(-toI64(payload))); err != nil {
			return err
		}
		return ctx.Send(Ref{"account", "to"}, payload)
	})
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	defer app.Stop()
	app.SendToIngress(Ref{"account", "from"}, i64(100))
	app.SendToIngress(Ref{"account", "to"}, i64(100))
	waitIdle(t, app)
	app.SendToIngress(Ref{"transfer", "t1"}, i64(30))
	waitIdle(t, app)
	mu.Lock()
	defer mu.Unlock()
	// Eventually consistent: totals match after quiescence...
	if balances["from"] != 70 || balances["to"] != 130 {
		t.Fatalf("balances = %v, want from=70 to=130", balances)
	}
	// ...but there is no isolation primitive at all: nothing in this
	// programming model can make the two updates atomic to observers.
	// (internal/core exists to close exactly this gap.)
}

func TestTooManySends(t *testing.T) {
	b := mq.NewBroker()
	errCh := make(chan error, 1)
	app := NewApp(b, Config{Name: "burst", Parallelism: 1, Ingress: "burst-in"})
	app.Register("burst", func(ctx *Ctx, payload []byte) error {
		var err error
		for i := 0; i <= MaxSends; i++ {
			// Target an unregistered type: the sends are dropped at
			// dispatch, so the storm does not recurse.
			if err = ctx.Send(Ref{"sink-hole", "next"}, nil); err != nil {
				break
			}
		}
		select {
		case errCh <- err:
		default:
		}
		return err
	})
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	defer app.Stop()
	app.SendToIngress(Ref{"burst", "b"}, nil)
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("expected ErrTooManySends")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("function never ran")
	}
}

// registerChunkedFanout registers a function that delivers one message to
// each of n counters (t0..t{n-1}) across as many invocation rounds as the
// send budget requires — the continuation pattern for apps that fan out
// wider than MaxSends. The payload carries the next target index.
func registerChunkedFanout(app *App, n int, errs chan<- error) {
	app.Register("cfan", func(ctx *Ctx, payload []byte) error {
		next := int(toI64(payload))
		for next < n {
			if ctx.SendsRemaining() == 1 && n-next > 1 {
				// Last slot with more than one target left: reserve it
				// for the continuation.
				if err := ctx.SendSelf(i64(int64(next))); err != nil {
					errs <- err
					return err
				}
				return nil
			}
			if err := ctx.Send(Ref{"counter", fmt.Sprintf("t%d", next)}, i64(1)); err != nil {
				errs <- err
				return err
			}
			next++
		}
		return nil
	})
}

// TestChunkedFanoutBoundaries pins the continuation pattern at the exact
// chunk boundaries: fan-outs of 31 (fits with the reserved slot), 32 (the
// old hard ceiling), 33 (first two-round case), and 3*31+1 (multi-round)
// all complete with exactly one delivery per target and never hit
// ErrTooManySends.
func TestChunkedFanoutBoundaries(t *testing.T) {
	for _, n := range []int{MaxSends - 1, MaxSends, MaxSends + 1, 3*(MaxSends-1) + 1} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			b := mq.NewBroker()
			var mu sync.Mutex
			last := map[string]int64{}
			app := NewApp(b, Config{
				Name: fmt.Sprintf("cfan%d", n), Parallelism: 2, Ingress: fmt.Sprintf("cfan%d-in", n),
				OnEgress: func(k string, v []byte) {
					mu.Lock()
					last[k] = toI64(v)
					mu.Unlock()
				},
			})
			errs := make(chan error, n+4)
			registerChunkedFanout(app, n, errs)
			app.Register("counter", counterFn)
			if err := app.Start(); err != nil {
				t.Fatal(err)
			}
			defer app.Stop()
			if err := app.SendToIngress(Ref{"cfan", "wide"}, i64(0)); err != nil {
				t.Fatal(err)
			}
			if err := app.WaitIdle(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-errs:
				t.Fatalf("chunked fan-out hit a send error: %v", err)
			default:
			}
			mu.Lock()
			defer mu.Unlock()
			for i := 0; i < n; i++ {
				k := fmt.Sprintf("t%d", i)
				if last[k] != 1 {
					t.Fatalf("counter %s = %d, want exactly 1", k, last[k])
				}
			}
		})
	}
}

// TestChunkedFanoutExactlyOnceAcrossCrash crashes the app mid-stream with
// no checkpoint: every round replays, every send re-produces, and the
// broker's idempotent-producer dedup still leaves exactly one delivery per
// target — the continuation rounds share the per-record sequence space
// safely because each round consumes its own record.
func TestChunkedFanoutExactlyOnceAcrossCrash(t *testing.T) {
	const n = 3*(MaxSends-1) + 1
	b := mq.NewBroker()
	var mu sync.Mutex
	last := map[string]int64{}
	app := NewApp(b, Config{
		Name: "cfanx", Parallelism: 2, Ingress: "cfanx-in",
		OnEgress: func(k string, v []byte) {
			mu.Lock()
			last[k] = toI64(v)
			mu.Unlock()
		},
	})
	errs := make(chan error, n+4)
	registerChunkedFanout(app, n, errs)
	app.Register("counter", counterFn)
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	defer app.Stop()
	if err := app.SendToIngress(Ref{"cfan", "wide"}, i64(0)); err != nil {
		t.Fatal(err)
	}
	if err := app.WaitIdle(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	app.Crash()
	if err := app.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := app.WaitIdle(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errs:
		t.Fatalf("chunked fan-out hit a send error: %v", err)
	default:
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("t%d", i)
		if last[k] != 1 {
			t.Fatalf("counter %s = %d, want exactly 1 across crash-replay", k, last[k])
		}
	}
}

// TestStateOfSamePartitionOnly pins Ctx.StateOf: a handler adds to the
// scoped state of another instance on its own partition, that instance's
// own Get sees every add exactly once across a checkpoint, a crash and a
// replay of the un-checkpointed tail, and a ref on the other partition
// gets ErrOtherPartition and changes nothing.
func TestStateOfSamePartitionOnly(t *testing.T) {
	var mu sync.Mutex
	last := map[string]int64{}
	b := mq.NewBroker()
	app := NewApp(b, Config{
		Name: "stateof", Parallelism: 2, Ingress: "stateof-in",
		OnEgress: func(k string, v []byte) {
			mu.Lock()
			last[k] = toI64(v)
			mu.Unlock()
		},
	})
	writer := Ref{"writer", "w"}
	var same, other Ref
	for i := 0; same.ID == "" || other.ID == ""; i++ {
		ref := Ref{"counter", fmt.Sprintf("c%d", i)}
		if app.PartitionOf(ref) == app.PartitionOf(writer) {
			same = ref
		} else {
			other = ref
		}
	}
	errs := make(chan error, 8)
	// The payload names the counter to add 1 to.
	app.Register("writer", func(ctx *Ctx, payload []byte) error {
		st, err := ctx.StateOf(Ref{"counter", string(payload)})
		if err != nil {
			errs <- err
			return err
		}
		cur, _ := st.Get("n")
		st.Set("n", i64(toI64(cur)+1))
		return nil
	})
	app.Register("counter", counterFn)
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	defer app.Stop()
	add := func(to Ref) {
		t.Helper()
		if err := app.SendToIngress(writer, []byte(to.ID)); err != nil {
			t.Fatal(err)
		}
		waitIdle(t, app)
	}
	add(same)
	add(same)
	if _, err := app.TriggerCheckpoint(); err != nil {
		t.Fatal(err)
	}
	add(same) // un-checkpointed: replays after the crash
	app.Crash()
	if err := app.Recover(); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, app)
	add(other)
	select {
	case err := <-errs:
		if !errors.Is(err, ErrOtherPartition) {
			t.Fatalf("StateOf(%v) = %v, want ErrOtherPartition", other, err)
		}
	default:
		t.Fatalf("StateOf(%v) from %v returned no error", other, writer)
	}
	select {
	case err := <-errs:
		t.Fatalf("unexpected StateOf error: %v", err)
	default:
	}
	// counterFn adds 0 and emits its own Get of the count.
	app.SendToIngress(same, i64(0))
	app.SendToIngress(other, i64(0))
	waitIdle(t, app)
	mu.Lock()
	defer mu.Unlock()
	if got := last[same.ID]; got != 3 {
		t.Fatalf("counter %v = %d, want exactly 3", same, got)
	}
	if got, ok := last[other.ID]; !ok || got != 0 {
		t.Fatalf("counter %v = %d (emitted %v), want 0", other, got, ok)
	}
}

func TestUnregisteredFunctionDropped(t *testing.T) {
	app, _ := newCounterApp(t, "drop", nil)
	// Must not wedge the pipeline.
	app.SendToIngress(Ref{"ghost", "g"}, i64(1))
	app.SendToIngress(Ref{"counter", "ok"}, i64(1))
	waitIdle(t, app)
}

// TestCheckpointRacingRegister checkpoints while functions are registered
// and traffic flows. dispatch takes the app's read lock for every record,
// so a checkpoint that held that lock while it waited on the job would
// wait forever on an instance stuck behind a queued Register.
func TestCheckpointRacingRegister(t *testing.T) {
	app, _ := newCounterApp(t, "ckreg", nil)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := app.SendToIngress(Ref{"counter", fmt.Sprintf("c%d", i%16)}, i64(1)); err != nil {
				t.Error(err)
				return
			}
			if i%64 == 63 {
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			app.Register("counter", counterFn)
			time.Sleep(time.Millisecond)
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for i := 0; i < 50; i++ {
		t0 := time.Now()
		if _, err := app.TriggerCheckpoint(); err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
		if d := time.Since(t0); d > 3*time.Second {
			t.Fatalf("checkpoint %d took %v", i, d)
		}
	}
}
