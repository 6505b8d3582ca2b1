package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
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

func toI64(b []byte) int64 {
	if len(b) < 8 {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

// newBankRuntime registers deposit/transfer/read functions over account
// keys "acc/<n>".
func newBankRuntime(t *testing.T, name string) *Runtime {
	t.Helper()
	return newBankRuntimeParts(t, name, 1)
}

// newBankRuntimeParts is newBankRuntime sharded across partitions.
func newBankRuntimeParts(t *testing.T, name string, partitions int) *Runtime {
	t.Helper()
	r := NewRuntime(mq.NewBroker(), Config{Name: name, Workers: 8, Partitions: partitions})
	registerBank(r)
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	return r
}

// registerBank installs the deposit/transfer functions shared by the
// runtime tests (including the durable-log suite, which builds its own
// runtimes over their own log dirs).
func registerBank(r *Runtime) {
	r.Register("deposit", func(tx *Tx, args []byte) ([]byte, error) {
		key := fmt.Sprintf("acc/%d", toI64(args[8:]))
		cur, _, err := tx.Get(key)
		if err != nil {
			return nil, err
		}
		next := toI64(cur) + toI64(args[:8])
		return i64(next), tx.Put(key, i64(next))
	})
	r.Register("transfer", func(tx *Tx, args []byte) ([]byte, error) {
		amount := toI64(args[:8])
		from := fmt.Sprintf("acc/%d", toI64(args[8:16]))
		to := fmt.Sprintf("acc/%d", toI64(args[16:24]))
		fb, _, err := tx.Get(from)
		if err != nil {
			return nil, err
		}
		if toI64(fb) < amount {
			return nil, errors.New("insufficient funds")
		}
		tb, _, err := tx.Get(to)
		if err != nil {
			return nil, err
		}
		if err := tx.Put(from, i64(toI64(fb)-amount)); err != nil {
			return nil, err
		}
		return nil, tx.Put(to, i64(toI64(tb)+amount))
	})
}

func deposit(t *testing.T, r *Runtime, req string, acc, amount int64) {
	t.Helper()
	args := append(i64(amount), i64(acc)...)
	if _, err := r.Submit(req, "deposit", []string{fmt.Sprintf("acc/%d", acc)}, args, nil); err != nil {
		t.Fatal(err)
	}
}

func transfer(r *Runtime, req string, from, to, amount int64) error {
	args := append(append(i64(amount), i64(from)...), i64(to)...)
	keys := []string{fmt.Sprintf("acc/%d", from), fmt.Sprintf("acc/%d", to)}
	_, err := r.Submit(req, "transfer", keys, args, nil)
	return err
}

func balance(r *Runtime, acc int64) int64 {
	v, _ := r.Read(fmt.Sprintf("acc/%d", acc))
	return toI64(v)
}

func TestSubmitCommit(t *testing.T) {
	r := newBankRuntime(t, "t1")
	deposit(t, r, "d1", 0, 100)
	if got := balance(r, 0); got != 100 {
		t.Fatalf("balance = %d, want 100", got)
	}
}

func TestAbortAppliesNothing(t *testing.T) {
	r := newBankRuntime(t, "t2")
	deposit(t, r, "d1", 0, 10)
	err := transfer(r, "t-fail", 0, 1, 1000) // insufficient funds
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	if balance(r, 0) != 10 || balance(r, 1) != 0 {
		t.Fatalf("aborted txn mutated state: %d, %d", balance(r, 0), balance(r, 1))
	}
}

func TestSubmitIdempotent(t *testing.T) {
	r := newBankRuntime(t, "t3")
	deposit(t, r, "same-req", 0, 50)
	deposit(t, r, "same-req", 0, 50) // client retry: same request id
	if got := balance(r, 0); got != 50 {
		t.Fatalf("balance = %d, want 50 (duplicate submit must not re-apply)", got)
	}
	if got := r.Metrics().Counter("core.dedup_hits").Value(); got != 1 {
		t.Fatalf("dedup_hits = %d, want 1", got)
	}
}

func TestUndeclaredKeyRejected(t *testing.T) {
	r := newBankRuntime(t, "t4")
	r.Register("sneaky", func(tx *Tx, args []byte) ([]byte, error) {
		_, _, err := tx.Get("acc/999") // not declared
		return nil, err
	})
	_, err := r.Submit("s1", "sneaky", []string{"acc/0"}, nil, nil)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want abort from undeclared access", err)
	}
}

func TestUnknownFunction(t *testing.T) {
	r := newBankRuntime(t, "t5")
	if _, err := r.Submit("x", "ghost", []string{"k"}, nil, nil); !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v", err)
	}
}

func TestSerializabilityMoneyConservation(t *testing.T) {
	r := newBankRuntime(t, "t6")
	const accounts = 8
	for a := int64(0); a < accounts; a++ {
		deposit(t, r, fmt.Sprintf("seed-%d", a), a, 1000)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				from := int64((w + i) % accounts)
				to := int64((w + i + 1) % accounts)
				transfer(r, fmt.Sprintf("w%d-i%d", w, i), from, to, 3)
			}
		}(w)
	}
	wg.Wait()
	if err := r.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	var total int64
	for a := int64(0); a < accounts; a++ {
		total += balance(r, a)
	}
	if total != accounts*1000 {
		t.Fatalf("total = %d, want %d", total, accounts*1000)
	}
}

func TestDisjointKeysRunInParallel(t *testing.T) {
	// Two slow transactions on disjoint keys should overlap; on the same
	// key they must serialize. Measure wall time to tell the difference.
	r := NewRuntime(mq.NewBroker(), Config{Name: "t7", Workers: 4})
	const step = 20 * time.Millisecond
	r.Register("slow", func(tx *Tx, args []byte) ([]byte, error) {
		time.Sleep(step)
		return nil, tx.Put(string(args), []byte("done"))
	})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	run := func(keys [2]string) time.Duration {
		start := time.Now()
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				r.Submit(fmt.Sprintf("%s-%d-%d", keys[i], i, time.Now().UnixNano()), "slow", []string{keys[i]}, []byte(keys[i]), nil)
			}(i)
		}
		wg.Wait()
		return time.Since(start)
	}
	disjoint := run([2]string{"a", "b"})
	conflict := run([2]string{"c", "c"})
	if disjoint >= 2*step {
		t.Fatalf("disjoint keys did not parallelize: %v", disjoint)
	}
	if conflict < 2*step {
		t.Fatalf("conflicting keys did not serialize: %v", conflict)
	}
}

func TestCheckpointRecoverExactlyOnce(t *testing.T) {
	r := newBankRuntime(t, "t8")
	deposit(t, r, "d1", 0, 100)
	if _, err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	deposit(t, r, "d2", 0, 50) // after the checkpoint
	r.Crash()
	if err := r.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := r.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := balance(r, 0); got != 150 {
		t.Fatalf("balance = %d, want 150 (replay must be exactly-once)", got)
	}
}

func TestRecoverWithoutCheckpointReplaysAll(t *testing.T) {
	r := newBankRuntime(t, "t9")
	deposit(t, r, "d1", 0, 7)
	deposit(t, r, "d2", 0, 8)
	r.Crash()
	if err := r.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := r.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := balance(r, 0); got != 15 {
		t.Fatalf("balance = %d, want 15", got)
	}
}

// TestModelCrashRecoverKeepsLogLengths pins model mode's input logs across
// a crash: the tails survive it, and recovery without a checkpoint
// re-sequences the whole gseq log. The partition logs' stamp watermark must
// drop every marker it re-offers, so no log grows, and every balance
// replays to its pre-crash value.
func TestModelCrashRecoverKeepsLogLengths(t *testing.T) {
	r := newBankRuntimeParts(t, "model-crash", 2)
	const accounts = 6
	for a := int64(0); a < accounts; a++ {
		deposit(t, r, fmt.Sprintf("seed%d", a), a, 100)
	}
	for i := 0; i < 12; i++ {
		if err := transfer(r, fmt.Sprintf("x%d", i), int64(i%accounts), int64((i+1)%accounts), 5); err != nil {
			t.Fatal(err)
		}
	}
	if r.Metrics().Counter("core.cross_submits").Value() == 0 {
		t.Fatal("no transfer crossed partitions")
	}
	if err := r.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	lengths := logLengths(r)
	want := make([]int64, accounts)
	for a := range want {
		want[a] = balance(r, int64(a))
	}
	r.Crash()
	if err := r.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := r.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := logLengths(r); fmt.Sprint(got) != fmt.Sprint(lengths) {
		t.Fatalf("log lengths after Crash/Recover = %v, want %v (re-sequencing re-appended markers)", got, lengths)
	}
	for a := int64(0); a < accounts; a++ {
		if got := balance(r, a); got != want[a] {
			t.Fatalf("acc %d after Crash/Recover = %d, want %d", a, got, want[a])
		}
	}
}

func TestDeterministicReplaySameResults(t *testing.T) {
	// Conflicting transfers: replay after crash must produce the same
	// final state because execution order is the log order.
	r := newBankRuntime(t, "t10")
	deposit(t, r, "seed0", 0, 100)
	deposit(t, r, "seed1", 1, 100)
	for i := 0; i < 20; i++ {
		transfer(r, fmt.Sprintf("x%d", i), int64(i%2), int64((i+1)%2), 1)
	}
	r.Quiesce(5 * time.Second)
	want0, want1 := balance(r, 0), balance(r, 1)
	r.Crash()
	r.Recover()
	r.Quiesce(5 * time.Second)
	if balance(r, 0) != want0 || balance(r, 1) != want1 {
		t.Fatalf("replay diverged: %d,%d vs %d,%d", balance(r, 0), balance(r, 1), want0, want1)
	}
}

func TestSubmitAfterStop(t *testing.T) {
	r := newBankRuntime(t, "t11")
	r.Stop()
	if _, err := r.Submit("x", "deposit", []string{"acc/0"}, append(i64(1), i64(0)...), nil); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("err = %v, want ErrNotRunning", err)
	}
}

func TestIsolationNoIntermediateStates(t *testing.T) {
	// Unlike statefun (E7), a reader transaction can never observe a
	// transfer halfway: reads are transactions too and serialize with the
	// writes they conflict with.
	r := newBankRuntime(t, "t12")
	r.Register("sum", func(tx *Tx, args []byte) ([]byte, error) {
		a, _, _ := tx.Get("acc/0")
		b, _, _ := tx.Get("acc/1")
		return i64(toI64(a) + toI64(b)), nil
	})
	deposit(t, r, "s0", 0, 500)
	deposit(t, r, "s1", 1, 500)
	var wg sync.WaitGroup
	stopRead := make(chan struct{})
	var anomalies int64
	var mu sync.Mutex
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stopRead:
				return
			default:
			}
			i++
			v, err := r.Submit(fmt.Sprintf("read-%d", i), "sum", []string{"acc/0", "acc/1"}, nil, nil)
			if err == nil && toI64(v) != 1000 {
				mu.Lock()
				anomalies++
				mu.Unlock()
			}
		}
	}()
	for i := 0; i < 100; i++ {
		transfer(r, fmt.Sprintf("tr-%d", i), int64(i%2), int64((i+1)%2), 10)
	}
	close(stopRead)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if anomalies != 0 {
		t.Fatalf("%d isolation anomalies observed; core must be serializable", anomalies)
	}
}

// TestSubmitAsyncSeqIsCommitOrder pins Result.Seq/Handle.Seq: concurrent
// conflicting submissions all get nonzero serialization stamps, and the
// per-commit results (the deposit function returns the running balance)
// sorted by Seq reproduce the serial prefix sums — the stamps are the
// runtime's commit order, including inside shared group appends, where
// members carry one TID but distinct batch-indexed stamps.
func TestSubmitAsyncSeqIsCommitOrder(t *testing.T) {
	r := newBankRuntime(t, "seqorder")
	const n = 64
	type outcome struct{ seq, bal, amt int64 }
	out := make([]outcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			amt := int64(i + 1)
			args := append(i64(amt), i64(7)...)
			h, err := r.SubmitAsync(fmt.Sprintf("seq/%d", i), "deposit", []string{"acc/7"}, args, nil)
			if err != nil {
				t.Error(err)
				return
			}
			v, err := h.Result()
			if err != nil {
				t.Error(err)
				return
			}
			out[i] = outcome{seq: h.Seq(), bal: toI64(v), amt: amt}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	sort.Slice(out, func(a, b int) bool { return out[a].seq < out[b].seq })
	var sum int64
	for _, o := range out {
		if o.seq == 0 {
			t.Fatal("committed handle has zero Seq")
		}
		sum += o.amt
		if o.bal != sum {
			t.Fatalf("balance %d at seq %d, want running sum %d: stamps disagree with commit order", o.bal, o.seq, sum)
		}
	}
}

// TestSubmitAsyncOwnsItsArgs pins that a log entry is the runtime's own:
// the caller reuses its key and args buffers as soon as SubmitAsync
// returns, and the body scribbles over the args it is handed, yet the
// recovery replay still runs the original request and rebuilds the same
// state.
func TestSubmitAsyncOwnsItsArgs(t *testing.T) {
	r := NewRuntime(mq.NewBroker(), Config{Name: "owns-args"})
	var mu sync.Mutex
	var seen []string
	r.Register("keep", func(tx *Tx, args []byte) ([]byte, error) {
		mu.Lock()
		seen = append(seen, string(args))
		mu.Unlock()
		err := tx.Put("k", append([]byte(nil), args...))
		for i := range args {
			args[i] = 'x'
		}
		return nil, err
	})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	keys, args := []string{"k"}, []byte("original")
	h, err := r.SubmitAsync("own", "keep", keys, args, nil)
	if err != nil {
		t.Fatal(err)
	}
	keys[0] = "other"
	copy(args, "XXXXXXXX")
	if _, err := h.Result(); err != nil {
		t.Fatal(err)
	}
	r.Crash()
	if err := r.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := r.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if v, _ := r.Read("k"); string(v) != "original" {
		t.Fatalf("k after Crash/Recover = %q, want %q", v, "original")
	}
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(seen) != "[original original]" {
		t.Fatalf("the live run and the replay saw args %q, want the original bytes twice", seen)
	}
}

// TestCrossAdmissionAdmitsExactlyTheBound races 64 cross-partition
// admissions against MaxPending 4 with nothing consuming: a check made
// before the count would let interleaved submitters past the bound, so
// exactly 4 must be admitted and the rest shed.
func TestCrossAdmissionAdmitsExactlyTheBound(t *testing.T) {
	r := NewRuntime(mq.NewBroker(), Config{Name: "cross-admit", Partitions: 2, MaxPending: 4})
	var admitted atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := r.admitCross(); err == nil {
				admitted.Add(1)
			} else if !errors.Is(err, ErrOverloaded) {
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := admitted.Load(); n != 4 {
		t.Fatalf("admitted %d cross-partition submissions, want exactly MaxPending = 4", n)
	}
	if shed := r.Metrics().Counter("core.shed").Value(); shed != 60 {
		t.Fatalf("core.shed = %d, want 60", shed)
	}
}
