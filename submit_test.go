package tca

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"tca/internal/fabric"
	"tca/internal/workload"
)

// Tests for the asynchronous invocation surface: Invoke ≡ Submit.Result on
// every cell, concurrent submissions through Sessions settle to the serial
// reference, core handles survive crash-replay exactly once, concurrent
// core submissions share group log appends, and OrderKeys sessions get
// read-your-writes on the eventual cell.

// TestInvokeIsSubmitResult drives the identical seeded bank stream twice
// per model — once through Invoke, once through Submit(...).Result() — and
// requires op-for-op equal outcomes and equal settled state: the blocking
// call is nothing but the async one awaited.
func TestInvokeIsSubmitResult(t *testing.T) {
	const accounts, ops = 4, 40
	for _, model := range allModels {
		t.Run(model.String(), func(t *testing.T) {
			mkCell := func(seed int64) Cell {
				cell, err := Deploy(model, BankApp(), NewEnv(seed, 3))
				if err != nil {
					t.Fatal(err)
				}
				for a := 0; a < accounts; a++ {
					args, _ := json.Marshal(bankDepositArgs{Account: a, Amount: 500})
					if _, err := cell.Invoke(fmt.Sprintf("seed-%d", a), "deposit", args, nil); err != nil {
						t.Fatal(err)
					}
				}
				if err := cell.Settle(); err != nil {
					t.Fatal(err)
				}
				return cell
			}
			byInvoke, bySubmit := mkCell(31), mkCell(31)
			defer byInvoke.Close()
			defer bySubmit.Close()
			gen1, gen2 := workload.NewBank(37, accounts, 0.3), workload.NewBank(37, accounts, 0.3)
			for i := 0; i < ops; i++ {
				op1, op2 := gen1.Next(), gen2.Next()
				args1, _ := json.Marshal(bankTransferArgs{From: op1.From, To: op1.To, Amount: op1.Amount})
				args2, _ := json.Marshal(bankTransferArgs{From: op2.From, To: op2.To, Amount: op2.Amount})
				r1, err1 := byInvoke.Invoke(fmt.Sprintf("t%d", i), "transfer", args1, nil)
				r2, err2 := bySubmit.Submit(fmt.Sprintf("t%d", i), "transfer", args2, nil).Result()
				if (err1 == nil) != (err2 == nil) || string(r1) != string(r2) {
					t.Fatalf("op %d diverged: invoke=(%q,%v) submit=(%q,%v)", i, r1, err1, r2, err2)
				}
			}
			if err := byInvoke.Settle(); err != nil {
				t.Fatal(err)
			}
			if err := bySubmit.Settle(); err != nil {
				t.Fatal(err)
			}
			for a := 0; a < accounts; a++ {
				v1, _, err := byInvoke.Read(acctKey(a))
				if err != nil {
					t.Fatal(err)
				}
				v2, _, err := bySubmit.Read(acctKey(a))
				if err != nil {
					t.Fatal(err)
				}
				if DecodeInt(v1) != DecodeInt(v2) {
					t.Fatalf("acct %d: invoke=%d submit=%d", a, DecodeInt(v1), DecodeInt(v2))
				}
			}
		})
	}
}

// TestConcurrentSubmitMatchesSerialReference is the concurrency
// conformance property: N client goroutines pipeline one seeded social
// stream through Sessions on every cell, and the settled state must equal
// the serial reference. The social state model commutes (bounded-list
// merges, ±1 edge deltas), so any serializable — or merely exactly-once —
// execution of the accepted ops lands on the reference state regardless
// of interleaving; a mismatch means lost, duplicated, or torn delivery
// under concurrency. Run under -race in CI, this is also the data-race
// gauntlet for every cell's Submit path.
func TestConcurrentSubmitMatchesSerialReference(t *testing.T) {
	const users, fanout, ops, clients = 32, 8, 160, 8
	gen := workload.NewSocial(17, users, fanout)
	stream := make([]workload.SocialOp, ops)
	for i := range stream {
		stream[i] = gen.Next()
	}
	for _, model := range allModels {
		t.Run(model.String(), func(t *testing.T) {
			env := NewEnv(19, 3)
			cell, err := DeployWith(model, SocialApp(), env, Options{Clients: clients, Partitions: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer cell.Close()
			var mu sync.Mutex
			accepted := make([]bool, ops)
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					sess := NewSession(cell, fmt.Sprintf("client-%d", c), SessionOptions{MaxInFlight: 4})
					handles := make(map[int]Handle)
					for i := c; i < ops; i += clients {
						args, _ := json.Marshal(stream[i])
						handles[i] = sess.Submit(SocialOpName(stream[i]), args, nil)
					}
					sess.Drain()
					mu.Lock()
					for i, h := range handles {
						_, err := h.Result()
						accepted[i] = err == nil
					}
					mu.Unlock()
				}(c)
			}
			wg.Wait()
			audit := NewSocialAuditor()
			for i, op := range stream {
				if accepted[i] {
					audit.RecordOp(op)
				} else if model != Actors {
					// Only the lock-based cell may abort (retries exhausted
					// under contention); everywhere else every op must apply.
					t.Errorf("op %d rejected on %v", i, model)
				}
			}
			anomalies, err := audit.Verify(cell)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range anomalies {
				t.Errorf("divergence from serial reference: %s", a)
			}
		})
	}
}

// TestCoreHandlesResolveExactlyOnceAcrossCrashReplay pins the handle
// contract of the deterministic cell: a handle exists only once its
// request is durably appended, so crashing the runtime with handles in
// flight and recovering must resolve every one of them — exactly once
// (double resolution would close a closed channel and panic), with the
// effects applied exactly once, and with later retries of the same
// request ids served from the result cache without re-execution. The
// contract must hold identically whether durability is the modeled
// SequenceDelay or the real write-ahead log (Options.LogDir), so the
// same body runs against both.
func TestCoreHandlesResolveExactlyOnceAcrossCrashReplay(t *testing.T) {
	t.Run("model", func(t *testing.T) {
		// SequenceDelay slows the paced log consumption so the crash
		// lands with most handles still unresolved.
		crashReplayHandles(t, Options{SequenceDelay: 300 * time.Microsecond})
	})
	t.Run("wal", func(t *testing.T) {
		// The real log: handles acknowledge after a fsynced group append,
		// and recovery replays from disk through Merkle verification.
		crashReplayHandles(t, Options{LogDir: t.TempDir(), Fsync: FsyncEveryBatch})
	})
}

func crashReplayHandles(t *testing.T, opts Options) {
	const ops, accounts, amount = 40, 4, 5
	env := NewEnv(21, 3)
	cell, err := DeployWith(Deterministic, BankApp(), env, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cell.Close()
	rt := CoreRuntime(cell)
	argsFor := func(i int) []byte {
		args, _ := json.Marshal(bankDepositArgs{Account: i % accounts, Amount: amount})
		return args
	}
	handles := make([]Handle, ops)
	for i := range handles {
		handles[i] = cell.Submit(fmt.Sprintf("cr-%d", i), "deposit", argsFor(i), nil)
	}
	rt.Crash()
	if err := rt.Recover(); err != nil {
		t.Fatal(err)
	}
	for i, h := range handles {
		if _, err := h.Result(); err != nil {
			t.Fatalf("handle %d failed across crash-replay: %v", i, err)
		}
	}
	if err := cell.Settle(); err != nil {
		t.Fatal(err)
	}
	total := func() int64 {
		var sum int64
		for a := 0; a < accounts; a++ {
			raw, _, err := cell.Read(acctKey(a))
			if err != nil {
				t.Fatal(err)
			}
			sum += DecodeInt(raw)
		}
		return sum
	}
	if got := total(); got != ops*amount {
		t.Fatalf("replayed total = %d, want %d (lost or double-applied deposits)", got, ops*amount)
	}
	// Client retries of the same request ids: served from the result
	// cache, nothing re-applies.
	for i := 0; i < ops; i++ {
		if _, err := cell.Invoke(fmt.Sprintf("cr-%d", i), "deposit", argsFor(i), nil); err != nil {
			t.Fatalf("retry %d: %v", i, err)
		}
	}
	if err := cell.Settle(); err != nil {
		t.Fatal(err)
	}
	if got := total(); got != ops*amount {
		t.Fatalf("total after retries = %d, want %d (dedup failed)", got, ops*amount)
	}
	if rt.Metrics().Counter("core.dedup_hits").Value() == 0 {
		t.Fatal("retries were not served from the result cache")
	}
}

// TestCoreConcurrentSubmissionsShareGroupAppends pins the batching
// behavior the concurrency matrix relies on: pipelined clients submitting
// concurrently must land in shared group log appends (one record, many
// transactions, one modeled SequenceDelay) — and the grouped execution
// must still apply every op exactly once.
func TestCoreConcurrentSubmissionsShareGroupAppends(t *testing.T) {
	const clients, perClient, accounts = 8, 40, 4
	env := NewEnv(23, 3)
	cell, err := DeployWith(Deterministic, BankApp(), env,
		Options{Workers: 16, SequenceDelay: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cell.Close()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sess := NewSession(cell, fmt.Sprintf("g%d", c), SessionOptions{MaxInFlight: 8})
			for i := 0; i < perClient; i++ {
				args, _ := json.Marshal(bankDepositArgs{Account: i % accounts, Amount: 1})
				sess.Submit("deposit", args, nil)
			}
			sess.Drain()
			if sess.Errors() != 0 {
				t.Errorf("client %d: %d submissions failed", c, sess.Errors())
			}
		}(c)
	}
	wg.Wait()
	if err := cell.Settle(); err != nil {
		t.Fatal(err)
	}
	rt := CoreRuntime(cell)
	if rt.Metrics().Counter("core.group_appends").Value() == 0 {
		t.Fatal("no group appends despite 8 pipelined clients")
	}
	var sum int64
	for a := 0; a < accounts; a++ {
		raw, _, err := cell.Read(acctKey(a))
		if err != nil {
			t.Fatal(err)
		}
		sum += DecodeInt(raw)
	}
	if sum != clients*perClient {
		t.Fatalf("total = %d, want %d", sum, clients*perClient)
	}
}

// TestSessionOrderKeysReadYourWrites pins what OrderKeys buys on the
// eventual cell: a read submitted through the same session after a write
// to an overlapping key must observe the write — the result record orders
// after the write batch in the key's partition log, so the read's gather
// sees it. Without client-side ordering the dataflow cell makes no
// such promise.
func TestSessionOrderKeysReadYourWrites(t *testing.T) {
	env := NewEnv(25, 3)
	cell, err := Deploy(StatefulDataflow, SocialApp(), env)
	if err != nil {
		t.Fatal(err)
	}
	defer cell.Close()
	sess := NewSession(cell, "ryw", SessionOptions{MaxInFlight: 8, OrderKeys: true})
	for post := int64(1); post <= 10; post++ {
		op := workload.SocialOp{Kind: workload.SocialPost, Author: 0, PostID: post, Followers: []int{1, 2}}
		args, _ := json.Marshal(op)
		sess.Submit(SocialComposePost, args, nil)
		qargs, _ := json.Marshal(socialTimelineArgs{User: 1})
		raw, err := sess.Invoke(SocialReadTimeline, qargs, nil)
		if err != nil {
			t.Fatalf("post %d: read-timeline: %v", post, err)
		}
		if !containsInt64(DecodeIntList(raw), post) {
			t.Fatalf("post %d: session read %v missed its own write", post, DecodeIntList(raw))
		}
	}
	sess.Drain()
	if sess.Errors() != 0 {
		t.Fatalf("%d submissions failed", sess.Errors())
	}
}

// idCell records the request ids submitted to it and resolves every
// submission at once.
type idCell struct {
	mapCell
	mu  sync.Mutex
	ids []string
}

func (c *idCell) Submit(reqID, _ string, _ []byte, _ *fabric.Trace) Handle {
	c.mu.Lock()
	c.ids = append(c.ids, reqID)
	c.mu.Unlock()
	return resolvedHandle(nil, nil)
}

// TestSessionRequestIDs pins the session request-id format: <id>/<n> with
// n counting up from 1, so sessions whose ids prefix each other (s1, s11)
// never share a request id — s1's 12th op and s11's 2nd op must differ.
// Per-session exactly-once windows rely on this format. The saga step ids
// built by the same helper keep fmt's bytes.
func TestSessionRequestIDs(t *testing.T) {
	const ops = 150
	seen := map[string]string{}
	for _, id := range []string{"s1", "s11"} {
		cell := &idCell{}
		sess := NewSession(cell, id, SessionOptions{MaxInFlight: 4})
		for i := 0; i < ops; i++ {
			sess.Submit("op", nil, nil)
		}
		sess.Drain()
		if len(cell.ids) != ops {
			t.Fatalf("session %s submitted %d ids, want %d", id, len(cell.ids), ops)
		}
		for i, reqID := range cell.ids {
			if want := fmt.Sprintf("%s/%d", id, i+1); reqID != want {
				t.Fatalf("session %s op %d has request id %q, want %q", id, i, reqID, want)
			}
			if other, dup := seen[reqID]; dup {
				t.Fatalf("request id %q issued by sessions %s and %s", reqID, other, id)
			}
			seen[reqID] = id
		}
	}
	for _, n := range []int64{0, 7, 12, -3, math.MaxInt64, math.MinInt64} {
		for _, sep := range []string{"/", "/w", "/s", "/c"} {
			if got, want := workload.Join("s1/12", sep, n), fmt.Sprintf("%s%s%d", "s1/12", sep, n); got != want {
				t.Errorf("workload.Join = %q, want %q", got, want)
			}
		}
	}
}
