package faas

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"tca/internal/fabric"
	"tca/internal/store"
)

func newPlatform(cfg Config) *Platform {
	return NewPlatform(fabric.SingleNode(), cfg)
}

func TestInvokeBasic(t *testing.T) {
	p := newPlatform(DefaultConfig())
	p.Register("echo", func(ctx *Ctx, payload []byte) ([]byte, error) {
		return append([]byte("fn:"), payload...), nil
	})
	tr := fabric.NewTrace()
	resp, err := p.Invoke("echo", "k", []byte("x"), tr)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "fn:x" {
		t.Fatalf("resp = %q", resp)
	}
}

func TestUnknownFunction(t *testing.T) {
	p := newPlatform(DefaultConfig())
	if _, err := p.Invoke("ghost", "k", nil, nil); !errors.Is(err, ErrNoFunction) {
		t.Fatalf("err = %v, want ErrNoFunction", err)
	}
}

func TestColdStartThenWarm(t *testing.T) {
	cfg := DefaultConfig()
	p := newPlatform(cfg)
	p.Register("fn", func(ctx *Ctx, payload []byte) ([]byte, error) { return nil, nil })

	cold := fabric.NewTrace()
	p.Invoke("fn", "k", nil, cold)
	if cold.Total() < coldStart {
		t.Fatalf("first invocation latency %v, want >= cold start %v", cold.Total(), coldStart)
	}
	warm := fabric.NewTrace()
	p.Invoke("fn", "k", nil, warm)
	if warm.Total() >= coldStart {
		t.Fatalf("second invocation latency %v should not pay the cold start", warm.Total())
	}
	if got := p.Metrics().Counter("faas.cold_starts").Value(); got != 1 {
		t.Fatalf("cold_starts = %d, want 1", got)
	}
	if got := p.Metrics().Counter("faas.warm_starts").Value(); got != 1 {
		t.Fatalf("warm_starts = %d, want 1", got)
	}
}

func TestEvictIdleForcesColdStart(t *testing.T) {
	p := newPlatform(DefaultConfig())
	p.Register("fn", func(ctx *Ctx, payload []byte) ([]byte, error) { return nil, nil })
	p.Invoke("fn", "k", nil, nil) // cold
	p.Invoke("fn", "k", nil, nil) // warm
	if err := p.EvictIdle("fn"); err != nil {
		t.Fatal(err)
	}
	p.Invoke("fn", "k", nil, nil) // cold again
	if got := p.Metrics().Counter("faas.cold_starts").Value(); got != 2 {
		t.Fatalf("cold_starts = %d, want 2 after eviction", got)
	}
}

func TestWarmProvisioning(t *testing.T) {
	p := newPlatform(DefaultConfig())
	p.Register("fn", func(ctx *Ctx, payload []byte) ([]byte, error) { return nil, nil })
	if err := p.Warm("fn", 4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		p.Invoke("fn", "k", nil, nil)
	}
	if got := p.Metrics().Counter("faas.cold_starts").Value(); got != 0 {
		t.Fatalf("cold_starts = %d, want 0 with provisioned concurrency", got)
	}
}

func TestConcurrencyThrottle(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxConcurrent = 2
	p := newPlatform(cfg)
	block := make(chan struct{})
	p.Register("slow", func(ctx *Ctx, payload []byte) ([]byte, error) {
		<-block
		return nil, nil
	})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Invoke("slow", "k", nil, nil)
		}()
	}
	time.Sleep(20 * time.Millisecond) // let both invocations occupy slots
	_, err := p.Invoke("slow", "k", nil, nil)
	close(block)
	wg.Wait()
	if !errors.Is(err, ErrThrottled) {
		t.Fatalf("err = %v, want ErrThrottled", err)
	}
}

func TestInvokeIDExactlyOncePerOperation(t *testing.T) {
	p := newPlatform(DefaultConfig())
	var calls int
	var mu sync.Mutex
	p.Register("op", func(ctx *Ctx, payload []byte) ([]byte, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		return []byte("done"), nil
	})
	r1, err := p.InvokeID("op-1", "op", "k", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p.InvokeID("op-1", "op", "k", nil, nil) // replay
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 1 {
		t.Fatalf("handler ran %d times, want 1", calls)
	}
	if string(r1) != "done" || string(r2) != "done" {
		t.Fatalf("responses %q, %q", r1, r2)
	}
}

func TestFunctionComposition(t *testing.T) {
	p := newPlatform(DefaultConfig())
	p.Register("inner", func(ctx *Ctx, payload []byte) ([]byte, error) {
		return []byte("inner-result"), nil
	})
	p.Register("outer", func(ctx *Ctx, payload []byte) ([]byte, error) {
		return ctx.Call("inner", ctx.Key, payload)
	})
	resp, err := p.Invoke("outer", "k", nil, fabric.NewTrace())
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "inner-result" {
		t.Fatalf("resp = %q", resp)
	}
}

func TestStopRejects(t *testing.T) {
	p := newPlatform(DefaultConfig())
	p.Register("fn", func(ctx *Ctx, payload []byte) ([]byte, error) { return nil, nil })
	p.Stop()
	if _, err := p.Invoke("fn", "k", nil, nil); !errors.Is(err, ErrPlatformDown) {
		t.Fatalf("err = %v, want ErrPlatformDown", err)
	}
}

// --- entities ---------------------------------------------------------------

func TestEntitySignalAtomicRMW(t *testing.T) {
	p := newPlatform(DefaultConfig())
	em := p.entities
	id := EntityID{"account", "a"}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				em.Signal(id, func(state store.Row) (store.Row, error) {
					if state == nil {
						state = store.Row{"n": int64(0)}
					}
					return store.Row{"n": state.Int("n") + 1}, nil
				})
			}
		}()
	}
	wg.Wait()
	row, ok, err := em.Read(id)
	if err != nil || !ok {
		t.Fatalf("Read = %v,%v,%v", row, ok, err)
	}
	if row.Int("n") != 800 {
		t.Fatalf("n = %d, want 800 (signals must serialize)", row.Int("n"))
	}
}

func TestEntitySignalErrorLeavesState(t *testing.T) {
	p := newPlatform(DefaultConfig())
	em := p.entities
	id := EntityID{"x", "1"}
	em.Signal(id, func(store.Row) (store.Row, error) { return store.Row{"v": int64(1)}, nil })
	boom := errors.New("no")
	if err := em.Signal(id, func(store.Row) (store.Row, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	row, _, _ := em.Read(id)
	if row.Int("v") != 1 {
		t.Fatalf("state changed on failed signal: %v", row)
	}
}

func TestCriticalSectionTransfer(t *testing.T) {
	p := newPlatform(DefaultConfig())
	em := p.entities
	a, b := EntityID{"account", "a"}, EntityID{"account", "b"}
	em.Signal(a, func(store.Row) (store.Row, error) { return store.Row{"bal": int64(100)}, nil })
	em.Signal(b, func(store.Row) (store.Row, error) { return store.Row{"bal": int64(100)}, nil })

	cs := em.Lock(a, b)
	ra, _, _ := cs.Get(a)
	rb, _, _ := cs.Get(b)
	cs.Update(a, func(store.Row) (store.Row, error) {
		return store.Row{"bal": ra.Int("bal") - 40}, nil
	})
	cs.Update(b, func(store.Row) (store.Row, error) {
		return store.Row{"bal": rb.Int("bal") + 40}, nil
	})
	cs.Unlock()

	ra, _, _ = em.Read(a)
	rb, _, _ = em.Read(b)
	if ra.Int("bal") != 60 || rb.Int("bal") != 140 {
		t.Fatalf("balances = %d, %d; want 60, 140", ra.Int("bal"), rb.Int("bal"))
	}
}

func TestCriticalSectionRejectsUnlockedEntity(t *testing.T) {
	p := newPlatform(DefaultConfig())
	em := p.entities
	a, c := EntityID{"x", "a"}, EntityID{"x", "c"}
	cs := em.Lock(a)
	defer cs.Unlock()
	if err := cs.Update(c, func(store.Row) (store.Row, error) { return nil, nil }); !errors.Is(err, ErrNotInCriticalSection) {
		t.Fatalf("err = %v, want ErrNotInCriticalSection", err)
	}
}

func TestCriticalSectionAfterUnlock(t *testing.T) {
	p := newPlatform(DefaultConfig())
	em := p.entities
	a := EntityID{"x", "a"}
	cs := em.Lock(a)
	cs.Unlock()
	cs.Unlock() // idempotent
	if err := cs.Update(a, func(store.Row) (store.Row, error) { return nil, nil }); !errors.Is(err, ErrNotInCriticalSection) {
		t.Fatalf("Update after Unlock = %v", err)
	}
}

func TestCriticalSectionsNoDeadlockOppositeOrders(t *testing.T) {
	// Sorted acquisition means opposite declaration orders cannot deadlock.
	p := newPlatform(DefaultConfig())
	em := p.entities
	a, b := EntityID{"acc", "a"}, EntityID{"acc", "b"}
	em.Signal(a, func(store.Row) (store.Row, error) { return store.Row{"bal": int64(0)}, nil })
	em.Signal(b, func(store.Row) (store.Row, error) { return store.Row{"bal": int64(0)}, nil })
	var wg sync.WaitGroup
	transfer := func(first, second EntityID) {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			cs := em.Lock(first, second)
			cs.Update(first, func(s store.Row) (store.Row, error) {
				return store.Row{"bal": s.Int("bal") - 1}, nil
			})
			cs.Update(second, func(s store.Row) (store.Row, error) {
				return store.Row{"bal": s.Int("bal") + 1}, nil
			})
			cs.Unlock()
		}
	}
	wg.Add(2)
	go transfer(a, b)
	go transfer(b, a) // opposite order
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("deadlock: opposite-order critical sections never finished")
	}
	ra, _, _ := em.Read(a)
	rb, _, _ := em.Read(b)
	if ra.Int("bal")+rb.Int("bal") != 0 {
		t.Fatalf("conservation violated: %d + %d != 0", ra.Int("bal"), rb.Int("bal"))
	}
}

// txnsBegun returns how many store transactions db began since the one
// whose id is since, and the id to pass next time: Begin hands out
// consecutive ids.
func txnsBegun(db *store.DB, since uint64) (n, id uint64) {
	tx := db.Begin(store.ReadCommitted)
	defer tx.Abort()
	return tx.ID() - since - 1, tx.ID()
}

func TestCriticalSectionIsOneTransaction(t *testing.T) {
	p := newPlatform(DefaultConfig())
	em := p.entities
	ids := []EntityID{{"acc", "a"}, {"acc", "b"}, {"acc", "c"}}
	bump := func(s store.Row) (store.Row, error) { return store.Row{"n": s.Int("n") + 1}, nil }
	_, id := txnsBegun(em.db, 0)
	commits := em.db.Commits.Load()

	cs := em.Lock(ids...)
	for _, e := range append(ids, ids[0]) {
		if err := cs.Update(e, bump); err != nil {
			t.Fatal(err)
		}
	}
	if row, _, _ := cs.Get(ids[0]); row.Int("n") != 2 {
		t.Fatalf("Get after two Updates in the section = %v, want n=2", row)
	}
	if err := cs.Unlock(); err != nil {
		t.Fatal(err)
	}
	var begun uint64
	if begun, id = txnsBegun(em.db, id); begun != 1 {
		t.Fatalf("a section with 4 Updates began %d store transactions, want 1", begun)
	}
	if got := em.db.Commits.Load() - commits; got != 1 {
		t.Fatalf("a section with 4 Updates made %d commits, want 1", got)
	}

	commits = em.db.Commits.Load()
	cs = em.Lock(ids...)
	if _, _, err := cs.Get(ids[1]); err != nil {
		t.Fatal(err)
	}
	if err := cs.Unlock(); err != nil {
		t.Fatal(err)
	}
	if begun, _ = txnsBegun(em.db, id); begun != 1 {
		t.Fatalf("a read-only section began %d store transactions, want 1", begun)
	}
	if got := em.db.Commits.Load() - commits; got != 0 {
		t.Fatalf("a read-only section made %d commits, want 0", got)
	}
}

func TestCriticalSectionFailedUpdateCommitsNothing(t *testing.T) {
	p := newPlatform(DefaultConfig())
	em := p.entities
	a, b, stray := EntityID{"acc", "a"}, EntityID{"acc", "b"}, EntityID{"acc", "z"}
	boom := errors.New("insufficient funds")
	for _, tc := range []struct {
		name string
		fail func(cs *CriticalSection) error
		want error
	}{
		{"fn error", func(cs *CriticalSection) error {
			return cs.Update(b, func(store.Row) (store.Row, error) { return nil, boom })
		}, boom},
		{"undeclared entity", func(cs *CriticalSection) error {
			return cs.Update(stray, func(store.Row) (store.Row, error) { return store.Row{"n": int64(1)}, nil })
		}, ErrNotInCriticalSection},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cs := em.Lock(a, b)
			if err := cs.Update(a, func(store.Row) (store.Row, error) { return store.Row{"n": int64(1)}, nil }); err != nil {
				t.Fatal(err)
			}
			if err := tc.fail(cs); !errors.Is(err, tc.want) {
				t.Fatalf("failing Update = %v, want %v", err, tc.want)
			}
			// A later Update that succeeds does not clear the failure.
			if err := cs.Update(b, func(store.Row) (store.Row, error) { return store.Row{"n": int64(1)}, nil }); err != nil {
				t.Fatal(err)
			}
			if err := cs.Unlock(); !errors.Is(err, tc.want) {
				t.Fatalf("Unlock = %v, want the failed Update's %v", err, tc.want)
			}
			for _, id := range []EntityID{a, b, stray} {
				if row, found, _ := em.Read(id); found {
					t.Fatalf("%s = %v after a section whose Update failed, want absent", id, row)
				}
			}
		})
	}
}

// TestCriticalSectionTransferNeverTorn reads two accounts in one snapshot
// while sections move money between them: every snapshot must see each
// transfer whole.
func TestCriticalSectionTransferNeverTorn(t *testing.T) {
	p := newPlatform(DefaultConfig())
	em := p.entities
	a, b := EntityID{"acc", "a"}, EntityID{"acc", "b"}
	move := func(delta int64) func(store.Row) (store.Row, error) {
		return func(s store.Row) (store.Row, error) { return store.Row{"bal": s.Int("bal") + delta}, nil }
	}
	em.Signal(a, move(100))
	em.Signal(b, move(100))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			cs := em.Lock(a, b)
			cs.Update(a, move(-1))
			runtime.Gosched() // let the reader in mid-transfer
			cs.Update(b, move(1))
			if err := cs.Unlock(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for reads := 0; ; reads++ {
		select {
		case <-done:
			return
		default:
			runtime.Gosched()
		}
		var sum int64
		err := em.db.View(func(tx *store.Txn) error {
			for _, id := range []EntityID{a, b} {
				row, _, err := tx.Get(id.Type, id.ID)
				if err != nil {
					return err
				}
				sum += row.Int("bal")
			}
			return nil
		})
		if err == nil && sum != 200 {
			err = fmt.Errorf("snapshot %d saw a torn transfer: a+b = %d, want 200", reads, sum)
		}
		if err != nil {
			<-done
			t.Fatal(err)
		}
	}
}

// TestCriticalSectionsOverTwoTypesNeverDeadlock runs concurrent sections
// over overlapping entity sets of two types, each listing its entities in
// a random order. The types are "x" and "x0": by (Type, ID) every "x"
// entity comes first, by the Type@ID name every "x0" entity does, so a
// section that sorted by one and another that sorted by the other would
// deadlock. Every section holds its entities in (Type, ID) order, and the
// transfers conserve the total.
func TestCriticalSectionsOverTwoTypesNeverDeadlock(t *testing.T) {
	p := newPlatform(DefaultConfig())
	em := p.entities
	var ids []EntityID
	for _, typ := range []string{"x", "x0"} {
		for i := 0; i < 4; i++ {
			ids = append(ids, EntityID{typ, fmt.Sprint(i)})
		}
	}
	add := func(delta int64) func(store.Row) (store.Row, error) {
		return func(s store.Row) (store.Row, error) { return store.Row{"n": s.Int("n") + delta}, nil }
	}
	const workers, sections = 8, 300
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < sections; i++ {
				set := make([]EntityID, 0, 3)
				for _, k := range rng.Perm(len(ids))[:3] {
					set = append(set, ids[k])
				}
				cs := em.Lock(set...)
				if !slices.IsSortedFunc(cs.held, func(a, b heldEntity) int {
					return cmp.Or(strings.Compare(a.id.Type, b.id.Type), strings.Compare(a.id.ID, b.id.ID))
				}) {
					cs.Unlock()
					errs <- fmt.Errorf("section holds %v, not in (Type, ID) order", cs.held)
					return
				}
				cs.Update(set[0], add(-2))
				runtime.Gosched()
				cs.Update(set[1], add(1))
				cs.Update(set[2], add(1))
				if err := cs.Unlock(); err != nil {
					errs <- err
					return
				}
			}
		}(int64(w))
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("critical sections over two entity types deadlocked")
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var sum int64
	for _, id := range ids {
		row, _, err := em.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		sum += row.Int("n")
	}
	if sum != 0 {
		t.Fatalf("entities sum to %d after transfers, want 0", sum)
	}
}

// --- shared causal store ------------------------------------------------------

func TestSharedReadYourWrites(t *testing.T) {
	s := NewSharedStore()
	se := s.NewSession("client-1")
	se.Put("k", []byte("v1"))
	v, ok := se.Get("k")
	if !ok || string(v) != "v1" {
		t.Fatalf("Get = %q,%v", v, ok)
	}
}

func TestSharedCausalContextGrows(t *testing.T) {
	s := NewSharedStore()
	w := s.NewSession("writer")
	w.Put("a", []byte("1"))
	r := s.NewSession("reader")
	r.Get("a") // reader now depends on writer's event
	if len(r.Context()) == 0 {
		t.Fatal("read did not merge causal context")
	}
}

func TestStaleReplicaViolationDetected(t *testing.T) {
	s := NewSharedStore()
	se := s.NewSession("c")
	se.Put("k", []byte("old"))
	replica := s.StaleReplica() // frozen now
	se.Put("k", []byte("new"))  // primary advances
	se.Get("k")                 // session causally depends on "new"

	_, ok, violation := se.ReadFromReplica(replica, "k")
	if !ok {
		t.Fatal("replica missing key")
	}
	if !violation {
		t.Fatal("stale replica read not flagged as causal violation")
	}
	if s.StaleReads() != 1 {
		t.Fatalf("StaleReads = %d, want 1", s.StaleReads())
	}
}

func TestFreshReplicaReadNoViolation(t *testing.T) {
	s := NewSharedStore()
	se := s.NewSession("c")
	se.Put("k", []byte("v"))
	replica := s.StaleReplica() // contains the session's latest write
	_, ok, violation := se.ReadFromReplica(replica, "k")
	if !ok || violation {
		t.Fatalf("fresh replica read: ok=%v violation=%v", ok, violation)
	}
}

func TestCausalGetOnPrimaryNeverViolates(t *testing.T) {
	s := NewSharedStore()
	a := s.NewSession("a")
	b := s.NewSession("b")
	for i := 0; i < 50; i++ {
		a.Put("k", []byte{byte(i)})
		if _, ok, violation := b.CausalGet("k"); !ok || violation {
			t.Fatalf("primary read %d: ok=%v violation=%v", i, ok, violation)
		}
	}
}

func TestSharedSessionInvocationIntegration(t *testing.T) {
	p := newPlatform(DefaultConfig())
	p.Register("writer", func(ctx *Ctx, payload []byte) ([]byte, error) {
		ctx.Shared().Put("greeting", payload)
		return nil, nil
	})
	p.Register("reader", func(ctx *Ctx, payload []byte) ([]byte, error) {
		v, _ := ctx.Shared().Get("greeting")
		return v, nil
	})
	if _, err := p.Invoke("writer", "w", []byte("hello"), nil); err != nil {
		t.Fatal(err)
	}
	v, err := p.Invoke("reader", "r", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "hello" {
		t.Fatalf("shared read = %q", v)
	}
}

// Warm pre-provisions n warm containers (provisioned concurrency).
func (p *Platform) Warm(fn string, n int) error {
	p.mu.RLock()
	f, ok := p.fns[fn]
	p.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoFunction, fn)
	}
	f.mu.Lock()
	f.warm = min(n, warmPool)
	f.mu.Unlock()
	return nil
}
