package faas

import (
	"errors"
	"fmt"
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
	if cold.Total() < cfg.ColdStart {
		t.Fatalf("first invocation latency %v, want >= cold start %v", cold.Total(), cfg.ColdStart)
	}
	warm := fabric.NewTrace()
	p.Invoke("fn", "k", nil, warm)
	if warm.Total() >= cfg.ColdStart {
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
	f.warm = min(n, f.pool)
	f.mu.Unlock()
	return nil
}
