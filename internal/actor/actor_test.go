package actor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"tca/internal/fabric"
	"tca/internal/store"
)

func newSystem(t *testing.T, nodes ...fabric.NodeID) (*System, *fabric.Cluster) {
	t.Helper()
	if len(nodes) == 0 {
		nodes = []fabric.NodeID{"n1", "n2", "n3"}
	}
	cl := fabric.NewCluster(fabric.DefaultConfig(), nodes...)
	sys := NewSystem(cl, Config{})
	t.Cleanup(sys.Stop)
	return sys, cl
}

// counterActor increments an in-memory counter per message and returns it.
type counterActor struct {
	n int64
}

func (a *counterActor) Receive(ctx *Ctx, msg Message) ([]byte, error) {
	switch msg.Method {
	case "inc":
		a.n++
		return i64(a.n), nil
	case "get":
		return i64(a.n), nil
	case "save":
		return nil, ctx.Save(store.Row{"n": a.n})
	case "load":
		st, ok, err := ctx.Load()
		if err != nil {
			return nil, err
		}
		if ok {
			a.n = st.Int("n")
		}
		return i64(a.n), nil
	default:
		return nil, fmt.Errorf("unknown method %q", msg.Method)
	}
}

func i64(v int64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(v))
	return b
}

func toI64(b []byte) int64 { return int64(binary.LittleEndian.Uint64(b)) }

func registerCounter(sys *System) {
	sys.Register("counter", func(ref Ref) Behavior { return &counterActor{} })
}

func TestAskActivatesOnDemand(t *testing.T) {
	sys, _ := newSystem(t)
	registerCounter(sys)
	if got := sys.ActivationCount(); got != 0 {
		t.Fatalf("activations = %d before first message", got)
	}
	resp, err := sys.Ask(Ref{"counter", "c1"}, "inc", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if toI64(resp) != 1 {
		t.Fatalf("counter = %d, want 1", toI64(resp))
	}
	if got := sys.ActivationCount(); got != 1 {
		t.Fatalf("activations = %d, want 1", got)
	}
}

func TestSequentialStatePerActor(t *testing.T) {
	sys, _ := newSystem(t)
	registerCounter(sys)
	ref := Ref{"counter", "c1"}
	var wg sync.WaitGroup
	const msgs = 200
	for i := 0; i < msgs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sys.Ask(ref, "inc", nil, nil); err != nil {
				t.Errorf("Ask: %v", err)
			}
		}()
	}
	wg.Wait()
	resp, err := sys.Ask(ref, "get", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if toI64(resp) != msgs {
		t.Fatalf("counter = %d, want %d (mailbox must serialize)", toI64(resp), msgs)
	}
}

func TestDistinctIDsDistinctState(t *testing.T) {
	sys, _ := newSystem(t)
	registerCounter(sys)
	sys.Ask(Ref{"counter", "a"}, "inc", nil, nil)
	sys.Ask(Ref{"counter", "a"}, "inc", nil, nil)
	resp, _ := sys.Ask(Ref{"counter", "b"}, "get", nil, nil)
	if toI64(resp) != 0 {
		t.Fatalf("actor b counter = %d, want 0", toI64(resp))
	}
}

func TestUnregisteredType(t *testing.T) {
	sys, _ := newSystem(t)
	if _, err := sys.Ask(Ref{"ghost", "x"}, "op", nil, nil); !errors.Is(err, ErrNoSuchType) {
		t.Fatalf("err = %v, want ErrNoSuchType", err)
	}
}

func TestSaveLoadDurableState(t *testing.T) {
	sys, _ := newSystem(t)
	registerCounter(sys)
	ref := Ref{"counter", "durable"}
	sys.Ask(ref, "inc", nil, nil)
	sys.Ask(ref, "inc", nil, nil)
	if _, err := sys.Ask(ref, "save", nil, nil); err != nil {
		t.Fatal(err)
	}
	// Deactivate: in-memory state is gone; next activation reloads.
	sys.Deactivate(ref)
	resp, err := sys.Ask(ref, "load", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if toI64(resp) != 2 {
		t.Fatalf("reloaded counter = %d, want 2", toI64(resp))
	}
}

func TestDeactivateLosesUnsavedState(t *testing.T) {
	sys, _ := newSystem(t)
	registerCounter(sys)
	ref := Ref{"counter", "volatile"}
	sys.Ask(ref, "inc", nil, nil) // never saved
	sys.Deactivate(ref)
	resp, _ := sys.Ask(ref, "get", nil, nil)
	if toI64(resp) != 0 {
		t.Fatalf("unsaved state survived deactivation: %d", toI64(resp))
	}
}

func TestMigrationOnNodeCrash(t *testing.T) {
	sys, cl := newSystem(t)
	registerCounter(sys)
	ref := Ref{"counter", "migrant"}
	sys.Ask(ref, "inc", nil, nil)
	sys.Ask(ref, "save", nil, nil)

	// Find and crash the hosting node.
	home, err := cl.PlaceAlive(ref.String())
	if err != nil {
		t.Fatal(err)
	}
	cl.Crash(home)

	// The next message must transparently re-place and re-activate.
	resp, err := sys.Ask(ref, "load", nil, nil)
	if err != nil {
		t.Fatalf("Ask after crash: %v", err)
	}
	if toI64(resp) != 1 {
		t.Fatalf("migrated state = %d, want 1", toI64(resp))
	}
	if got := sys.Metrics().Counter("actor.migrations").Value(); got < 1 {
		t.Fatalf("migrations = %d, want >= 1", got)
	}
}

func TestAllNodesDown(t *testing.T) {
	sys, cl := newSystem(t, "only")
	registerCounter(sys)
	cl.Crash("only")
	if _, err := sys.Ask(Ref{"counter", "x"}, "inc", nil, nil); err == nil {
		t.Fatal("Ask with no live nodes should fail")
	}
}

func TestTellFireAndForget(t *testing.T) {
	sys, _ := newSystem(t)
	registerCounter(sys)
	ref := Ref{"counter", "telled"}
	for i := 0; i < 10; i++ {
		if err := sys.Tell(ref, "inc", nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Tells are async: wait for the mailbox to drain.
	deadline := time.After(2 * time.Second)
	for {
		resp, err := sys.Ask(ref, "get", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if toI64(resp) == 10 {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("counter = %d after Tells, want 10", toI64(resp))
		case <-time.After(time.Millisecond):
		}
	}
}

func TestDuplicateDeliveryDoublesEffects(t *testing.T) {
	cfg := fabric.DefaultConfig()
	cfg.DupProb = 1.0
	cl := fabric.NewCluster(cfg, "n1")
	sys := NewSystem(cl, Config{})
	defer sys.Stop()
	registerCounter(sys)
	ref := Ref{"counter", "dup"}
	sys.Ask(ref, "inc", nil, nil)
	// With DupProb=1 the inc was delivered twice. Reading the counter also
	// duplicates, but "get" is idempotent so the value is observable.
	deadline := time.After(time.Second)
	for {
		resp, err := sys.Ask(ref, "get", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if toI64(resp) >= 2 {
			return // effect duplicated, as at-least-once predicts
		}
		select {
		case <-deadline:
			t.Fatalf("counter = %d, want >= 2 under duplicate delivery", toI64(resp))
		case <-time.After(time.Millisecond):
		}
	}
}

func TestActorToActorAsk(t *testing.T) {
	sys, _ := newSystem(t)
	registerCounter(sys)
	sys.Register("proxy", func(ref Ref) Behavior {
		return BehaviorFunc(func(ctx *Ctx, msg Message) ([]byte, error) {
			return ctx.Ask(Ref{"counter", "backend"}, "inc", nil, msg.Trace)
		})
	})
	trace := fabric.NewTrace()
	resp, err := sys.Ask(Ref{"proxy", "p"}, "fwd", nil, trace)
	if err != nil {
		t.Fatal(err)
	}
	if toI64(resp) != 1 {
		t.Fatalf("forwarded counter = %d, want 1", toI64(resp))
	}
	if trace.Hops() < 4 {
		t.Fatalf("hops = %d, want >= 4 for nested ask", trace.Hops())
	}
}

func TestMailboxOverflow(t *testing.T) {
	cl := fabric.NewCluster(fabric.DefaultConfig(), "n1")
	sys := NewSystem(cl, Config{MailboxSize: 1})
	defer sys.Stop()
	block := make(chan struct{})
	sys.Register("slow", func(ref Ref) Behavior {
		return BehaviorFunc(func(ctx *Ctx, msg Message) ([]byte, error) {
			<-block
			return nil, nil
		})
	})
	ref := Ref{"slow", "s"}
	// First message occupies the loop; second fills the mailbox; third
	// must be rejected.
	sys.Tell(ref, "op", nil, nil)
	time.Sleep(10 * time.Millisecond)
	sys.Tell(ref, "op", nil, nil)
	err := sys.Tell(ref, "op", nil, nil)
	close(block)
	if !errors.Is(err, ErrMailboxFull) {
		t.Fatalf("err = %v, want ErrMailboxFull", err)
	}
}

func TestStopRejectsNewWork(t *testing.T) {
	sys, _ := newSystem(t)
	registerCounter(sys)
	sys.Stop()
	if _, err := sys.Ask(Ref{"counter", "x"}, "inc", nil, nil); err == nil {
		t.Fatal("Ask after Stop should fail")
	}
}

func TestBehaviorErrorPropagates(t *testing.T) {
	sys, _ := newSystem(t)
	boom := errors.New("boom")
	sys.Register("bad", func(ref Ref) Behavior {
		return BehaviorFunc(func(ctx *Ctx, msg Message) ([]byte, error) { return nil, boom })
	})
	if _, err := sys.Ask(Ref{"bad", "b"}, "op", nil, nil); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

// --- transactions -------------------------------------------------------

func seedAccounts(t *testing.T, c *Coordinator, n int, balance int64) []Ref {
	t.Helper()
	refs := make([]Ref, n)
	for i := range refs {
		refs[i] = Ref{"account", fmt.Sprintf("acc-%d", i)}
		if err := c.SeedState(refs[i], store.Row{"balance": balance}); err != nil {
			t.Fatal(err)
		}
	}
	return refs
}

func TestTxnTransferAtomic(t *testing.T) {
	sys, _ := newSystem(t)
	coord := NewCoordinator(sys)
	refs := seedAccounts(t, coord, 2, 100)
	err := coord.Run(nil, func(tx *ActorTxn) error {
		a, _, err := tx.Read(refs[0])
		if err != nil {
			return err
		}
		b, _, err := tx.Read(refs[1])
		if err != nil {
			return err
		}
		if err := tx.Write(refs[0], store.Row{"balance": a.Int("balance") - 30}); err != nil {
			return err
		}
		return tx.Write(refs[1], store.Row{"balance": b.Int("balance") + 30})
	})
	if err != nil {
		t.Fatal(err)
	}
	a, _, _ := coord.ReadState(refs[0])
	b, _, _ := coord.ReadState(refs[1])
	if a.Int("balance") != 70 || b.Int("balance") != 130 {
		t.Fatalf("balances = %d, %d; want 70, 130", a.Int("balance"), b.Int("balance"))
	}
}

func TestTxnAbortRollsBack(t *testing.T) {
	sys, _ := newSystem(t)
	coord := NewCoordinator(sys)
	refs := seedAccounts(t, coord, 1, 100)
	boom := errors.New("refused")
	err := coord.Run(nil, func(tx *ActorTxn) error {
		if err := tx.Write(refs[0], store.Row{"balance": int64(0)}); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	a, _, _ := coord.ReadState(refs[0])
	if a.Int("balance") != 100 {
		t.Fatalf("balance = %d after abort, want 100", a.Int("balance"))
	}
}

func TestTxnConcurrentTransfersConserveMoney(t *testing.T) {
	sys, _ := newSystem(t)
	coord := NewCoordinator(sys)
	const accounts = 6
	refs := seedAccounts(t, coord, accounts, 1000)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				from := refs[(seed+i)%accounts]
				to := refs[(seed+i+1)%accounts]
				err := coord.Run(nil, func(tx *ActorTxn) error {
					a, _, err := tx.Read(from)
					if err != nil {
						return err
					}
					b, _, err := tx.Read(to)
					if err != nil {
						return err
					}
					if err := tx.Write(from, store.Row{"balance": a.Int("balance") - 5}); err != nil {
						return err
					}
					return tx.Write(to, store.Row{"balance": b.Int("balance") + 5})
				})
				if err != nil {
					t.Errorf("txn: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for _, ref := range refs {
		r, _, _ := coord.ReadState(ref)
		total += r.Int("balance")
	}
	if total != accounts*1000 {
		t.Fatalf("total = %d, want %d", total, accounts*1000)
	}
}

func TestTxnChargesCoordinationHops(t *testing.T) {
	sys, _ := newSystem(t)
	coord := NewCoordinator(sys)
	refs := seedAccounts(t, coord, 2, 100)
	plain := fabric.NewTrace()
	sys.Ask(Ref{"counter", "x"}, "get", nil, plain) // will fail (unregistered) — use a real baseline below
	txn := fabric.NewTrace()
	coord.Run(txn, func(tx *ActorTxn) error {
		if _, _, err := tx.Read(refs[0]); err != nil {
			return err
		}
		_, _, err := tx.Read(refs[1])
		return err
	})
	// Two participant accesses + prepare and commit round trips ≥ 6 hops.
	if txn.Hops() < 6 {
		t.Fatalf("txn hops = %d, want >= 6 (2PC coordination)", txn.Hops())
	}
}

// ActivationCount reports the number of live activations.
func (s *System) ActivationCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.activations)
}

// Deactivate removes an idle activation (resource management); its state
// survives in storage and the next message re-activates it.
func (s *System) Deactivate(ref Ref) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := ref.String()
	if a, ok := s.activations[key]; ok {
		a.shutdown()
		delete(s.activations, key)
		s.metrics.Counter("actor.deactivations").Inc()
	}
}

// SeedState initializes transactional state without charging
// coordination.
func (c *Coordinator) SeedState(ref Ref, state store.Row) error {
	tx := c.sys.db.Begin(store.ReadCommitted)
	if err := tx.Put("actor_txn_state", ref.String(), state); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}
