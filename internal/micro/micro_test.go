package micro

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"tca/internal/dedup"
	"tca/internal/fabric"
	"tca/internal/rpc"
	"tca/internal/store"
)

func newDeployment() *Deployment {
	return NewDeployment(fabric.NewCluster(fabric.DefaultConfig(), "n1", "n2", "n3"))
}

func TestInvokeHandler(t *testing.T) {
	d := newDeployment()
	svc := d.AddService(ServiceConfig{Name: "greeter"})
	svc.Handle("hello", func(c *Ctx, req []byte) ([]byte, error) {
		return append([]byte("hello "), req...), nil
	})
	resp, trace, err := d.Invoke("greeter", "hello", []byte("world"), rpc.CallOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "hello world" {
		t.Fatalf("resp = %q", resp)
	}
	if trace.Total() <= 0 {
		t.Fatal("no simulated latency recorded")
	}
}

func TestUnknownServiceAndOp(t *testing.T) {
	d := newDeployment()
	if _, _, err := d.Invoke("ghost", "op", nil, rpc.CallOptions{}); !errors.Is(err, ErrNoService) {
		t.Fatalf("err = %v, want ErrNoService", err)
	}
	d.AddService(ServiceConfig{Name: "svc"})
	if _, _, err := d.Invoke("svc", "nope", nil, rpc.CallOptions{}); !errors.Is(err, rpc.ErrNoEndpoint) {
		t.Fatalf("err = %v, want rpc.ErrNoEndpoint", err)
	}
	if _, err := d.Service("ghost"); !errors.Is(err, ErrNoService) {
		t.Fatalf("Service(ghost) = %v, want ErrNoService", err)
	}
}

func TestDedicatedDatabasePerService(t *testing.T) {
	d := newDeployment()
	a := d.AddService(ServiceConfig{Name: "a"})
	b := d.AddService(ServiceConfig{Name: "b"})
	if a.DB() == b.DB() {
		t.Fatal("services without explicit DB should get dedicated instances")
	}
	// State written by a is physically isolated from b.
	a.DB().CreateTable("t")
	tx := a.DB().Begin(store.ReadCommitted)
	tx.Put("t", "k", store.Row{"v": int64(1)})
	tx.Commit()
	b.DB().CreateTable("t")
	check := b.DB().Begin(store.ReadCommitted)
	defer check.Abort()
	if _, ok, _ := check.Get("t", "k"); ok {
		t.Fatal("b sees a's rows despite database-per-service")
	}
}

func TestSharedDatabase(t *testing.T) {
	d := newDeployment()
	shared := store.NewDB(store.Config{Name: "shared"})
	a := d.AddService(ServiceConfig{Name: "a", DB: shared})
	b := d.AddService(ServiceConfig{Name: "b", DB: shared})
	if a.DB() != b.DB() {
		t.Fatal("shared DB not shared")
	}
}

func TestServiceStateSurvivesRestart(t *testing.T) {
	d := newDeployment()
	svc := d.AddService(ServiceConfig{Name: "counter"})
	svc.DB().CreateTable("state")
	svc.Handle("inc", func(c *Ctx, req []byte) ([]byte, error) {
		var out []byte
		err := c.DB().Update(func(tx *store.Txn) error {
			r, _, err := tx.Get("state", "n")
			if err != nil {
				return err
			}
			n := r.Int("v") + 1
			out = []byte(fmt.Sprintf("%d", n))
			return tx.Put("state", "n", store.Row{"v": n})
		})
		return out, err
	})
	for i := 0; i < 3; i++ {
		if _, _, err := d.Invoke("counter", "inc", nil, rpc.CallOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	svc.Restart() // stateless tier bounce
	resp, _, err := d.Invoke("counter", "inc", nil, rpc.CallOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "4" {
		t.Fatalf("after restart counter = %s, want 4 (state must live in the DB)", resp)
	}
	if got := d.Metrics().Counter("micro.restarts.counter").Value(); got != 1 {
		t.Fatalf("restart counter = %d", got)
	}
}

func TestCrossServiceCall(t *testing.T) {
	d := newDeployment()
	price := d.AddService(ServiceConfig{Name: "pricing"})
	price.Handle("quote", func(c *Ctx, req []byte) ([]byte, error) {
		return []byte("42"), nil
	})
	order := d.AddService(ServiceConfig{Name: "orders"})
	order.Handle("create", func(c *Ctx, req []byte) ([]byte, error) {
		p, err := c.Call("pricing", "quote", req)
		if err != nil {
			return nil, err
		}
		return append([]byte("order@"), p...), nil
	})
	resp, trace, err := d.Invoke("orders", "create", []byte("item"), rpc.CallOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "order@42" {
		t.Fatalf("resp = %q", resp)
	}
	if trace.Hops() < 4 {
		t.Fatalf("hops = %d, want >= 4 (two nested round trips)", trace.Hops())
	}
}

func TestIdempotencyMiddlewarePerService(t *testing.T) {
	d := newDeployment()
	var executions int
	var mu sync.Mutex
	svc := d.AddService(ServiceConfig{Name: "pay", Idempotency: dedup.New(0)})
	svc.Handle("charge", func(c *Ctx, req []byte) ([]byte, error) {
		mu.Lock()
		executions++
		mu.Unlock()
		return []byte("charged"), nil
	})
	opts := rpc.CallOptions{IdempotencyKey: "payment-1"}
	d.Invoke("pay", "charge", nil, opts)
	d.Invoke("pay", "charge", nil, opts) // client retry with same key
	mu.Lock()
	defer mu.Unlock()
	if executions != 1 {
		t.Fatalf("handler executed %d times, want 1", executions)
	}
}

func TestCallIdempotent(t *testing.T) {
	d := newDeployment()
	var executions int
	var mu sync.Mutex
	dep := d.AddService(ServiceConfig{Name: "downstream", Idempotency: dedup.New(0)})
	dep.Handle("op", func(c *Ctx, req []byte) ([]byte, error) {
		mu.Lock()
		executions++
		mu.Unlock()
		return nil, nil
	})
	up := d.AddService(ServiceConfig{Name: "upstream"})
	up.Handle("op", func(c *Ctx, req []byte) ([]byte, error) {
		// Two identical idempotent calls: second must dedup.
		if _, err := c.CallIdempotent("downstream", "op", nil, "once"); err != nil {
			return nil, err
		}
		return c.CallIdempotent("downstream", "op", nil, "once")
	})
	if _, _, err := d.Invoke("upstream", "op", nil, rpc.CallOptions{}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if executions != 1 {
		t.Fatalf("downstream executed %d times, want 1", executions)
	}
}

func TestJSONHandler(t *testing.T) {
	type req struct{ A, B int64 }
	type resp struct{ Sum int64 }
	d := newDeployment()
	svc := d.AddService(ServiceConfig{Name: "math"})
	svc.Handle("add", JSONHandler(func(c *Ctx, r req) (resp, error) {
		return resp{Sum: r.A + r.B}, nil
	}))
	var codec Codec
	out, _, err := d.Invoke("math", "add", codec.Marshal(req{A: 2, B: 3}), rpc.CallOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var got resp
	if err := codec.Unmarshal(out, &got); err != nil {
		t.Fatal(err)
	}
	if got.Sum != 5 {
		t.Fatalf("Sum = %d, want 5", got.Sum)
	}
}

func TestJSONHandlerBadRequest(t *testing.T) {
	d := newDeployment()
	svc := d.AddService(ServiceConfig{Name: "m"})
	svc.Handle("op", JSONHandler(func(c *Ctx, r struct{ X int }) (struct{}, error) {
		return struct{}{}, nil
	}))
	if _, _, err := d.Invoke("m", "op", []byte("{invalid"), rpc.CallOptions{}); err == nil {
		t.Fatal("bad JSON accepted")
	}
}

func TestPlacementOnNamedNode(t *testing.T) {
	d := newDeployment()
	svc := d.AddService(ServiceConfig{Name: "pinned", Node: "n2"})
	if svc.Node() != "n2" {
		t.Fatalf("Node = %s, want n2", svc.Node())
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	d := newDeployment()
	svc := d.AddService(ServiceConfig{Name: "s"})
	boom := errors.New("boom")
	svc.Handle("fail", func(c *Ctx, req []byte) ([]byte, error) { return nil, boom })
	if _, _, err := d.Invoke("s", "fail", nil, rpc.CallOptions{}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestCallRetriesConfigured(t *testing.T) {
	cfg := fabric.DefaultConfig()
	cfg.DropProb = 0.5
	cfg.Seed = 11
	d := NewDeployment(fabric.NewCluster(cfg, "n1", "n2"))
	down := d.AddService(ServiceConfig{Name: "down", Node: "n2"})
	down.Handle("op", func(c *Ctx, req []byte) ([]byte, error) { return []byte("ok"), nil })
	up := d.AddService(ServiceConfig{Name: "up", Node: "n1", CallRetries: 10, CallBackoff: time.Millisecond})
	up.Handle("op", func(c *Ctx, req []byte) ([]byte, error) {
		return c.Call("down", "op", nil)
	})
	withRetries, withoutRetries := 0, 0
	for i := 0; i < 100; i++ {
		if _, _, err := d.Invoke("up", "op", nil, rpc.CallOptions{Retries: 8, RetryBackoff: time.Millisecond}); err == nil {
			withRetries++
		}
		if _, _, err := d.Invoke("up", "op", nil, rpc.CallOptions{}); err == nil {
			withoutRetries++
		}
	}
	// With 50% drops each leg fails half the time: one-shot calls mostly
	// fail, retried calls mostly succeed.
	if withRetries < 70 {
		t.Fatalf("with retries only %d/100 succeeded", withRetries)
	}
	if withoutRetries >= withRetries {
		t.Fatalf("retries did not help: %d vs %d", withRetries, withoutRetries)
	}
}

// CallIdempotent is Call with an idempotency key attached, so the callee's
// middleware (if configured) dedups retries.
func (c *Ctx) CallIdempotent(service, op string, req []byte, key string) ([]byte, error) {
	return c.Service.dep.call(c.Service.node, service, op, req, c.RPC.Trace, rpc.CallOptions{
		Retries:        c.Service.cfg.CallRetries,
		RetryBackoff:   c.Service.cfg.CallBackoff,
		IdempotencyKey: key,
	})
}
