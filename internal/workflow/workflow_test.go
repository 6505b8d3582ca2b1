package workflow

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkflowCompletes(t *testing.T) {
	e := NewEngine(nil)
	var executions atomic.Int64
	e.Register("order", func(ctx *Ctx) error {
		for _, step := range []string{"reserve", "charge", "ship"} {
			if _, err := ctx.Activity(step, func() ([]byte, error) {
				executions.Add(1)
				return []byte(step + "-ok"), nil
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err := e.Run("order", "w1"); err != nil {
		t.Fatal(err)
	}
	if executions.Load() != 3 {
		t.Fatalf("activities executed %d times, want 3", executions.Load())
	}
	if e.Status("w1") != "completed" {
		t.Fatalf("status = %q", e.Status("w1"))
	}
}

func TestCrashAndResumeReplaysWithoutReExecution(t *testing.T) {
	e := NewEngine(nil)
	var executions atomic.Int64
	e.Register("order", func(ctx *Ctx) error {
		for _, step := range []string{"a", "b", "c", "d"} {
			if _, err := ctx.Activity(step, func() ([]byte, error) {
				executions.Add(1)
				return []byte(step), nil
			}); err != nil {
				return err
			}
		}
		return nil
	})
	// Crash after 2 newly executed activities.
	err := e.RunWithCrash("order", "w2", 2)
	if !errors.Is(err, ErrCrashInjected) {
		t.Fatalf("err = %v, want crash", err)
	}
	if executions.Load() != 2 {
		t.Fatalf("executed %d before crash, want 2", executions.Load())
	}
	if e.Status("w2") != "running" {
		t.Fatalf("status after crash = %q, want running", e.Status("w2"))
	}
	// Resume: a,b replay from history; c,d execute.
	if err := e.Run("order", "w2"); err != nil {
		t.Fatal(err)
	}
	if executions.Load() != 4 {
		t.Fatalf("total executions = %d, want 4 (2 + 2, no re-execution)", executions.Load())
	}
	if got := e.Metrics().Counter("workflow.replayed_activities").Value(); got != 2 {
		t.Fatalf("replayed = %d, want 2", got)
	}
}

func TestCompletedWorkflowIdempotent(t *testing.T) {
	e := NewEngine(nil)
	var executions atomic.Int64
	e.Register("wf", func(ctx *Ctx) error {
		_, err := ctx.Activity("only", func() ([]byte, error) {
			executions.Add(1)
			return nil, nil
		})
		return err
	})
	e.Run("wf", "w3")
	if err := e.Run("wf", "w3"); err != nil {
		t.Fatal(err)
	}
	if executions.Load() != 1 {
		t.Fatalf("executions = %d, want 1 (completed workflows are no-ops)", executions.Load())
	}
}

func TestActivityErrorRecordedAndReplayed(t *testing.T) {
	e := NewEngine(nil)
	var executions atomic.Int64
	e.Register("wf", func(ctx *Ctx) error {
		_, err := ctx.Activity("flaky", func() ([]byte, error) {
			executions.Add(1)
			return nil, errors.New("permanent failure")
		})
		if err != nil {
			// The workflow handles the failure and completes gracefully.
			_, err2 := ctx.Activity("fallback", func() ([]byte, error) {
				return []byte("plan-b"), nil
			})
			return err2
		}
		return nil
	})
	if err := e.Run("wf", "w4"); err != nil {
		t.Fatal(err)
	}
	if e.Status("w4") != "completed" {
		t.Fatalf("status = %q", e.Status("w4"))
	}
	if executions.Load() != 1 {
		t.Fatalf("flaky executed %d times, want 1", executions.Load())
	}
}

func TestNonDeterminismDetected(t *testing.T) {
	e := NewEngine(nil)
	// First version of the workflow records activity "a".
	e.Register("wf", func(ctx *Ctx) error {
		_, err := ctx.Activity("a", func() ([]byte, error) { return nil, nil })
		if err != nil {
			return err
		}
		return ErrCrashInjected // pause mid-way with history recorded
	})
	err := e.RunWithCrash("wf", "w5", 0)
	if err == nil {
		t.Fatal("expected pause")
	}
	// "Deploy" a changed workflow that asks for a different activity.
	e.Register("wf", func(ctx *Ctx) error {
		_, err := ctx.Activity("renamed", func() ([]byte, error) { return nil, nil })
		return err
	})
	err = e.Run("wf", "w5")
	if !errors.Is(err, ErrNonDeterministic) {
		t.Fatalf("err = %v, want ErrNonDeterministic", err)
	}
}

func TestSideEffectStableAcrossReplay(t *testing.T) {
	e := NewEngine(nil)
	var values []string
	counter := 0
	e.Register("wf", func(ctx *Ctx) error {
		v, err := ctx.SideEffect("gen-id", func() []byte {
			counter++
			return []byte(fmt.Sprintf("id-%d", counter))
		})
		if err != nil {
			return err
		}
		values = append(values, string(v))
		if len(values) == 1 {
			return ErrCrashInjected // crash after recording
		}
		return nil
	})
	e.RunWithCrash("wf", "w6", 0)
	if err := e.Run("wf", "w6"); err != nil {
		t.Fatal(err)
	}
	if len(values) != 2 || values[0] != values[1] {
		t.Fatalf("side effect unstable across replay: %v", values)
	}
	if counter != 1 {
		t.Fatalf("side effect computed %d times, want 1", counter)
	}
}

func TestSleepReplaysInstantly(t *testing.T) {
	e := NewEngine(nil)
	runs := 0
	e.Register("wf", func(ctx *Ctx) error {
		runs++
		thisRun := runs
		if err := ctx.Sleep(50 * time.Millisecond); err != nil {
			return err
		}
		_, err := ctx.Activity("after", func() ([]byte, error) { return nil, nil })
		if err != nil {
			return err
		}
		if thisRun == 1 {
			return ErrCrashInjected
		}
		return nil
	})
	start := time.Now()
	e.RunWithCrash("wf", "w7", 0) // pays the 50ms
	firstRun := time.Since(start)
	if firstRun < 50*time.Millisecond {
		t.Fatalf("first run too fast: %v", firstRun)
	}
	start = time.Now()
	if err := e.Run("wf", "w7"); err != nil {
		t.Fatal(err)
	}
	if replay := time.Since(start); replay > 25*time.Millisecond {
		t.Fatalf("replay re-waited the timer: %v", replay)
	}
}

func TestWorkflowBusinessFailure(t *testing.T) {
	e := NewEngine(nil)
	e.Register("wf", func(ctx *Ctx) error {
		return errors.New("business rule violated")
	})
	if err := e.Run("wf", "w8"); err == nil {
		t.Fatal("expected failure")
	}
	if e.Status("w8") != "failed" {
		t.Fatalf("status = %q", e.Status("w8"))
	}
	// A failed workflow does not resurrect.
	if err := e.Run("wf", "w8"); err == nil {
		t.Fatal("failed workflow re-ran")
	}
}

func TestUnknownWorkflow(t *testing.T) {
	e := NewEngine(nil)
	if err := e.Run("ghost", "w"); !errors.Is(err, ErrUnknownWorkflow) {
		t.Fatalf("err = %v", err)
	}
}

func TestHistoryLen(t *testing.T) {
	e := NewEngine(nil)
	e.Register("wf", func(ctx *Ctx) error {
		for i := 0; i < 5; i++ {
			if _, err := ctx.Activity(fmt.Sprintf("s%d", i), func() ([]byte, error) { return nil, nil }); err != nil {
				return err
			}
		}
		return nil
	})
	e.Run("wf", "w9")
	n, err := e.HistoryLen("w9")
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("history = %d events, want 5", n)
	}
}

func TestLongHistoryReplayCost(t *testing.T) {
	// Replay cost grows with history length: every run re-executes the
	// recorded history.
	e := NewEngine(nil)
	const steps = 200
	e.Register("long", func(ctx *Ctx) error {
		for i := 0; i < steps; i++ {
			if _, err := ctx.Activity(fmt.Sprintf("s%d", i), func() ([]byte, error) { return nil, nil }); err != nil {
				return err
			}
		}
		return ErrCrashInjected
	})
	e.RunWithCrash("long", "w10", 0)
	e.Register("long", func(ctx *Ctx) error {
		for i := 0; i < steps; i++ {
			if _, err := ctx.Activity(fmt.Sprintf("s%d", i), func() ([]byte, error) {
				return nil, errors.New("must not re-execute")
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err := e.Run("long", "w10"); err != nil {
		t.Fatal(err)
	}
}
