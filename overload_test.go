package tca

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// Tests for overload-aware admission control: a saturated cell sheds with
// the typed ErrOverloaded sentinel, a shed op leaves state untouched on
// every cell and never reaches the auditor, and Sessions absorb transient
// sheds under their retry budget.

// slowBumpApp is a single-op App whose body holds its executor for d
// before adding one to a single counter key — slow enough that a burst of
// concurrent submissions must pile up behind any bounded queue. The
// counter uses Txn.Add (exactly-once on every cell), so the settled value
// of "n" counts applied ops exactly: state is the witness that shed ops
// never ran.
func slowBumpApp(d time.Duration) *App {
	return NewApp("slow-bump").Register(Op{
		Name: "bump",
		Keys: func([]byte) []string { return []string{"n"} },
		Body: func(tx Txn, _ []byte) ([]byte, error) {
			time.Sleep(d)
			return nil, tx.Add("n", 1)
		},
	})
}

// TestShedConformanceAllCells saturates every cell through a tiny bound
// (one executor, MaxPending 1) with 32 concurrent submissions and pins
// the shedding contract on each: some submissions shed; every shed
// matches errors.Is(err, ErrOverloaded) and carries a *ShedError naming
// the cell with a positive retry hint; Result is idempotent; and the
// settled counter equals the successes exactly — a shed op never touched
// state.
func TestShedConformanceAllCells(t *testing.T) {
	const burst = 32
	for _, model := range allModels {
		t.Run(model.String(), func(t *testing.T) {
			cell, err := DeployWith(model, slowBumpApp(2*time.Millisecond), NewEnv(11, 3),
				Options{Clients: 1, Workers: 1, MaxPending: 1, SequenceDelay: 2 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			defer cell.Close()
			var wg sync.WaitGroup
			errs := make([]error, burst)
			handles := make([]Handle, burst)
			for i := 0; i < burst; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					h := cell.Submit(fmt.Sprintf("b%d", i), "bump", nil, nil)
					handles[i] = h
					_, errs[i] = h.Result()
				}(i)
			}
			wg.Wait()
			var ok, shed int
			for i, err := range errs {
				switch {
				case err == nil:
					ok++
				case errors.Is(err, ErrOverloaded):
					shed++
					var se *ShedError
					if !errors.As(err, &se) {
						t.Fatalf("shed error is not a *ShedError: %v", err)
					}
					if se.Model != model {
						t.Fatalf("ShedError.Model = %v, want %v", se.Model, model)
					}
					if se.RetryAfter <= 0 {
						t.Fatalf("ShedError.RetryAfter = %v, want > 0", se.RetryAfter)
					}
					// Result must be idempotent: the same outcome again.
					if _, again := handles[i].Result(); !errors.Is(again, ErrOverloaded) {
						t.Fatalf("second Result() = %v, want the same shed", again)
					}
				default:
					t.Fatalf("submission %d failed with a non-shed error: %v", i, err)
				}
			}
			if shed == 0 {
				t.Fatalf("no submissions shed through a bound of 1 (%d succeeded)", ok)
			}
			if ok+shed != burst {
				t.Fatalf("ok %d + shed %d != %d", ok, shed, burst)
			}
			if err := cell.Settle(); err != nil {
				t.Fatal(err)
			}
			raw, _, err := cell.Read("n")
			if err != nil {
				t.Fatal(err)
			}
			if got := DecodeInt(raw); got != int64(ok) {
				t.Fatalf("settled counter = %d, want %d (one per success; shed ops must not touch state)", got, ok)
			}
		})
	}
}

// TestShedNeverReachesAuditor drives the audited overload runner far past
// the worker-pool cells' bound: with the shed ops Discarded before
// observation, the audit must come back exact — a shed submission has no
// intent the reference could miss.
func TestShedNeverReachesAuditor(t *testing.T) {
	for _, model := range []ProgrammingModel{Microservices, Actors, CloudFunctions} {
		t.Run(model.String(), func(t *testing.T) {
			res, err := RunCell("social", model, 400, CellOptions{Rate: 200000, Shed: true, Audit: true, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Audited {
				t.Fatal("auditor did not run")
			}
			if res.Shed == 0 {
				t.Fatal("offered 400 ops at 200k/s through a bound of ~80 and shed none")
			}
			if len(res.Anomalies) != 0 {
				t.Fatalf("shed ops surfaced as anomalies: %v", res.Anomalies)
			}
			if res.Violations != 0 {
				t.Fatalf("shed ops surfaced as %d live violations", res.Violations)
			}
		})
	}
}

// TestRunOverloadCellValidatesRate pins the open-loop validation at the
// harness layer too: with no closed-loop clients asked for, the rate must
// be positive.
func TestRunOverloadCellValidatesRate(t *testing.T) {
	if _, err := RunCell("social", Microservices, 100, CellOptions{Rate: 0}); err == nil {
		t.Fatal("rate 0 accepted")
	}
	if _, err := RunCell("social", Microservices, 100, CellOptions{Rate: -1}); err == nil {
		t.Fatal("negative rate accepted")
	}
	if _, err := RunCell("social", Microservices, 0, CellOptions{Rate: 100}); err == nil {
		t.Fatal("zero ops accepted")
	}
}

// TestSessionRetryBudget pins the client-side half of admission control:
// a session with budget absorbs transient sheds (every op eventually
// applies, the counter is exact) while a budget-less session surfaces
// them to the caller.
func TestSessionRetryBudget(t *testing.T) {
	const ops = 64
	mkCell := func(t *testing.T) Cell {
		cell, err := DeployWith(Microservices, slowBumpApp(300*time.Microsecond), NewEnv(13, 3),
			Options{Clients: 1, MaxPending: 1})
		if err != nil {
			t.Fatal(err)
		}
		return cell
	}
	t.Run("budget-absorbs", func(t *testing.T) {
		cell := mkCell(t)
		defer cell.Close()
		sess := NewSession(cell, "budgeted", SessionOptions{MaxInFlight: 32, RetryBudget: 100})
		for i := 0; i < ops; i++ {
			sess.Submit("bump", nil, nil)
		}
		sess.Drain()
		if got := sess.Errors(); got != 0 {
			t.Fatalf("budgeted session surfaced %d errors", got)
		}
		if sess.Retries() == 0 {
			t.Fatal("32-deep pipeline through a bound of 2 never retried — the bound is not biting")
		}
		if err := cell.Settle(); err != nil {
			t.Fatal(err)
		}
		raw, _, err := cell.Read("n")
		if err != nil {
			t.Fatal(err)
		}
		if got := DecodeInt(raw); got != ops {
			t.Fatalf("settled counter = %d, want %d (retries must not double-apply)", got, ops)
		}
	})
	t.Run("no-budget-surfaces", func(t *testing.T) {
		cell := mkCell(t)
		defer cell.Close()
		sess := NewSession(cell, "unbudgeted", SessionOptions{MaxInFlight: 32, RetryBudget: -1})
		for i := 0; i < ops; i++ {
			sess.Submit("bump", nil, nil)
		}
		sess.Drain()
		if sess.Errors() == 0 {
			t.Fatal("budget-less session surfaced no sheds through a bound of 2")
		}
		if sess.Retries() != 0 {
			t.Fatalf("budget-less session retried %d times", sess.Retries())
		}
	})
}

// TestSessionJitterSeeded pins the reproducibility bugfix for retry
// backoff: jitter is drawn from a per-session seeded generator (derived
// from the session id), not the global
// math/rand, so repeating a run with the same session ids repeats the
// identical wait sequence — the repeat-twice-identical property the
// grid's seed policy relies on.
func TestSessionJitterSeeded(t *testing.T) {
	draw := func(s *Session) []time.Duration {
		out := make([]time.Duration, 0, 64)
		backoff := 200 * time.Microsecond
		for i := 0; i < 64; i++ {
			out = append(out, s.retryWait(backoff, 0))
			if i%8 == 7 {
				backoff *= 2 // exercise more than one jitter window
			}
		}
		return out
	}
	equal := func(a, b []time.Duration) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	// Repeat-twice-identical: the same session id draws the same sequence.
	a := draw(NewSession(nil, "c7", SessionOptions{}))
	b := draw(NewSession(nil, "c7", SessionOptions{}))
	if !equal(a, b) {
		t.Fatal("two sessions with the same id drew different jitter sequences")
	}
	// Distinct ids draw distinct sequences (their streams must not collide).
	if c := draw(NewSession(nil, "c8", SessionOptions{})); equal(a, c) {
		t.Fatal("sessions c7 and c8 drew identical jitter sequences")
	}
	// The shed hint stays a floor on every draw.
	s := NewSession(nil, "floor", SessionOptions{})
	for i := 0; i < 16; i++ {
		if w := s.retryWait(100*time.Microsecond, time.Millisecond); w < time.Millisecond {
			t.Fatalf("retryWait ignored the retry-after floor: %v", w)
		}
	}
}
