package saga

import (
	"errors"
	"fmt"
	"testing"

	"tca/internal/store"
)

// bookingEnv is a three-service trip booking used across the tests: flight,
// hotel, payment — the canonical saga example.
type bookingEnv struct {
	db *store.DB
}

func newBookingEnv() *bookingEnv {
	db := store.NewDB(store.Config{Name: "booking"})
	db.CreateTable("bookings")
	return &bookingEnv{db: db}
}

func (b *bookingEnv) set(key string, v int64) error {
	return b.db.Update(func(tx *store.Txn) error {
		return tx.Put("bookings", key, store.Row{"v": v})
	})
}

func (b *bookingEnv) get(key string) int64 {
	tx := b.db.Begin(store.ReadCommitted)
	defer tx.Abort()
	row, ok, _ := tx.Get("bookings", key)
	if !ok {
		return 0
	}
	return row.Int("v")
}

func (b *bookingEnv) def(failAt string) *Definition {
	step := func(name string) Step {
		return Step{
			Name: name,
			Action: func(c *Ctx) error {
				if failAt == name {
					return fmt.Errorf("%s unavailable", name)
				}
				return b.set(c.SagaID+"/"+name, 1)
			},
			Compensate: func(c *Ctx) error {
				return b.set(c.SagaID+"/"+name, 0)
			},
		}
	}
	return &Definition{Name: "trip", Steps: []Step{step("flight"), step("hotel"), step("payment")}}
}

func TestSagaCompletes(t *testing.T) {
	env := newBookingEnv()
	o := NewOrchestrator(nil)
	if err := o.Execute(env.def(""), "s1", nil); err != nil {
		t.Fatal(err)
	}
	for _, svc := range []string{"flight", "hotel", "payment"} {
		if env.get("s1/"+svc) != 1 {
			t.Fatalf("%s not booked", svc)
		}
	}
	st, ok, _ := o.Status("s1")
	if !ok || st != statusCompleted {
		t.Fatalf("status = %q, want completed", st)
	}
}

func TestSagaCompensatesOnFailure(t *testing.T) {
	env := newBookingEnv()
	o := NewOrchestrator(nil)
	err := o.Execute(env.def("payment"), "s2", nil)
	if !errors.Is(err, ErrCompensated) {
		t.Fatalf("err = %v, want ErrCompensated", err)
	}
	// flight and hotel were booked then compensated; payment never ran.
	for _, svc := range []string{"flight", "hotel", "payment"} {
		if env.get("s2/"+svc) != 0 {
			t.Fatalf("%s left booked after compensation", svc)
		}
	}
	st, _, _ := o.Status("s2")
	if st != statusCompensated {
		t.Fatalf("status = %q, want compensated", st)
	}
}

func TestSagaFirstStepFailureNothingToCompensate(t *testing.T) {
	env := newBookingEnv()
	o := NewOrchestrator(nil)
	err := o.Execute(env.def("flight"), "s3", nil)
	if !errors.Is(err, ErrCompensated) {
		t.Fatalf("err = %v", err)
	}
	if env.get("s3/flight") != 0 {
		t.Fatal("flight should never have been booked")
	}
}

func TestSagaDataFlowsBetweenSteps(t *testing.T) {
	o := NewOrchestrator(nil)
	def := &Definition{Name: "pipeline", Steps: []Step{
		{Name: "a", Action: func(c *Ctx) error { c.Data["x"] = "from-a"; return nil }},
		{Name: "b", Action: func(c *Ctx) error {
			if c.Data["x"] != "from-a" {
				return fmt.Errorf("data lost: %v", c.Data)
			}
			return nil
		}},
	}}
	if err := o.Execute(def, "p1", map[string]any{}); err != nil {
		t.Fatal(err)
	}
}

func TestSagaStuckOnCompensationFailure(t *testing.T) {
	o := NewOrchestrator(nil)
	def := &Definition{Name: "bad", Steps: []Step{
		{
			Name:       "s0",
			Action:     func(c *Ctx) error { return nil },
			Compensate: func(c *Ctx) error { return errors.New("compensation broken") },
		},
		{Name: "s1", Action: func(c *Ctx) error { return errors.New("fail") }},
	}}
	err := o.Execute(def, "x1", nil)
	if !errors.Is(err, ErrStuck) {
		t.Fatalf("err = %v, want ErrStuck", err)
	}
	st, _, _ := o.Status("x1")
	if st != statusStuck {
		t.Fatalf("status = %q, want stuck", st)
	}
}

func TestSagaRecoveryResumesForward(t *testing.T) {
	// Simulate an orchestrator crash after step 0 by writing the log that
	// state would have, then Recover must drive steps 1..2.
	env := newBookingEnv()
	o := NewOrchestrator(nil)
	def := env.def("")
	o.Register(def)
	env.set("r1/flight", 1) // step 0's effect happened
	if err := o.writeLog("r1", logEntry{Saga: "trip", Status: statusRunning, NextStep: 1, Data: map[string]any{}}); err != nil {
		t.Fatal(err)
	}
	n, err := o.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("recovered %d sagas, want 1", n)
	}
	for _, svc := range []string{"flight", "hotel", "payment"} {
		if env.get("r1/"+svc) != 1 {
			t.Fatalf("%s not booked after recovery", svc)
		}
	}
	st, _, _ := o.Status("r1")
	if st != statusCompleted {
		t.Fatalf("status = %q", st)
	}
}

func TestSagaRecoveryResumesCompensation(t *testing.T) {
	env := newBookingEnv()
	o := NewOrchestrator(nil)
	def := env.def("")
	o.Register(def)
	// Crash mid-compensation: steps 0,1 done, compensation pending.
	env.set("r2/flight", 1)
	env.set("r2/hotel", 1)
	if err := o.writeLog("r2", logEntry{Saga: "trip", Status: statusCompensating, NextStep: 2, Data: map[string]any{}}); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Recover(); err != nil {
		t.Fatal(err)
	}
	if env.get("r2/flight") != 0 || env.get("r2/hotel") != 0 {
		t.Fatal("compensation not completed on recovery")
	}
	st, _, _ := o.Status("r2")
	if st != statusCompensated {
		t.Fatalf("status = %q", st)
	}
}

func TestSagaRecoverySkipsFinished(t *testing.T) {
	env := newBookingEnv()
	o := NewOrchestrator(nil)
	o.Register(env.def(""))
	o.Execute(env.def(""), "done1", nil)
	n, err := o.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("recovered %d, want 0", n)
	}
}

func TestSagaNoIsolationDirtyReads(t *testing.T) {
	// The saga's defining weakness: mid-saga state is visible. Step 1
	// books the flight; before the saga fails at payment and compensates,
	// an outside observer sees the flight as booked.
	env := newBookingEnv()
	o := NewOrchestrator(nil)
	var observedMidSaga int64
	def := env.def("")
	def.Steps[2].Action = func(c *Ctx) error {
		observedMidSaga = env.get(c.SagaID + "/flight") // outside observer
		return errors.New("payment down")
	}
	err := o.Execute(def, "iso1", nil)
	if !errors.Is(err, ErrCompensated) {
		t.Fatal(err)
	}
	if observedMidSaga != 1 {
		t.Fatal("expected the dirty read: sagas do not isolate")
	}
	if env.get("iso1/flight") != 0 {
		t.Fatal("compensation failed")
	}
}

func TestUnknownSagaDefinition(t *testing.T) {
	o := NewOrchestrator(nil)
	if _, err := o.definition("ghost"); !errors.Is(err, ErrUnknownSaga) {
		t.Fatalf("err = %v", err)
	}
}
