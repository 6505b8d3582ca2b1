// Package saga implements the eventual-consistency coordination pattern the
// paper identifies as the microservice status quo (§4.2: "Practitioners
// also refer to this eventual consistency model through sagas or patterns
// like orchestration and workflows"). A saga is a sequence of local
// transactions, each with a compensating action; if step i fails, the
// compensations of steps i-1..0 run in reverse order. The saga guarantees
// *atomicity eventually* (every saga either completes or is fully
// compensated) but provides **no isolation**: other requests observe the
// intermediate states — the fundamental contrast with the actor cell's 2PC
// that E17 and E20 measure as the microservices cell's anomalies.
//
// The orchestrator persists a saga log before and after every action, so a
// crashed orchestrator resumes (or compensates) in-flight sagas on restart
// — as long as steps are idempotent, the log replay is safe, which is the
// usual saga contract.
package saga

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"tca/internal/metrics"
	"tca/internal/store"
)

// Common saga errors.
var (
	ErrUnknownSaga = errors.New("saga: unknown saga definition")
	ErrCompensated = errors.New("saga: failed and compensated")
	ErrStuck       = errors.New("saga: compensation failed; manual intervention required")
)

// Ctx carries a saga instance's data between steps. Steps communicate by
// mutating Data (persisted with the log, so recovery sees it).
type Ctx struct {
	// SagaID identifies the instance.
	SagaID string
	// Data is the saga's shared state (JSON-serializable values only).
	Data map[string]any
}

// Step is one local transaction plus its compensation.
type Step struct {
	// Name identifies the step in the log.
	Name string
	// Action performs the step. It must be idempotent: recovery may
	// re-execute an action whose completion was not logged.
	Action func(c *Ctx) error
	// Compensate semantically undoes Action. It must be idempotent and
	// should not fail; a failing compensation leaves the saga stuck.
	// nil means the step needs no compensation.
	Compensate func(c *Ctx) error
}

// Definition is a named, ordered list of steps.
type Definition struct {
	Name  string
	Steps []Step
}

// status values persisted in the saga log.
const (
	statusRunning      = "running"
	statusCompensating = "compensating"
	statusCompleted    = "completed"
	statusCompensated  = "compensated"
	statusStuck        = "stuck"
)

// logEntry is the persisted state of one saga instance.
type logEntry struct {
	Saga   string `json:"saga"`
	Status string `json:"status"`
	// NextStep is the first step that has NOT completed (forward phase) or
	// the next to compensate minus one (backward phase).
	NextStep int            `json:"next_step"`
	Data     map[string]any `json:"data"`
}

// Orchestrator executes sagas with a durable log.
type Orchestrator struct {
	db *store.DB
	m  *metrics.Registry

	mu   sync.RWMutex
	defs map[string]*Definition
}

// NewOrchestrator creates an orchestrator logging to db (nil = dedicated).
func NewOrchestrator(db *store.DB) *Orchestrator {
	if db == nil {
		db = store.NewDB(store.Config{Name: "saga-log"})
	}
	db.CreateTable("saga_log")
	return &Orchestrator{db: db, m: metrics.NewRegistry(), defs: make(map[string]*Definition)}
}

// Metrics returns the orchestrator's instruments.
func (o *Orchestrator) Metrics() *metrics.Registry { return o.m }

// Register makes a saga definition executable (and recoverable: recovery
// needs the definition to resume an instance found in the log).
func (o *Orchestrator) Register(def *Definition) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.defs[def.Name] = def
}

func (o *Orchestrator) definition(name string) (*Definition, error) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	d, ok := o.defs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownSaga, name)
	}
	return d, nil
}

// writeLog persists the instance state.
func (o *Orchestrator) writeLog(id string, e logEntry) error {
	raw, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("saga: marshal log: %w", err)
	}
	tx := o.db.Begin(store.ReadCommitted)
	if err := tx.Put("saga_log", id, store.Row{"entry": string(raw)}); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

func (o *Orchestrator) readLog(id string) (logEntry, bool, error) {
	tx := o.db.Begin(store.ReadCommitted)
	defer tx.Abort()
	row, ok, err := tx.Get("saga_log", id)
	if err != nil || !ok {
		return logEntry{}, false, err
	}
	var e logEntry
	if err := json.Unmarshal([]byte(row.Str("entry")), &e); err != nil {
		return logEntry{}, false, fmt.Errorf("saga: unmarshal log: %w", err)
	}
	return e, true, nil
}

// Execute runs one saga instance to completion or compensation.
// Returns nil on success, ErrCompensated (wrapping the step error) when the
// saga failed and rolled back, ErrStuck if a compensation failed.
func (o *Orchestrator) Execute(def *Definition, id string, data map[string]any) error {
	o.Register(def)
	if data == nil {
		data = map[string]any{}
	}
	e := logEntry{Saga: def.Name, Status: statusRunning, NextStep: 0, Data: data}
	if err := o.writeLog(id, e); err != nil {
		return err
	}
	return o.drive(def, id, e)
}

// drive advances an instance from its logged position.
func (o *Orchestrator) drive(def *Definition, id string, e logEntry) error {
	c := &Ctx{SagaID: id, Data: e.Data}
	if e.Status == statusRunning {
		for i := e.NextStep; i < len(def.Steps); i++ {
			step := def.Steps[i]
			if err := step.Action(c); err != nil {
				o.m.Counter("saga.step_failures").Inc()
				// Switch to the backward phase: compensate steps [0, i).
				e.Status = statusCompensating
				e.NextStep = i // first NOT completed
				e.Data = c.Data
				if werr := o.writeLog(id, e); werr != nil {
					return werr
				}
				return o.compensate(def, id, e, err)
			}
			e.NextStep = i + 1
			e.Data = c.Data
			if err := o.writeLog(id, e); err != nil {
				return err
			}
		}
		e.Status = statusCompleted
		if err := o.writeLog(id, e); err != nil {
			return err
		}
		o.m.Counter("saga.completed").Inc()
		return nil
	}
	if e.Status == statusCompensating {
		return o.compensate(def, id, e, errors.New("resumed during compensation"))
	}
	return nil // completed / compensated / stuck: nothing to drive
}

// compensate runs compensations for steps [0, e.NextStep) in reverse.
func (o *Orchestrator) compensate(def *Definition, id string, e logEntry, cause error) error {
	c := &Ctx{SagaID: id, Data: e.Data}
	for i := e.NextStep - 1; i >= 0; i-- {
		step := def.Steps[i]
		if step.Compensate != nil {
			if err := step.Compensate(c); err != nil {
				e.Status = statusStuck
				e.NextStep = i + 1
				e.Data = c.Data
				if werr := o.writeLog(id, e); werr != nil {
					return werr
				}
				o.m.Counter("saga.stuck").Inc()
				return fmt.Errorf("%w: step %s: %w", ErrStuck, step.Name, err)
			}
		}
		e.NextStep = i
		e.Data = c.Data
		if err := o.writeLog(id, e); err != nil {
			return err
		}
	}
	e.Status = statusCompensated
	if err := o.writeLog(id, e); err != nil {
		return err
	}
	o.m.Counter("saga.compensated").Inc()
	return fmt.Errorf("%w: %w", ErrCompensated, cause)
}

// Status returns the logged status of a saga instance.
func (o *Orchestrator) Status(id string) (string, bool, error) {
	e, ok, err := o.readLog(id)
	if err != nil || !ok {
		return "", false, err
	}
	return e.Status, true, nil
}

// Recover resumes every unfinished saga instance found in the log — the
// crash-restart path. Completed and compensated instances are skipped.
// Returns the number of instances resumed.
func (o *Orchestrator) Recover() (int, error) {
	type pending struct {
		id string
		e  logEntry
	}
	var todo []pending
	tx := o.db.Begin(store.SnapshotIsolation)
	err := tx.Scan("saga_log", "", "", func(id string, row store.Row) bool {
		var e logEntry
		if json.Unmarshal([]byte(row.Str("entry")), &e) != nil {
			return true
		}
		if e.Status == statusRunning || e.Status == statusCompensating {
			todo = append(todo, pending{id: id, e: e})
		}
		return true
	})
	tx.Abort()
	if err != nil {
		return 0, err
	}
	for _, p := range todo {
		def, err := o.definition(p.e.Saga)
		if err != nil {
			return 0, err
		}
		// Errors here are the saga's own outcome (compensated), not a
		// recovery failure.
		_ = o.drive(def, p.id, p.e)
		o.m.Counter("saga.recovered").Inc()
	}
	return len(todo), nil
}
