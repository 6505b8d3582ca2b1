// Package workflow implements durable execution — the Temporal / Cadence /
// Azure Durable Functions model the paper surveys as "workflows" and
// "durable functions" (§1, §4.2, refs [7, 14, 15]). A workflow is ordinary
// imperative code whose side effects all flow through Activity calls. The
// engine persists an event history: every completed activity's result is
// recorded before the workflow proceeds. When a worker crashes, re-running
// the workflow *replays* the history — recorded activities return their
// recorded results without re-executing — until the code reaches the first
// unrecorded step, where live execution resumes.
//
// The guarantees and caveats match the real systems:
//
//   - workflow code must be deterministic (replay diverging from the
//     history is detected and reported as ErrNonDeterministic);
//   - activities are at-least-once (a crash between execution and the
//     history append re-executes them), so they should be idempotent;
//   - the workflow as a whole is exactly-once in its decisions: once an
//     activity's result is recorded, every future replay sees that result.
package workflow

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"tca/internal/metrics"
	"tca/internal/store"
)

// Common engine errors.
var (
	ErrNonDeterministic = errors.New("workflow: replay diverged from history")
	ErrUnknownWorkflow  = errors.New("workflow: unknown workflow type")
	ErrCrashInjected    = errors.New("workflow: injected crash")
)

// Handler is the workflow body.
type Handler func(ctx *Ctx) error

// historyEvent is one recorded step.
type historyEvent struct {
	Kind   string `json:"kind"` // "activity" | "side_effect" | "timer"
	Name   string `json:"name"`
	Result []byte `json:"result,omitempty"`
	Err    string `json:"err,omitempty"`
}

// Ctx is the workflow execution context.
type Ctx struct {
	// ID is the workflow instance id.
	ID string

	eng     *Engine
	history []historyEvent
	cursor  int

	// CrashAfterActivity injects a worker crash immediately after the
	// n-th newly executed activity records its result (0 = disabled).
	// Used by tests and the recovery benchmarks.
	CrashAfterActivity int
	executedNow        int
}

// Activity executes fn exactly once per history position: on replay the
// recorded result is returned without running fn. Activity errors are
// recorded too — a failed activity deterministically fails on replay.
func (c *Ctx) Activity(name string, fn func() ([]byte, error)) ([]byte, error) {
	if c.cursor < len(c.history) {
		ev := c.history[c.cursor]
		if ev.Kind != "activity" || ev.Name != name {
			return nil, fmt.Errorf("%w: history has %s/%s, code asked for activity/%s",
				ErrNonDeterministic, ev.Kind, ev.Name, name)
		}
		c.cursor++
		c.eng.m.Counter("workflow.replayed_activities").Inc()
		if ev.Err != "" {
			return nil, errors.New(ev.Err)
		}
		return ev.Result, nil
	}
	// Live execution: run, then record.
	result, err := fn()
	ev := historyEvent{Kind: "activity", Name: name, Result: result}
	if err != nil {
		ev.Err = err.Error()
	}
	if werr := c.eng.appendHistory(c.ID, c.cursor, ev); werr != nil {
		return nil, werr
	}
	c.cursor++
	c.executedNow++
	c.eng.m.Counter("workflow.executed_activities").Inc()
	if c.CrashAfterActivity > 0 && c.executedNow >= c.CrashAfterActivity {
		return nil, ErrCrashInjected
	}
	if err != nil {
		return nil, err
	}
	return result, nil
}

// SideEffect records a nondeterministic value (random id, clock reading) so
// replays observe the original value instead of recomputing.
func (c *Ctx) SideEffect(name string, fn func() []byte) ([]byte, error) {
	if c.cursor < len(c.history) {
		ev := c.history[c.cursor]
		if ev.Kind != "side_effect" || ev.Name != name {
			return nil, fmt.Errorf("%w: history has %s/%s, code asked for side_effect/%s",
				ErrNonDeterministic, ev.Kind, ev.Name, name)
		}
		c.cursor++
		return ev.Result, nil
	}
	v := fn()
	if err := c.eng.appendHistory(c.ID, c.cursor, historyEvent{Kind: "side_effect", Name: name, Result: v}); err != nil {
		return nil, err
	}
	c.cursor++
	return v, nil
}

// Sleep is a durable timer: recorded on first execution (waiting the real
// duration), skipped instantly on replay — a replay must not re-wait.
func (c *Ctx) Sleep(d time.Duration) error {
	name := d.String()
	if c.cursor < len(c.history) {
		ev := c.history[c.cursor]
		if ev.Kind != "timer" || ev.Name != name {
			return fmt.Errorf("%w: history has %s/%s, code asked for timer/%s",
				ErrNonDeterministic, ev.Kind, ev.Name, name)
		}
		c.cursor++
		return nil
	}
	time.Sleep(d)
	if err := c.eng.appendHistory(c.ID, c.cursor, historyEvent{Kind: "timer", Name: name}); err != nil {
		return err
	}
	c.cursor++
	return nil
}

// Engine hosts workflow definitions and their histories.
type Engine struct {
	db *store.DB
	m  *metrics.Registry

	mu   sync.RWMutex
	defs map[string]Handler
}

// NewEngine creates an engine persisting histories to db (nil = dedicated).
func NewEngine(db *store.DB) *Engine {
	if db == nil {
		db = store.NewDB(store.Config{Name: "workflow-history"})
	}
	db.CreateTable("wf_history")
	db.CreateTable("wf_status")
	return &Engine{db: db, m: metrics.NewRegistry(), defs: make(map[string]Handler)}
}

// Metrics returns the engine's instruments.
func (e *Engine) Metrics() *metrics.Registry { return e.m }

// Register binds a workflow type name to its handler.
func (e *Engine) Register(name string, h Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.defs[name] = h
}

func historyKey(id string, seq int) string { return fmt.Sprintf("%s/%08d", id, seq) }

func (e *Engine) appendHistory(id string, seq int, ev historyEvent) error {
	raw, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	tx := e.db.Begin(store.ReadCommitted)
	if err := tx.Put("wf_history", historyKey(id, seq), store.Row{"ev": string(raw)}); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

func (e *Engine) loadHistory(id string) ([]historyEvent, error) {
	var out []historyEvent
	tx := e.db.Begin(store.SnapshotIsolation)
	defer tx.Abort()
	err := tx.Scan("wf_history", id+"/", id+"/\xff", func(k string, row store.Row) bool {
		var ev historyEvent
		if json.Unmarshal([]byte(row.Str("ev")), &ev) == nil {
			out = append(out, ev)
		}
		return true
	})
	return out, err
}

// HistoryLen returns the recorded event count of a workflow instance.
func (e *Engine) HistoryLen(id string) (int, error) {
	h, err := e.loadHistory(id)
	return len(h), err
}

func (e *Engine) setStatus(id, status string) error {
	tx := e.db.Begin(store.ReadCommitted)
	if err := tx.Put("wf_status", id, store.Row{"status": status}); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// Status returns "running", "completed", or "failed" ("" when unknown).
func (e *Engine) Status(id string) string {
	tx := e.db.Begin(store.ReadCommitted)
	defer tx.Abort()
	row, ok, _ := tx.Get("wf_status", id)
	if !ok {
		return ""
	}
	return row.Str("status")
}

// Run executes (or resumes) workflow instance id of the named type. On a
// fresh instance this is a normal execution; on an instance with history
// it replays to the last recorded step and continues live. Completed
// instances return their recorded outcome without executing anything.
func (e *Engine) Run(name, id string) error {
	return e.RunWithCrash(name, id, 0)
}

// RunWithCrash is Run with a crash injected after n newly executed
// activities (testing / recovery benchmarks).
func (e *Engine) RunWithCrash(name, id string, crashAfter int) error {
	e.mu.RLock()
	h, ok := e.defs[name]
	e.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownWorkflow, name)
	}
	switch e.Status(id) {
	case "completed":
		return nil
	case "failed":
		return fmt.Errorf("workflow %s already failed", id)
	}
	history, err := e.loadHistory(id)
	if err != nil {
		return err
	}
	if err := e.setStatus(id, "running"); err != nil {
		return err
	}
	ctx := &Ctx{ID: id, eng: e, history: history, CrashAfterActivity: crashAfter}
	err = h(ctx)
	switch {
	case errors.Is(err, ErrCrashInjected):
		// Worker death: status stays running; a future Run resumes.
		e.m.Counter("workflow.crashes").Inc()
		return err
	case err != nil:
		e.setStatus(id, "failed")
		e.m.Counter("workflow.failed").Inc()
		return err
	default:
		e.setStatus(id, "completed")
		e.m.Counter("workflow.completed").Inc()
		return nil
	}
}
