// Package xa implements two-phase commit in the OpenXA style the paper
// surveys in §4.2 / §5.2: a coordinator drives prepare and commit rounds
// across resource managers, each wrapping a database. The implementation
// exhibits the properties that make the pattern unpopular in microservice
// architectures (§4.2):
//
//   - blocking: participants hold locks from prepare until the decision
//     arrives; a slow or crashed coordinator leaves them in doubt;
//   - presumed abort: an in-doubt participant whose coordinator forgot it
//     (no decision logged) aborts on recovery;
//   - atomicity: no mixed outcomes — all participants commit or all abort.
//
// The coordinator writes its decision to a durable log before telling any
// participant, so coordinator crash-recovery can complete in-flight
// transactions deterministically.
package xa

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"tca/internal/fabric"
	"tca/internal/metrics"
	"tca/internal/store"
)

// Common protocol errors.
var (
	ErrAborted = errors.New("xa: transaction aborted")
	ErrNoTxn   = errors.New("xa: unknown transaction")
	ErrInDoubt = errors.New("xa: participant in doubt")
)

// ResourceManager adapts one database into a 2PC participant: it tracks
// the branch transaction per global transaction id.
type ResourceManager struct {
	Name string
	Node fabric.NodeID
	DB   *store.DB

	mu       sync.Mutex
	branches map[string]*store.Txn
}

// NewResourceManager wraps db as a participant hosted on node.
func NewResourceManager(name string, node fabric.NodeID, db *store.DB) *ResourceManager {
	return &ResourceManager{Name: name, Node: node, DB: db, branches: make(map[string]*store.Txn)}
}

// Branch returns (starting if needed) the local branch of global txn gid.
// Branches use strict 2PL so locks survive into the prepare window.
func (rm *ResourceManager) Branch(gid string) *store.Txn {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	tx, ok := rm.branches[gid]
	if !ok {
		tx = rm.DB.Begin(store.Locking2PL)
		rm.branches[gid] = tx
	}
	return tx
}

// Prepare votes on gid: a yes vote pins the branch's locks until the
// decision.
func (rm *ResourceManager) Prepare(gid string) error {
	rm.mu.Lock()
	tx, ok := rm.branches[gid]
	rm.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s@%s", ErrNoTxn, gid, rm.Name)
	}
	return tx.Prepare()
}

// Commit applies the decision.
func (rm *ResourceManager) Commit(gid string) error {
	rm.mu.Lock()
	tx, ok := rm.branches[gid]
	delete(rm.branches, gid)
	rm.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s@%s", ErrNoTxn, gid, rm.Name)
	}
	return tx.Commit()
}

// Abort rolls the branch back.
func (rm *ResourceManager) Abort(gid string) error {
	rm.mu.Lock()
	tx, ok := rm.branches[gid]
	delete(rm.branches, gid)
	rm.mu.Unlock()
	if !ok {
		return nil // presumed abort: nothing to do
	}
	tx.Abort()
	return nil
}

// InDoubt returns the gids prepared (or active) but undecided at this
// participant — the blocking set.
func (rm *ResourceManager) InDoubt() []string {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	out := make([]string, 0, len(rm.branches))
	for gid := range rm.branches {
		out = append(out, gid)
	}
	return out
}

// RecoverPresumedAbort aborts every undecided branch (the participant
// recovery rule when the coordinator has no decision for it).
func (rm *ResourceManager) RecoverPresumedAbort() int {
	gids := rm.InDoubt()
	for _, gid := range gids {
		rm.Abort(gid)
	}
	return len(gids)
}

// decision values in the coordinator log.
const (
	decisionCommit = "commit"
	decisionAbort  = "abort"
	decisionDone   = "done"
)

type logRecord struct {
	Participants []string `json:"parts"`
	Decision     string   `json:"decision"`
}

// Coordinator drives global transactions across resource managers.
type Coordinator struct {
	cluster *fabric.Cluster
	node    fabric.NodeID
	log     *store.DB
	m       *metrics.Registry

	mu  sync.RWMutex
	rms map[string]*ResourceManager

	// CrashBeforeDecision, when set, makes the next Run stop after
	// prepare and before logging a decision — the in-doubt scenario.
	CrashBeforeDecision bool
	// CrashAfterDecision stops after logging commit but before notifying
	// participants — recovery must finish the job.
	CrashAfterDecision bool
}

// NewCoordinator creates a coordinator on node with a dedicated decision
// log.
func NewCoordinator(cluster *fabric.Cluster, node fabric.NodeID) *Coordinator {
	log := store.NewDB(store.Config{Name: "xa-coordinator-log"})
	log.CreateTable("decisions")
	return &Coordinator{
		cluster: cluster,
		node:    node,
		log:     log,
		m:       metrics.NewRegistry(),
		rms:     make(map[string]*ResourceManager),
	}
}

// Enlist registers a resource manager.
func (c *Coordinator) Enlist(rm *ResourceManager) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rms[rm.Name] = rm
}

// RM returns an enlisted resource manager.
func (c *Coordinator) RM(name string) (*ResourceManager, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	rm, ok := c.rms[name]
	return rm, ok
}

func (c *Coordinator) writeLog(gid string, rec logRecord) error {
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	tx := c.log.Begin(store.ReadCommitted)
	if err := tx.Put("decisions", gid, store.Row{"rec": string(raw)}); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

func (c *Coordinator) readLog(gid string) (logRecord, bool) {
	tx := c.log.Begin(store.ReadCommitted)
	defer tx.Abort()
	row, ok, err := tx.Get("decisions", gid)
	if err != nil || !ok {
		return logRecord{}, false
	}
	var rec logRecord
	if json.Unmarshal([]byte(row.Str("rec")), &rec) != nil {
		return logRecord{}, false
	}
	return rec, true
}

// Run executes fn as a global transaction gid across the named resource
// managers, then drives 2PC. fn receives the branch transactions by RM
// name and performs its reads/writes through them. Every protocol message
// charges a round trip to tr.
func (c *Coordinator) Run(gid string, participants []string, tr *fabric.Trace, fn func(branches map[string]*store.Txn) error) error {
	branches := make(map[string]*store.Txn, len(participants))
	rms := make([]*ResourceManager, 0, len(participants))
	for _, name := range participants {
		rm, ok := c.RM(name)
		if !ok {
			return fmt.Errorf("xa: unknown resource manager %q", name)
		}
		rms = append(rms, rm)
		branches[name] = rm.Branch(gid)
	}
	abortAll := func() {
		for _, rm := range rms {
			c.roundTrip(rm, tr)
			rm.Abort(gid)
		}
	}
	if err := fn(branches); err != nil {
		abortAll()
		c.m.Counter("xa.aborts").Inc()
		return fmt.Errorf("%w: %w", ErrAborted, err)
	}
	// Phase 1: prepare.
	for _, rm := range rms {
		c.roundTrip(rm, tr)
		if err := rm.Prepare(gid); err != nil {
			abortAll()
			c.m.Counter("xa.aborts").Inc()
			return fmt.Errorf("%w: prepare at %s: %w", ErrAborted, rm.Name, err)
		}
	}
	if c.CrashBeforeDecision {
		c.CrashBeforeDecision = false
		c.m.Counter("xa.coordinator_crashes").Inc()
		return fmt.Errorf("%w: coordinator crashed before decision for %s", ErrInDoubt, gid)
	}
	// Decision: durable before anyone is told.
	if err := c.writeLog(gid, logRecord{Participants: participants, Decision: decisionCommit}); err != nil {
		abortAll()
		return err
	}
	if c.CrashAfterDecision {
		c.CrashAfterDecision = false
		c.m.Counter("xa.coordinator_crashes").Inc()
		return fmt.Errorf("%w: coordinator crashed after decision for %s", ErrInDoubt, gid)
	}
	// Phase 2: commit.
	for _, rm := range rms {
		c.roundTrip(rm, tr)
		if err := rm.Commit(gid); err != nil {
			// Prepared branches cannot fail to commit; this is a bug.
			return fmt.Errorf("xa: commit at %s after prepare: %w", rm.Name, err)
		}
	}
	c.writeLog(gid, logRecord{Participants: participants, Decision: decisionDone})
	c.m.Counter("xa.commits").Inc()
	return nil
}

// roundTrip charges one coordinator<->participant message exchange.
func (c *Coordinator) roundTrip(rm *ResourceManager, tr *fabric.Trace) {
	c.cluster.Send(c.node, rm.Node, tr)
	c.cluster.Send(rm.Node, c.node, tr)
}

// Recover completes in-flight transactions after a coordinator restart:
// logged commit decisions are re-driven to participants; transactions with
// no decision are aborted (presumed abort). Returns (committed, aborted).
func (c *Coordinator) Recover() (committed, aborted int, err error) {
	type entry struct {
		gid string
		rec logRecord
	}
	var entries []entry
	tx := c.log.Begin(store.SnapshotIsolation)
	scanErr := tx.Scan("decisions", "", "", func(gid string, row store.Row) bool {
		var rec logRecord
		if json.Unmarshal([]byte(row.Str("rec")), &rec) != nil {
			return true
		}
		if rec.Decision == decisionCommit {
			entries = append(entries, entry{gid: gid, rec: rec})
		}
		return true
	})
	tx.Abort()
	if scanErr != nil {
		return 0, 0, scanErr
	}
	for _, e := range entries {
		for _, name := range e.rec.Participants {
			rm, ok := c.RM(name)
			if !ok {
				continue
			}
			rm.Commit(e.gid) // idempotent-ish: unknown branch returns ErrNoTxn, ignored
		}
		c.writeLog(e.gid, logRecord{Participants: e.rec.Participants, Decision: decisionDone})
		committed++
	}
	// Presumed abort for everything still undecided at the participants.
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, rm := range c.rms {
		aborted += rm.RecoverPresumedAbort()
	}
	return committed, aborted, nil
}
