package actor

import (
	"errors"
	"fmt"

	"tca/internal/fabric"
	"tca/internal/store"
)

// ErrReadOnlyTxn rejects writes inside a RunReadOnly transaction.
var ErrReadOnlyTxn = errors.New("actor: write in read-only transaction")

// Coordinator implements cross-actor ACID transactions in the style of the
// Orleans Transactions API the paper surveys in §4.2: transactional state
// is accessed under strict two-phase locking, and commit runs a two-phase
// protocol across every participating actor's node. The coordination —
// lock acquisition, the prepare round, and the commit round — is exactly
// where the "significant performance penalty" the paper cites comes from,
// and the benchmarks measure it against plain actor calls.
//
// As in Orleans, transactional state is disjoint from the actor's ad-hoc
// Save/Load state: transactions go through the dedicated "actor_txn_state"
// table so that the two concurrency regimes never silently mix.
type Coordinator struct {
	sys *System
	// Retries on serialization conflicts / wounds.
	Retries int
}

// NewCoordinator creates a transaction coordinator for the system.
func NewCoordinator(sys *System) *Coordinator {
	sys.db.CreateTable("actor_txn_state")
	return &Coordinator{sys: sys, Retries: 10}
}

// ActorTxn is the per-transaction handle passed to the body function.
type ActorTxn struct {
	sys   *System
	tx    *store.Txn
	trace *fabric.Trace
	coord fabric.NodeID
	// participants are the distinct nodes hosting actors this transaction
	// touched; each costs a prepare and a commit round trip.
	participants map[fabric.NodeID]struct{}
	// readOnly transactions reject writes and skip the commit protocol.
	readOnly bool
}

// Read returns the transactional state of ref, acquiring a shared lock.
func (t *ActorTxn) Read(ref Ref) (store.Row, bool, error) {
	if err := t.charge(ref); err != nil {
		return nil, false, err
	}
	return t.tx.Get("actor_txn_state", ref.String())
}

// Write replaces the transactional state of ref, acquiring an exclusive
// lock that is held until commit or abort.
func (t *ActorTxn) Write(ref Ref, state store.Row) error {
	if t.readOnly {
		return ErrReadOnlyTxn
	}
	if err := t.charge(ref); err != nil {
		return err
	}
	return t.tx.Put("actor_txn_state", ref.String(), state)
}

// charge records ref's node as a participant and charges the access hop.
func (t *ActorTxn) charge(ref Ref) error {
	node, err := t.sys.cluster.PlaceAlive(ref.String())
	if err != nil {
		return err
	}
	t.sys.cluster.Send(t.coord, node, t.trace)
	t.participants[node] = struct{}{}
	return nil
}

// Run executes fn as one ACID transaction across any set of actors,
// retrying on concurrency-control conflicts. The trace accumulates every
// coordination hop, so callers can compare the simulated latency against
// untransactional actor calls.
func (c *Coordinator) Run(tr *fabric.Trace, fn func(t *ActorTxn) error) error {
	return c.run(tr, false, fn)
}

// RunReadOnly executes fn as a read-only transaction: reads acquire shared
// locks under the same 2PL regime as Run (so the snapshot is serializable
// against concurrent writers), but there is nothing to vote on, so the
// prepare and commit rounds — two round trips per participant node — are
// skipped entirely. This is the classic read-only optimization of
// two-phase commit, and exactly the coordination a query saves.
func (c *Coordinator) RunReadOnly(tr *fabric.Trace, fn func(t *ActorTxn) error) error {
	return c.run(tr, true, fn)
}

// run is the retry loop under Run and RunReadOnly. A retry restarts the
// store transaction at its original age (store.Txn.Restart): wound-wait
// only guarantees progress if a wounded transaction does not come back
// younger than the one that wounded it.
func (c *Coordinator) run(tr *fabric.Trace, readOnly bool, fn func(t *ActorTxn) error) error {
	coord, err := c.sys.cluster.PlaceAlive("txn-coordinator")
	if err != nil {
		return err
	}
	kind, done := "", "actor.txn_commits"
	if readOnly {
		kind, done = "read-only ", "actor.txn_readonly"
	}
	tx := c.sys.db.Begin(store.Locking2PL)
	var lastErr error
	for attempt := 0; attempt <= c.Retries; attempt++ {
		if attempt > 0 {
			tx = tx.Restart()
		}
		t := &ActorTxn{
			sys:          c.sys,
			tx:           tx,
			trace:        tr,
			coord:        coord,
			participants: make(map[fabric.NodeID]struct{}),
			readOnly:     readOnly,
		}
		err := fn(t)
		if err == nil && !readOnly {
			err = c.commit(t)
		}
		// On the read-only path Abort is the release of the shared locks: a
		// transaction with no writes has nothing else to undo.
		tx.Abort()
		if err == nil {
			c.sys.metrics.Counter(done).Inc()
			return nil
		}
		if !store.IsRetryable(err) {
			return err
		}
		lastErr = err
		c.sys.metrics.Counter("actor.txn_retries").Inc()
	}
	c.sys.metrics.Counter("actor.txn_exhausted").Inc()
	return fmt.Errorf("actor: %stransaction retries exhausted: %w", kind, lastErr)
}

// commit runs two-phase commit for t across its participant nodes.
func (c *Coordinator) commit(t *ActorTxn) error {
	// Phase one: prepare every participant (one round trip each).
	for node := range t.participants {
		c.sys.cluster.Send(t.coord, node, t.trace)
		c.sys.cluster.Send(node, t.coord, t.trace)
	}
	if err := t.tx.Prepare(); err != nil {
		return err
	}
	// Phase two: commit decision to every participant.
	for node := range t.participants {
		c.sys.cluster.Send(t.coord, node, t.trace)
		c.sys.cluster.Send(node, t.coord, t.trace)
	}
	if err := t.tx.Commit(); err != nil {
		return fmt.Errorf("actor: commit after prepare must not fail: %w", err)
	}
	return nil
}

// ReadState reads an actor's transactional state outside any transaction
// (for verification in tests and the harness).
func (c *Coordinator) ReadState(ref Ref) (store.Row, bool, error) {
	tx := c.sys.db.Begin(store.ReadCommitted)
	defer tx.Abort()
	return tx.Get("actor_txn_state", ref.String())
}
