package actor

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"tca/internal/fabric"
	"tca/internal/metrics"
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
// Save/Load state: each ref type's transactional state is its own table,
// "actor_txn_state/<Type>", keyed by ID and never the "actor_state" table,
// so that the two concurrency regimes never silently mix.
type Coordinator struct {
	sys   *System
	types sync.Map // ref type -> *txnType

	commits, readOnly, retries, exhausted *metrics.Counter // actor.txn_*
}

// txnRetries is how many times a transaction is retried after a
// serialization conflict or a wound before it gives up.
const txnRetries = 10

// txnType is one ref type's transactional state: its table, and the hash
// of "<Type>/" that placement continues over an ID, so that a ref is
// placed where Ref.String() places it without building that string.
type txnType struct {
	name  string
	table string
	place uint64
}

// typeOf returns the state of ref type name, creating its table on the
// type's first use.
func (c *Coordinator) typeOf(name string) *txnType {
	if ty, ok := c.types.Load(name); ok {
		return ty.(*txnType)
	}
	ty := &txnType{name: name, table: "actor_txn_state/" + name,
		place: fabric.HashMore(fabric.Hash(name), "/")}
	c.sys.db.CreateTable(ty.table)
	got, _ := c.types.LoadOrStore(name, ty)
	return got.(*txnType)
}

// NewCoordinator creates a transaction coordinator for the system.
func NewCoordinator(sys *System) *Coordinator {
	m := sys.metrics
	return &Coordinator{sys: sys,
		commits: m.Counter("actor.txn_commits"), readOnly: m.Counter("actor.txn_readonly"),
		retries: m.Counter("actor.txn_retries"), exhausted: m.Counter("actor.txn_exhausted")}
}

// ActorTxn is the per-transaction handle passed to the body function.
type ActorTxn struct {
	c     *Coordinator
	tx    *store.Txn
	trace *fabric.Trace
	coord fabric.NodeID
	// participants are the distinct nodes hosting actors this transaction
	// touched, in touch order; each costs a prepare and a commit round trip.
	// parts backs it until more nodes than that are touched.
	participants []fabric.NodeID
	parts        [4]fabric.NodeID
	// typ is the type of the last ref touched: a transaction's refs are
	// mostly of one type, so the type lookup is mostly this compare.
	typ *txnType
	// readOnly transactions reject writes and skip the commit protocol.
	readOnly bool
}

// Read returns the transactional state of ref, acquiring a shared lock.
// The row is shared (see store.Row): do not change it.
func (t *ActorTxn) Read(ref Ref) (store.Row, bool, error) {
	table, err := t.charge(ref)
	if err != nil {
		return nil, false, err
	}
	return t.tx.Get(table, ref.ID)
}

// Write replaces the transactional state of ref, acquiring an exclusive
// lock that is held until commit or abort. The store keeps state (see
// store.Row): do not change it afterwards.
func (t *ActorTxn) Write(ref Ref, state store.Row) error {
	if t.readOnly {
		return ErrReadOnlyTxn
	}
	table, err := t.charge(ref)
	if err != nil {
		return err
	}
	return t.tx.Put(table, ref.ID, state)
}

// charge records ref's node as a participant, charges the access hop, and
// returns the table of ref's type.
func (t *ActorTxn) charge(ref Ref) (string, error) {
	if t.typ == nil || t.typ.name != ref.Type {
		t.typ = t.c.typeOf(ref.Type)
	}
	cluster := t.c.sys.cluster
	node, err := cluster.PlaceAliveHash(fabric.HashMore(t.typ.place, ref.ID))
	if err != nil {
		return "", err
	}
	cluster.Send(t.coord, node, t.trace)
	if !slices.Contains(t.participants, node) {
		t.participants = append(t.participants, node)
	}
	return t.typ.table, nil
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
	kind, done := "", c.commits
	if readOnly {
		kind, done = "read-only ", c.readOnly
	}
	tx := c.sys.db.Begin(store.Locking2PL)
	var lastErr error
	for attempt := 0; attempt <= txnRetries; attempt++ {
		if attempt > 0 {
			tx = tx.Restart()
		}
		t := &ActorTxn{
			c:        c,
			tx:       tx,
			trace:    tr,
			coord:    coord,
			readOnly: readOnly,
		}
		t.participants = t.parts[:0]
		err := fn(t)
		if err == nil && !readOnly {
			err = c.commit(t)
		}
		// On the read-only path Abort is the release of the shared locks: a
		// transaction with no writes has nothing else to undo.
		tx.Abort()
		if err == nil {
			done.Inc()
			return nil
		}
		if !store.IsRetryable(err) {
			return err
		}
		lastErr = err
		c.retries.Inc()
	}
	c.exhausted.Inc()
	return fmt.Errorf("actor: %stransaction retries exhausted: %w", kind, lastErr)
}

// commit runs two-phase commit for t across its participant nodes.
func (c *Coordinator) commit(t *ActorTxn) error {
	// Phase one: prepare every participant (one round trip each).
	for _, node := range t.participants {
		c.sys.cluster.Send(t.coord, node, t.trace)
		c.sys.cluster.Send(node, t.coord, t.trace)
	}
	if err := t.tx.Prepare(); err != nil {
		return err
	}
	// Phase two: commit decision to every participant.
	for _, node := range t.participants {
		c.sys.cluster.Send(t.coord, node, t.trace)
		c.sys.cluster.Send(node, t.coord, t.trace)
	}
	if err := t.tx.Commit(); err != nil {
		return fmt.Errorf("actor: commit after prepare must not fail: %w", err)
	}
	return nil
}

// ReadState reads an actor's transactional state outside any transaction
// (for verification in tests and the harness). The row is shared (see
// store.Row): do not change it.
func (c *Coordinator) ReadState(ref Ref) (store.Row, bool, error) {
	tx := c.sys.db.Begin(store.ReadCommitted)
	defer tx.Abort()
	return tx.Get(c.typeOf(ref.Type).table, ref.ID)
}
