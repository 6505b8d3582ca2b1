package faas

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"tca/internal/store"
)

// ErrNotInCriticalSection rejects a section's access to an entity it
// does not hold, or any access after Unlock.
var ErrNotInCriticalSection = errors.New("faas: entity not locked by this critical section")

// EntityID addresses a durable entity (the typed-object state abstraction
// of Azure Durable Functions surveyed in §4.2).
type EntityID struct {
	Type string
	ID   string
}

func (e EntityID) String() string { return e.Type + "@" + e.ID }

// EntityManager hosts durable entities. Individual operations on one entity
// are atomic and serialized (each entity processes one operation at a
// time). Operations spanning entities require an explicit critical section
// — callers acquire and release locks, exactly the contract the paper
// describes ("users must acquire and release locks explicitly"). There is
// no isolation across functions beyond that.
//
// An entity is addressed by its (Type, ID) pair and never by a name built
// from it: each entity type is one store table, created with the type's
// first entity lock, and an entity's state is the row at its ID there.
type EntityManager struct {
	p  *Platform
	db *store.DB

	mu    sync.Mutex
	locks map[EntityID]*sync.Mutex
	types map[string]bool // the types whose table exists
}

func newEntityManager(p *Platform) *EntityManager {
	db := store.NewDB(store.Config{Name: "faas-entities"})
	return &EntityManager{p: p, db: db, locks: make(map[EntityID]*sync.Mutex), types: make(map[string]bool)}
}

// lockOf returns id's lock, making it (and its type's table) on first use.
// Caller holds m.mu.
func (m *EntityManager) lockOf(id EntityID) *sync.Mutex {
	l, ok := m.locks[id]
	if !ok {
		l = &sync.Mutex{}
		m.locks[id] = l
		if !m.types[id.Type] {
			m.db.CreateTable(id.Type)
			m.types[id.Type] = true
		}
	}
	return l
}

// Signal performs one atomic operation on a single entity: fn receives the
// current state (nil when fresh), shared (see store.Row), and returns a new
// state, which the store keeps. The read-modify-write is serialized per
// entity and durably committed — single-entity operations need no explicit
// locking.
func (m *EntityManager) Signal(id EntityID, fn func(state store.Row) (store.Row, error)) error {
	m.mu.Lock()
	l := m.lockOf(id)
	m.mu.Unlock()
	l.Lock()
	defer l.Unlock()
	tx := m.db.Begin(store.ReadCommitted)
	if err := update(tx, id, fn); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// update runs fn's read-modify-write of entity id in tx.
func update(tx *store.Txn, id EntityID, fn func(state store.Row) (store.Row, error)) error {
	cur, _, err := tx.Get(id.Type, id.ID)
	if err != nil {
		return err
	}
	next, err := fn(cur)
	if err != nil {
		return err
	}
	return tx.Put(id.Type, id.ID, next)
}

// Read returns an entity's current state without locking (a dirty read by
// design — Durable Functions reads outside critical sections see whatever
// is committed at that instant). The row is shared (see store.Row): do not
// change it. An entity of a type never locked is absent.
func (m *EntityManager) Read(id EntityID) (store.Row, bool, error) {
	tx := m.db.Begin(store.ReadCommitted)
	defer tx.Abort()
	row, found, err := tx.Get(id.Type, id.ID)
	if errors.Is(err, store.ErrNoTable) {
		return nil, false, nil
	}
	return row, found, err
}

// CriticalSection is an explicit multi-entity lock scope, and one store
// transaction: its reads and writes run in that transaction, and Unlock
// commits the writes together or not at all.
type CriticalSection struct {
	held   []heldEntity // sorted by (Type, ID), the acquisition order
	tx     *store.Txn
	staged bool  // an Update has put a row in tx
	err    error // the first failed Update's error
	closed bool
}

type heldEntity struct {
	id   EntityID
	lock *sync.Mutex
}

// Lock opens a critical section over the given entities. Locks are
// acquired in a canonical order, by (Type, ID), which makes cross-section
// deadlock impossible — the discipline Durable Functions enforces by
// requiring all entities to be declared up front. It then begins the
// section's one ReadCommitted transaction: every entity it may touch is
// locked, so its reads are stable until Unlock.
func (m *EntityManager) Lock(ids ...EntityID) *CriticalSection {
	cs := &CriticalSection{held: make([]heldEntity, len(ids))}
	m.mu.Lock()
	for i, id := range ids {
		cs.held[i] = heldEntity{id: id, lock: m.lockOf(id)}
	}
	m.mu.Unlock()
	slices.SortFunc(cs.held, func(a, b heldEntity) int {
		return cmp.Or(strings.Compare(a.id.Type, b.id.Type), strings.Compare(a.id.ID, b.id.ID))
	})
	for _, h := range cs.held {
		h.lock.Lock()
	}
	cs.tx = m.db.Begin(store.ReadCommitted)
	m.p.criticalSections.Inc()
	return cs
}

// Update performs a read-modify-write on one locked entity in the
// section's transaction: later reads in the section see it, and it
// commits at Unlock. After a failed Update the section commits nothing.
// As with Signal, fn must not change the row it receives.
func (cs *CriticalSection) Update(id EntityID, fn func(state store.Row) (store.Row, error)) error {
	err := cs.check(id)
	if err == nil {
		err = update(cs.tx, id, fn)
	}
	if err != nil && cs.err == nil {
		cs.err = err
	}
	cs.staged = cs.staged || err == nil
	return err
}

// Get reads one locked entity, as the section's own Updates left it. The
// row is shared (see store.Row): do not change it.
func (cs *CriticalSection) Get(id EntityID) (store.Row, bool, error) {
	if err := cs.check(id); err != nil {
		return nil, false, err
	}
	return cs.tx.Get(id.Type, id.ID)
}

// check fails unless the section is open and holds id.
func (cs *CriticalSection) check(id EntityID) error {
	for _, h := range cs.held {
		if h.id == id && !cs.closed {
			return nil
		}
	}
	return fmt.Errorf("%w: %s", ErrNotInCriticalSection, id)
}

// Unlock ends the critical section: it commits the section's Updates in
// one store commit — or, if one failed, commits nothing and returns that
// Update's error — and then releases the locks. Idempotent.
func (cs *CriticalSection) Unlock() error {
	if cs.closed {
		return nil
	}
	cs.closed = true
	err := cs.err
	if err == nil && cs.staged {
		err = cs.tx.Commit()
	}
	cs.tx.Abort() // a no-op after Commit
	// Release in reverse acquisition order.
	for i := len(cs.held) - 1; i >= 0; i-- {
		cs.held[i].lock.Unlock()
	}
	return err
}
