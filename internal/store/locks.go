package store

import (
	"fmt"
	"sync"
	"time"
)

// lockMode is the requested access mode for a key lock.
type lockMode int

const (
	lockShared lockMode = iota
	lockExclusive
)

// lockManager implements strict two-phase locking with wound-wait deadlock
// avoidance: a requester older than a conflicting holder wounds (aborts) the
// holder; a younger requester waits — behind conflicting holders and behind
// older requesters already waiting, so a wounded transaction that restarts
// (Txn.Restart keeps its age) cannot slip back in front of the transaction
// that wounded it. Wait-for edges therefore only point from younger to
// older transactions, which makes cycles — and deadlocks — impossible, and
// the oldest transaction always makes progress, which rules out starvation.
// Locks are held until commit or abort (strictness), and across
// the 2PC prepare window, which is exactly the blocking behaviour of
// traditional distributed commit the paper calls out in §4.2.
type lockManager struct {
	db *DB

	mu      sync.Mutex
	entries map[tableKey]*lockEntry
}

type lockEntry struct {
	key tableKey

	mu      sync.Mutex
	holders map[*Txn]lockMode
	waiters map[*Txn]lockMode // blocked requests, by requested mode
	change  chan struct{}     // closed and replaced whenever holders or waiters shrink
}

func newLockManager(db *DB) *lockManager {
	return &lockManager{db: db, entries: make(map[tableKey]*lockEntry)}
}

func (lm *lockManager) entry(tk tableKey) *lockEntry {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	e, ok := lm.entries[tk]
	if !ok {
		e = &lockEntry{key: tk, holders: make(map[*Txn]lockMode), waiters: make(map[*Txn]lockMode), change: make(chan struct{})}
		lm.entries[tk] = e
	}
	return e
}

// acquire takes the lock on tk in the given mode for t, blocking until
// granted, the wait times out, or t is wounded. Re-acquiring a held lock is
// a no-op; acquiring exclusive over an own shared lock upgrades it.
func (lm *lockManager) acquire(t *Txn, tk tableKey, mode lockMode) error {
	e := lm.entry(tk)
	deadline := time.Now().Add(lm.db.cfg.LockWaitTimeout)
	for {
		e.mu.Lock()
		if cur, held := e.holders[t]; held && (cur == lockExclusive || cur == mode) {
			e.mu.Unlock()
			return nil
		}
		conflicts := e.conflictsLocked(t, mode)
		if len(conflicts) == 0 && !e.olderWaiterLocked(t, mode) {
			_, alreadyHeld := e.holders[t]
			e.holders[t] = mode // grant (or upgrade shared -> exclusive)
			if !alreadyHeld {
				t.held = append(t.held, e)
			}
			e.stopWaitingLocked(t)
			e.mu.Unlock()
			return nil
		}
		// Wound-wait: wound every conflicting holder younger than t.
		for _, h := range conflicts {
			if t.id < h.id {
				h.wound()
			}
		}
		e.waiters[t] = mode
		waitCh := e.change
		e.mu.Unlock()

		// A deadline already past fires the timer at once.
		timer := time.NewTimer(time.Until(deadline))
		var err error
		select {
		case <-waitCh:
		case <-t.woundedCh:
			err = ErrWounded
		case <-timer.C:
			err = fmt.Errorf("%w: %s/%s", ErrLockTimeout, tk.table, tk.key)
		}
		timer.Stop()
		if err != nil {
			e.mu.Lock()
			e.stopWaitingLocked(t)
			e.mu.Unlock()
			return err
		}
	}
}

// olderWaiterLocked reports whether a transaction older than t is already
// waiting for e in a mode that conflicts with t requesting mode — t then
// queues behind it instead of taking the lock from under it. Caller holds
// e.mu.
func (e *lockEntry) olderWaiterLocked(t *Txn, mode lockMode) bool {
	for w, m := range e.waiters {
		if w.id < t.id && (mode == lockExclusive || m == lockExclusive) {
			return true
		}
	}
	return false
}

// stopWaitingLocked removes t from the waiters and wakes the requests
// queued behind it. Caller holds e.mu.
func (e *lockEntry) stopWaitingLocked(t *Txn) {
	if _, waiting := e.waiters[t]; waiting {
		delete(e.waiters, t)
		close(e.change)
		e.change = make(chan struct{})
	}
}

// conflictsLocked returns holders whose mode conflicts with t requesting
// mode. Caller holds e.mu.
func (e *lockEntry) conflictsLocked(t *Txn, mode lockMode) []*Txn {
	var out []*Txn
	for h, m := range e.holders {
		if h == t {
			continue
		}
		if mode == lockExclusive || m == lockExclusive {
			out = append(out, h)
		}
	}
	return out
}

// releaseAll drops every lock held by t and wakes waiters.
func (lm *lockManager) releaseAll(t *Txn) {
	for _, e := range t.held {
		e.mu.Lock()
		if _, held := e.holders[t]; held {
			delete(e.holders, t)
			close(e.change)
			e.change = make(chan struct{})
		}
		e.mu.Unlock()
	}
	t.held = nil
}
