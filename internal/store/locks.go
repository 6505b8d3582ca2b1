package store

import (
	"fmt"
	"slices"
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

// lockHold is one transaction's hold on, or blocked request for, a lock.
type lockHold struct {
	t    *Txn
	mode lockMode
}

// lockEntry is one key's lock. Entries live as long as the manager, so
// holders and waiters keep their capacity from one grant to the next:
// after the first, an uncontended grant and release allocate nothing.
// change is the wake channel: the first waiter to park makes it, and a
// release or a waiter leaving closes and clears it, so only a lock someone
// waits on has one.
type lockEntry struct {
	mu      sync.Mutex
	holders []lockHold
	waiters []lockHold // blocked requests, by requested mode
	change  chan struct{}
}

func newLockManager(db *DB) *lockManager {
	return &lockManager{db: db, entries: make(map[tableKey]*lockEntry)}
}

func (lm *lockManager) entry(tk tableKey) *lockEntry {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	e, ok := lm.entries[tk]
	if !ok {
		e = &lockEntry{}
		lm.entries[tk] = e
	}
	return e
}

// holdOf returns the index of t's hold or request in hs, or -1.
func holdOf(hs []lockHold, t *Txn) int {
	for i, h := range hs {
		if h.t == t {
			return i
		}
	}
	return -1
}

// acquire takes the lock on tk in the given mode for t, blocking until
// granted, the wait times out, or t is wounded. Re-acquiring a held lock is
// a no-op; acquiring exclusive over an own shared lock upgrades it.
func (lm *lockManager) acquire(t *Txn, tk tableKey, mode lockMode) error {
	e := lm.entry(tk)
	deadline := time.Now().Add(lm.db.cfg.LockWaitTimeout)
	for {
		e.mu.Lock()
		held := holdOf(e.holders, t)
		if held >= 0 && (e.holders[held].mode == lockExclusive || e.holders[held].mode == mode) {
			e.mu.Unlock()
			return nil
		}
		if !e.woundConflictsLocked(t, mode) && !e.olderWaiterLocked(t, mode) {
			if held >= 0 {
				e.holders[held].mode = mode // upgrade shared -> exclusive
			} else {
				e.holders = append(e.holders, lockHold{t, mode})
				t.held = append(t.held, e)
			}
			e.stopWaitingLocked(t)
			e.mu.Unlock()
			return nil
		}
		if holdOf(e.waiters, t) < 0 {
			e.waiters = append(e.waiters, lockHold{t, mode})
		}
		if e.change == nil {
			e.change = make(chan struct{})
		}
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
	for _, w := range e.waiters {
		if w.t.id < t.id && (mode == lockExclusive || w.mode == lockExclusive) {
			return true
		}
	}
	return false
}

// stopWaitingLocked removes t from the waiters and wakes the requests
// queued behind it. Caller holds e.mu.
func (e *lockEntry) stopWaitingLocked(t *Txn) {
	if i := holdOf(e.waiters, t); i >= 0 {
		e.waiters = slices.Delete(e.waiters, i, i+1)
		e.wakeLocked()
	}
}

// wakeLocked wakes every parked waiter, if any. Caller holds e.mu.
func (e *lockEntry) wakeLocked() {
	if e.change != nil {
		close(e.change)
		e.change = nil
	}
}

// woundConflictsLocked reports whether a holder other than t holds e in a
// mode that conflicts with t requesting mode, and wounds (wound-wait) every
// such holder younger than t. Caller holds e.mu.
func (e *lockEntry) woundConflictsLocked(t *Txn, mode lockMode) bool {
	conflict := false
	for _, h := range e.holders {
		if h.t == t || (mode == lockShared && h.mode == lockShared) {
			continue
		}
		conflict = true
		if t.id < h.t.id {
			h.t.wound()
		}
	}
	return conflict
}

// releaseAll drops every lock held by t and wakes waiters.
func (lm *lockManager) releaseAll(t *Txn) {
	for _, e := range t.held {
		e.mu.Lock()
		if i := holdOf(e.holders, t); i >= 0 {
			e.holders = slices.Delete(e.holders, i, i+1)
			e.wakeLocked()
		}
		e.mu.Unlock()
	}
	t.held = nil
}
