package store

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
)

type txnState int

const (
	txnActive txnState = iota
	txnPrepared
	txnCommitted
	txnAborted
)

type tableKey struct {
	table, key string
}

// writeOp is one staged write: the row Put gave the transaction, or a
// delete.
type writeOp struct {
	tk  tableKey
	row Row
	del bool
}

// Txn is one database transaction. A Txn is not safe for concurrent use by
// multiple goroutines (as with database/sql's Tx).
type Txn struct {
	db     *DB
	iso    Isolation
	id     uint64 // monotone; lower id = older, used by wound-wait
	snapTS uint64
	state  txnState

	reads map[tableKey]uint64 // Serializable only: observed commit ts (0 = observed absent)
	// writes is the write set, one entry per key in first-write order,
	// which is also the install order. wbuf backs its first 8 entries.
	writes []writeOp
	wbuf   [8]writeOp

	wounded   atomic.Bool
	woundedCh chan struct{} // Locking2PL only, the one level whose txns hold locks and so get wounded
	held      []*lockEntry
}

// Begin starts a transaction at the given isolation level.
func (db *DB) Begin(iso Isolation) *Txn {
	return db.begin(iso, db.txnSeq.Add(1))
}

func (db *DB) begin(iso Isolation, id uint64) *Txn {
	t := &Txn{
		db:     db,
		iso:    iso,
		id:     id,
		snapTS: db.register(),
	}
	t.writes = t.wbuf[:0]
	switch iso {
	case Serializable:
		t.reads = make(map[tableKey]uint64)
	case Locking2PL:
		t.woundedCh = make(chan struct{})
	}
	return t
}

// Restart aborts t (if it has not finished) and begins its retry: a fresh
// transaction at the same isolation level and at t's age. Wound-wait's
// no-starvation argument needs exactly this — a wounded transaction that
// came back with a new, larger id would be the youngest again on every
// attempt and could be wounded forever; keeping its id, it eventually is
// the oldest transaction in the system and nothing can wound it.
func (t *Txn) Restart() *Txn {
	t.Abort()
	return t.db.begin(t.iso, t.id)
}

// ID returns the transaction's id: its age for wound-wait purposes, unique
// among transactions started by Begin and inherited by a Restart.
func (t *Txn) ID() uint64 { return t.id }

// wound marks the transaction as a deadlock-avoidance victim. Idempotent.
func (t *Txn) wound() {
	if t.wounded.CompareAndSwap(false, true) {
		close(t.woundedCh)
		t.db.Wounds.Add(1)
	}
}

func (t *Txn) checkUsable() error {
	if t.state != txnActive {
		return ErrTxnDone
	}
	if t.wounded.Load() {
		return ErrWounded
	}
	return nil
}

// Get returns the row at key in table, or ok=false when absent. The row is
// the one installed (or staged by this transaction's Put), shared with
// every other reader: the caller must not change it.
func (t *Txn) Get(tableName, key string) (Row, bool, error) {
	if err := t.checkUsable(); err != nil {
		return nil, false, err
	}
	done := t.db.admit()
	defer done()
	tk := tableKey{tableName, key}
	if i := t.staged(tk); i >= 0 {
		w := t.writes[i]
		return w.row, !w.del, nil
	}
	tbl, err := t.db.table(tableName)
	if err != nil {
		return nil, false, err
	}
	if t.iso == Locking2PL {
		if err := t.db.locks.acquire(t, tk, lockShared); err != nil {
			return nil, false, err
		}
	}
	at := t.readTS()
	rec, ok := tbl.get(key)
	if !ok {
		t.noteRead(tk, 0)
		return nil, false, nil
	}
	tbl.mu.RLock()
	v, found := rec.latest(at)
	tbl.mu.RUnlock()
	if !found || v.deleted {
		t.noteRead(tk, 0)
		return nil, false, nil
	}
	t.noteRead(tk, v.ts)
	return v.row, true, nil
}

// readTS returns the timestamp this transaction reads at.
func (t *Txn) readTS() uint64 {
	switch t.iso {
	case ReadCommitted, Locking2PL:
		return t.db.clock.Load()
	default:
		return t.snapTS
	}
}

func (t *Txn) noteRead(tk tableKey, ts uint64) {
	if t.iso == Serializable {
		if _, seen := t.reads[tk]; !seen {
			t.reads[tk] = ts
		}
	}
}

// Put buffers a write of row under key. The transaction takes ownership of
// row: the caller must not change it afterwards.
func (t *Txn) Put(tableName, key string, row Row) error {
	return t.stage(writeOp{tk: tableKey{tableName, key}, row: row})
}

// Delete buffers a deletion of key.
func (t *Txn) Delete(tableName, key string) error {
	return t.stage(writeOp{tk: tableKey{tableName, key}, del: true})
}

// stage takes w's key's exclusive lock under Locking2PL and records w,
// replacing an earlier write of the key in place so that the key keeps its
// first-write position.
func (t *Txn) stage(w writeOp) error {
	if err := t.checkUsable(); err != nil {
		return err
	}
	done := t.db.admit()
	defer done()
	if _, err := t.db.table(w.tk.table); err != nil {
		return err
	}
	if t.iso == Locking2PL {
		if err := t.db.locks.acquire(t, w.tk, lockExclusive); err != nil {
			return err
		}
	}
	if i := t.staged(w.tk); i >= 0 {
		t.writes[i] = w
		return nil
	}
	t.writes = append(t.writes, w)
	return nil
}

// staged returns the index of tk's entry in the write set, or -1.
func (t *Txn) staged(tk tableKey) int {
	for i := range t.writes {
		if t.writes[i].tk == tk {
			return i
		}
	}
	return -1
}

// Scan iterates rows with keys in [start, end) in ascending key order,
// merged with the transaction's own uncommitted writes. An empty end means
// "to the last key". fn returning false stops the scan. As with Get, the
// rows fn receives are shared: fn must not change them.
//
// Note: under Serializable, Scan validates the individual keys it returned
// but not the absence of others — phantoms are not prevented (the store is
// honest about this classic OCC limitation; the TPC-C workload avoids
// depending on it).
func (t *Txn) Scan(tableName, start, end string, fn func(key string, row Row) bool) error {
	if err := t.checkUsable(); err != nil {
		return err
	}
	done := t.db.admit()
	defer done()
	tbl, err := t.db.table(tableName)
	if err != nil {
		return err
	}
	at := t.readTS()
	keys := tbl.sortedKeys()
	// Merge in own-write keys not yet committed.
	committed := len(keys)
	for i := range t.writes {
		if tk := t.writes[i].tk; tk.table == tableName {
			keys = append(keys, tk.key)
		}
	}
	if len(keys) > committed {
		sort.Strings(keys)
		keys = slices.Compact(keys)
	}
	for _, k := range keys {
		if k < start || (end != "" && k >= end) {
			continue
		}
		tk := tableKey{tableName, k}
		if i := t.staged(tk); i >= 0 {
			if w := t.writes[i]; !w.del && !fn(k, w.row) {
				return nil
			}
			continue
		}
		if t.iso == Locking2PL {
			if err := t.db.locks.acquire(t, tk, lockShared); err != nil {
				return err
			}
		}
		rec, ok := tbl.get(k)
		if !ok {
			continue
		}
		tbl.mu.RLock()
		v, found := rec.latest(at)
		tbl.mu.RUnlock()
		if !found || v.deleted {
			continue
		}
		t.noteRead(tk, v.ts)
		if !fn(k, v.row) {
			return nil
		}
	}
	return nil
}

// Prepare is phase one of two-phase commit. It is only meaningful under
// Locking2PL: it validates the transaction can commit and pins its locks
// until Commit or Abort. After a successful Prepare, Commit cannot fail —
// the durability contract a 2PC participant must offer its coordinator.
func (t *Txn) Prepare() error {
	if err := t.checkUsable(); err != nil {
		return err
	}
	if t.iso != Locking2PL {
		return fmt.Errorf("store: Prepare requires Locking2PL, have %v", t.iso)
	}
	t.state = txnPrepared
	return nil
}

// Commit makes the transaction's writes visible atomically. Under
// SnapshotIsolation and Serializable it may return ErrWriteConflict or
// ErrConflict, in which case nothing was applied and the caller should
// retry.
func (t *Txn) Commit() error {
	switch t.state {
	case txnActive:
		if t.wounded.Load() {
			t.Abort()
			return ErrWounded
		}
	case txnPrepared:
		// Prepared transactions commit unconditionally.
	default:
		return ErrTxnDone
	}

	db := t.db
	db.commitMu.Lock()
	// Validation.
	if t.state == txnActive {
		switch t.iso {
		case SnapshotIsolation, Serializable:
			for i := range t.writes {
				if tk := t.writes[i].tk; db.latestTS(tk) > t.snapTS {
					db.commitMu.Unlock()
					db.Conflicts.Add(1)
					t.Abort()
					return fmt.Errorf("%w: %s/%s", ErrWriteConflict, tk.table, tk.key)
				}
			}
		}
		if t.iso == Serializable {
			for tk, seen := range t.reads {
				if t.staged(tk) >= 0 {
					continue // covered by the write check above
				}
				if ts := db.latestTS(tk); ts != seen {
					db.commitMu.Unlock()
					db.Conflicts.Add(1)
					t.Abort()
					return fmt.Errorf("%w: read %s/%s changed", ErrConflict, tk.table, tk.key)
				}
			}
		}
	}
	// Install at clock+1, pruning each chain below the low-water mark, and
	// publish the clock only after the last version is in place: Begin
	// reads the clock without commitMu, so a clock that ran ahead of the
	// installs would hand a new transaction snapTS = ts while it still read
	// the pre-ts versions — and validation (latestTS > snapTS) would then
	// miss the conflict, losing an update.
	ts, low := db.clock.Load()+1, db.lowWater()
	for _, w := range t.writes {
		tbl, err := db.table(w.tk.table)
		if err != nil {
			db.commitMu.Unlock()
			t.Abort()
			return err
		}
		tbl.install(w.tk.key, version{ts: ts, row: w.row, deleted: w.del}, low)
	}
	db.clock.Store(ts)
	db.commitMu.Unlock()

	t.finish(txnCommitted)
	db.Commits.Add(1)
	return nil
}

// latestTS returns the commit timestamp of the newest version of tk, or 0
// when the key has never been written.
func (db *DB) latestTS(tk tableKey) uint64 {
	tbl, err := db.table(tk.table)
	if err != nil {
		return 0
	}
	rec, ok := tbl.get(tk.key)
	if !ok {
		return 0
	}
	tbl.mu.RLock()
	defer tbl.mu.RUnlock()
	if len(rec.versions) == 0 {
		return 0
	}
	return rec.versions[len(rec.versions)-1].ts
}

// Abort discards the transaction. Safe to call on finished transactions.
func (t *Txn) Abort() {
	if t.state == txnCommitted || t.state == txnAborted {
		return
	}
	t.finish(txnAborted)
	t.db.Aborts.Add(1)
}

// finish moves t to a terminal state, unpins its start timestamp and
// releases its locks. Commit and Abort call it only from a non-terminal
// state, so each transaction unregisters exactly once.
func (t *Txn) finish(s txnState) {
	t.state = s
	t.db.unregister(t.snapTS)
	t.db.locks.releaseAll(t)
}
