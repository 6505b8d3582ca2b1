package store

import (
	"sync"
	"sync/atomic"
	"testing"
)

// chainLen returns how many versions key's chain holds.
func chainLen(db *DB, table, key string) int {
	tbl, _ := db.table(table)
	rec, ok := tbl.get(key)
	if !ok {
		return 0
	}
	tbl.mu.RLock()
	defer tbl.mu.RUnlock()
	return len(rec.versions)
}

func bump(tx *Txn) error {
	r, _, err := tx.Get("accounts", "acc-0")
	if err != nil {
		return err
	}
	return tx.Put("accounts", "acc-0", Row{"balance": r.Int("balance") + 1})
}

// TestSnapshotSurvivesChurn pins the pruning rule from the reader's side: a
// snapshot held open through 10k versions of churn on its key still reads
// its own version, and ReadCommitted and Locking2PL readers — which read at
// the clock, not at their start — never find the key missing, neither
// while the snapshot pins the chain nor after it closes and every commit
// prunes down to the versions they may still be reading.
func TestSnapshotSurvivesChurn(t *testing.T) {
	const churn = 10000
	db := newBank(t, 1, 7)
	snap := db.Begin(SnapshotIsolation)
	if r, _, err := snap.Get("accounts", "acc-0"); err != nil || r.Int("balance") != 7 {
		t.Fatalf("snapshot read = %v, %v; want balance 7", r, err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for _, iso := range []Isolation{ReadCommitted, Locking2PL} {
		wg.Add(1)
		go func(iso Isolation) {
			defer wg.Done()
			for !stop.Load() {
				tx := db.Begin(iso)
				_, ok, err := tx.Get("accounts", "acc-0")
				tx.Abort()
				if err != nil || !ok {
					t.Errorf("%v reader: ok=%v err=%v mid-churn", iso, ok, err)
					return
				}
			}
		}(iso)
	}
	update := func() {
		for i := 0; i < churn; i++ {
			if err := db.Update(bump); err != nil {
				t.Errorf("Update %d: %v", i, err)
				return
			}
		}
	}
	update()
	r, _, err := snap.Get("accounts", "acc-0")
	snap.Abort()
	update()
	stop.Store(true)
	wg.Wait()
	if err != nil || r.Int("balance") != 7 {
		t.Fatalf("snapshot read after churn = %v, %v; want its own balance 7", r, err)
	}
	// With every reader gone, the next commit prunes what they pinned.
	if err := db.Update(bump); err != nil {
		t.Fatal(err)
	}
	if n := chainLen(db, "accounts", "acc-0"); n > 2 {
		t.Fatalf("chain holds %d versions once nothing is open, want <= 2", n)
	}
	check := db.Begin(ReadCommitted)
	defer check.Abort()
	if r, _, _ := check.Get("accounts", "acc-0"); r.Int("balance") != 7+2*churn+1 {
		t.Fatalf("balance = %d, want %d", r.Int("balance"), 7+2*churn+1)
	}
}

// TestChainPrunedWithoutSnapshots: with no transaction open, a key's
// chain never holds more than the version the committer read and the one
// it installs, however many updates it takes.
func TestChainPrunedWithoutSnapshots(t *testing.T) {
	db := newBank(t, 1, 0)
	for i := 0; i < 1000; i++ {
		if err := db.Update(bump); err != nil {
			t.Fatal(err)
		}
		if n := chainLen(db, "accounts", "acc-0"); n > 2 {
			t.Fatalf("after %d updates the chain holds %d versions, want <= 2", i+1, n)
		}
	}
}

// TestTxnUnregistersOnce: every way a transaction finishes — Restart, a
// failed Commit, Commit after Prepare, and Abort repeated on a finished
// transaction — unpins its start timestamp exactly once, so a repeated
// Abort cannot unpin another open transaction that began at the same
// timestamp.
func TestTxnUnregistersOnce(t *testing.T) {
	db := newBank(t, 2, 0)
	pin := db.Begin(SnapshotIsolation)
	start := pin.snapTS

	retry := db.Begin(Locking2PL).Restart()
	if retry.snapTS != start {
		t.Fatalf("restart began at %d, want %d (no commit in between)", retry.snapTS, start)
	}
	retry.Put("accounts", "acc-0", Row{"balance": int64(1)})
	if err := retry.Prepare(); err != nil {
		t.Fatal(err)
	}
	if err := retry.Commit(); err != nil {
		t.Fatal(err)
	}
	retry.Abort()
	retry.Abort()

	first, second := db.Begin(SnapshotIsolation), db.Begin(SnapshotIsolation)
	first.Put("accounts", "acc-1", Row{"balance": int64(1)})
	second.Put("accounts", "acc-1", Row{"balance": int64(2)})
	if err := first.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := second.Commit(); err == nil {
		t.Fatal("second committer succeeded, want a write-write conflict")
	}
	second.Abort()

	rc := db.Begin(ReadCommitted)
	rc.Abort()
	rc.Abort()

	db.openMu.Lock()
	open := len(db.open)
	db.openMu.Unlock()
	if open != 1 {
		t.Fatalf("%d transactions registered, want 1 (pin)", open)
	}
	if low := db.lowWater(); low != start {
		t.Fatalf("low-water mark = %d, want pin's start %d", low, start)
	}
	pin.Abort()
	if low, now := db.lowWater(), db.clock.Load(); low != now {
		t.Fatalf("low-water mark = %d with nothing open, want the clock %d", low, now)
	}
}
