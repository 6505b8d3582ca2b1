package store

import (
	"errors"
	"runtime"
	"sync"
	"testing"
)

// waitQueued returns once n requests are queued on tk's lock.
func waitQueued(db *DB, tk tableKey, n int) {
	e := db.locks.entry(tk)
	for {
		e.mu.Lock()
		queued := len(e.waiters)
		e.mu.Unlock()
		if queued == n {
			return
		}
		runtime.Gosched()
	}
}

// uncontended2PLAllocs is the allocation count, measured with go1.24, of
// one Begin + Get + Put + Commit on an existing key whose lock nobody else
// wants. One more on this path — a wake channel per release, or a read map
// 2PL never fills, or a copy of a row — fails the test.
const uncontended2PLAllocs = 5

func TestUncontended2PLMakesNoWakeChannel(t *testing.T) {
	db := newBank(t, 1, 100)
	txn := func() {
		tx := db.Begin(Locking2PL)
		if _, _, err := tx.Get("accounts", "acc-0"); err != nil {
			t.Fatal(err)
		}
		if err := tx.Put("accounts", "acc-0", Row{"balance": int64(1)}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	txn() // makes the key's lock entry
	allocs := testing.AllocsPerRun(200, txn)
	if e := db.locks.entry(tableKey{"accounts", "acc-0"}); e.change != nil {
		t.Fatal("an uncontended transaction left a wake channel on its lock")
	}
	if allocs > uncontended2PLAllocs {
		t.Fatalf("uncontended 2PL transaction makes %v allocations, want at most %d", allocs, uncontended2PLAllocs)
	}
}

// Test2PLParkedWaitersWakeInWoundWaitOrder parks two younger writers on an
// exclusive holder; its commit wakes both, and the older one is granted
// first while the younger queues behind it. Every round reuses the key's
// lock entry, its slices and its wake channel's lifecycle.
func Test2PLParkedWaitersWakeInWoundWaitOrder(t *testing.T) {
	db := newBank(t, 1, 100)
	tk := tableKey{"accounts", "acc-0"}
	for round := 0; round < 1000; round++ {
		holder := db.Begin(Locking2PL)
		if err := holder.Put("accounts", "acc-0", Row{"balance": int64(round)}); err != nil {
			t.Fatal(err)
		}
		var (
			mu      sync.Mutex
			granted []uint64
			wg      sync.WaitGroup
		)
		for _, w := range []*Txn{db.Begin(Locking2PL), db.Begin(Locking2PL)} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := w.Put("accounts", "acc-0", Row{"balance": int64(round)}); err != nil {
					t.Errorf("round %d: waiter %d: %v", round, w.ID(), err)
					w.Abort()
					return
				}
				mu.Lock()
				granted = append(granted, w.ID())
				mu.Unlock()
				if err := w.Commit(); err != nil {
					t.Errorf("round %d: waiter %d commit: %v", round, w.ID(), err)
				}
			}()
		}
		waitQueued(db, tk, 2)
		if err := holder.Commit(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		if len(granted) != 2 || granted[0] > granted[1] {
			t.Fatalf("round %d: granted %v, want the older waiter first", round, granted)
		}
	}
}

// Test2PLUpgradeWhileReaderWaits upgrades a shared lock to exclusive while
// a younger shared holder still has it and a reader queues behind the
// upgrade: the upgrade wounds the younger holder, is granted once it
// aborts, and the reader reads the upgrader's write after its commit.
func Test2PLUpgradeWhileReaderWaits(t *testing.T) {
	db := newBank(t, 1, 100)
	tk := tableKey{"accounts", "acc-0"}
	older, younger, reader := db.Begin(Locking2PL), db.Begin(Locking2PL), db.Begin(Locking2PL)
	for _, tx := range []*Txn{older, younger} {
		if _, _, err := tx.Get("accounts", "acc-0"); err != nil {
			t.Fatal(err)
		}
	}
	upgraded := make(chan error, 1)
	go func() { upgraded <- older.Put("accounts", "acc-0", Row{"balance": int64(7)}) }()
	<-younger.woundedCh
	waitQueued(db, tk, 1)

	type result struct {
		row Row
		err error
	}
	read := make(chan result, 1)
	go func() {
		row, _, err := reader.Get("accounts", "acc-0")
		read <- result{row, err}
	}()
	waitQueued(db, tk, 2) // a shared request queues behind the older exclusive one

	if _, _, err := younger.Get("accounts", "acc-0"); !errors.Is(err, ErrWounded) {
		t.Fatalf("wounded holder's next read = %v, want ErrWounded", err)
	}
	younger.Abort()
	if err := <-upgraded; err != nil {
		t.Fatalf("upgrade after the wounded holder aborted: %v", err)
	}
	e := db.locks.entry(tk)
	e.mu.Lock()
	holders, queued := append([]lockHold(nil), e.holders...), len(e.waiters)
	e.mu.Unlock()
	if len(holders) != 1 || holders[0].t != older || holders[0].mode != lockExclusive {
		t.Fatalf("holders after the upgrade = %+v, want only the upgrader, exclusive", holders)
	}
	if queued != 1 {
		t.Fatalf("%d requests queued after the upgrade, want the reader", queued)
	}
	if err := older.Commit(); err != nil {
		t.Fatal(err)
	}
	res := <-read
	if res.err != nil {
		t.Fatalf("reader after the upgrader committed: %v", res.err)
	}
	if got := res.row.Int("balance"); got != 7 {
		t.Fatalf("reader read balance %d, want the upgrader's 7", got)
	}
	reader.Abort()
}
