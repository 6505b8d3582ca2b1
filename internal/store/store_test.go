package store

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func newBank(t *testing.T, accounts int, balance int64) *DB {
	t.Helper()
	db := NewDB(Config{Name: "bank"})
	db.CreateTable("accounts")
	tx := db.Begin(ReadCommitted)
	for i := 0; i < accounts; i++ {
		if err := tx.Put("accounts", fmt.Sprintf("acc-%d", i), Row{"balance": balance}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestPutGetCommit(t *testing.T) {
	db := NewDB(Config{})
	db.CreateTable("t")
	tx := db.Begin(ReadCommitted)
	tx.Put("t", "k", Row{"x": int64(1)})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := db.Begin(ReadCommitted)
	defer tx2.Abort()
	row, ok, err := tx2.Get("t", "k")
	if err != nil || !ok {
		t.Fatalf("Get = %v,%v,%v", row, ok, err)
	}
	if row.Int("x") != 1 {
		t.Fatalf("x = %d, want 1", row.Int("x"))
	}
}

func TestUncommittedInvisible(t *testing.T) {
	db := NewDB(Config{})
	db.CreateTable("t")
	tx := db.Begin(Serializable)
	tx.Put("t", "k", Row{"x": int64(1)})
	other := db.Begin(ReadCommitted)
	if _, ok, _ := other.Get("t", "k"); ok {
		t.Fatal("uncommitted write visible to other transaction (dirty read)")
	}
	other.Abort()
	tx.Abort()
	// Aborted writes never appear.
	check := db.Begin(ReadCommitted)
	defer check.Abort()
	if _, ok, _ := check.Get("t", "k"); ok {
		t.Fatal("aborted write became visible")
	}
}

func TestReadOwnWrites(t *testing.T) {
	db := NewDB(Config{})
	db.CreateTable("t")
	tx := db.Begin(SnapshotIsolation)
	defer tx.Abort()
	tx.Put("t", "k", Row{"x": int64(7)})
	row, ok, _ := tx.Get("t", "k")
	if !ok || row.Int("x") != 7 {
		t.Fatalf("own write not visible: %v %v", row, ok)
	}
	tx.Delete("t", "k")
	if _, ok, _ := tx.Get("t", "k"); ok {
		t.Fatal("own delete not visible")
	}
}

// TestRowCopySemantics pins the store's row ownership contract: rows pass
// by reference, never copied. Get returns the very map Put installed (or
// staged), a found Get allocates nothing, and a later commit installs a
// new row beside the one an earlier snapshot reader holds instead of
// changing it. The contract reaches into a row's values: the cells over
// the store keep a value's bytes in its row uncopied, so those bytes are
// immutable once Put, and only Cell.Read and Peek hand out copies
// (TestFaasActorMicroValueOwnership in the root package).
func TestRowCopySemantics(t *testing.T) {
	db := NewDB(Config{})
	db.CreateTable("t")
	same := func(a, b Row) bool {
		return reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer()
	}
	in := Row{"x": int64(1)}
	tx := db.Begin(ReadCommitted)
	tx.Put("t", "k", in)
	if staged, _, _ := tx.Get("t", "k"); !same(staged, in) {
		t.Fatal("Get of a staged write is not the row Put was given")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	rc := db.Begin(ReadCommitted)
	defer rc.Abort()
	out, ok, err := rc.Get("t", "k")
	if err != nil || !ok || !same(out, in) {
		t.Fatalf("Get = %v,%v,%v: not the installed row", out, ok, err)
	}
	if n := testing.AllocsPerRun(100, func() { rc.Get("t", "k") }); n != 0 {
		t.Fatalf("a found ReadCommitted Get makes %v allocations, want 0", n)
	}

	si := db.Begin(SnapshotIsolation)
	defer si.Abort()
	held, _, _ := si.Get("t", "k")
	w := db.Begin(ReadCommitted)
	w.Put("t", "k", Row{"x": int64(2)})
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if held.Int("x") != 1 || len(held) != 1 {
		t.Fatalf("a later commit changed the row a snapshot reader holds: %v", held)
	}
	if again, _, _ := si.Get("t", "k"); !same(again, held) {
		t.Fatal("the snapshot reader's second Get is not the row it read first")
	}
	if latest, _, _ := rc.Get("t", "k"); latest.Int("x") != 2 || same(latest, held) {
		t.Fatalf("ReadCommitted reads %v, want the newly committed row", latest)
	}
}

// warm2PLAllocs is the allocation count, measured with go1.24, of one warm
// four-key Locking2PL transaction: Begin, then per key a Get and a Put of
// a new one-column row, then Prepare and Commit. Copying the rows Get
// returns and Put is given made it 26.
const warm2PLAllocs = 13

func TestWarm2PLTransactionAllocations(t *testing.T) {
	db := newBank(t, 4, 100)
	keys := []string{"acc-0", "acc-1", "acc-2", "acc-3"}
	txn := func() {
		tx := db.Begin(Locking2PL)
		for _, k := range keys {
			r, _, err := tx.Get("accounts", k)
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Put("accounts", k, Row{"balance": r.Int("balance") + 1}); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Prepare(); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	txn() // makes the keys' lock entries
	if n := testing.AllocsPerRun(200, txn); n > warm2PLAllocs {
		t.Fatalf("warm 4-key 2PL transaction makes %v allocations, want at most %d", n, warm2PLAllocs)
	}
}

// TestSharedRowsConcurrentReadersAndWriters runs readers that read the
// columns of the rows Get and Scan return while writers commit new rows to
// the same keys: under the race detector it fails if the store, or a
// writer through it, changes an installed row in place. Every row a writer
// commits has equal columns, so a torn row fails without the detector too.
func TestSharedRowsConcurrentReadersAndWriters(t *testing.T) {
	db := NewDB(Config{})
	db.CreateTable("t")
	const keys = 4
	key := func(i int) string { return fmt.Sprintf("k%d", i%keys) }
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				v := int64(w*1000 + i)
				err := db.Update(func(tx *Txn) error {
					if _, _, err := tx.Get("t", key(i)); err != nil {
						return err
					}
					return tx.Put("t", key(i), Row{"a": v, "b": v})
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for _, iso := range []Isolation{ReadCommitted, SnapshotIsolation, Locking2PL} {
		wg.Add(1)
		go func(iso Isolation) {
			defer wg.Done()
			check := func(k string, r Row) {
				if r.Int("a") != r.Int("b") {
					t.Errorf("%v read a torn row at %s: %v", iso, k, r)
				}
			}
			for i := 0; i < 500; i++ {
				tx := db.Begin(iso)
				if r, ok, err := tx.Get("t", key(i)); err == nil && ok {
					check(key(i), r)
				}
				tx.Scan("t", "", "", func(k string, r Row) bool { check(k, r); return true })
				tx.Abort()
			}
		}(iso)
	}
	wg.Wait()
}

// TestLargeWriteSet stages more keys than the inline write set holds,
// rewrites and deletes some, and checks reads of own writes, Scan and the
// installed result.
func TestLargeWriteSet(t *testing.T) {
	db := NewDB(Config{})
	db.CreateTable("t")
	const n = 48
	key := func(i int) string { return fmt.Sprintf("k%03d", i) }
	tx := db.Begin(Serializable)
	for i := 0; i < n; i++ {
		tx.Put("t", key(i), Row{"v": int64(i)})
	}
	for i := 0; i < n; i += 3 {
		tx.Put("t", key(i), Row{"v": int64(-i)})
	}
	for i := 1; i < n; i += 3 {
		tx.Delete("t", key(i))
	}
	if len(tx.writes) != n {
		t.Fatalf("write set holds %d entries for %d keys", len(tx.writes), n)
	}
	want := func(i int) (int64, bool) {
		switch i % 3 {
		case 0:
			return int64(-i), true
		case 1:
			return 0, false
		default:
			return int64(i), true
		}
	}
	verify := func(tx *Txn) {
		t.Helper()
		for i := 0; i < n; i++ {
			r, ok, err := tx.Get("t", key(i))
			v, present := want(i)
			if err != nil || ok != present || (ok && r.Int("v") != v) {
				t.Fatalf("%s = %v,%v,%v, want %d,%v", key(i), r, ok, err, v, present)
			}
		}
		seen := 0
		tx.Scan("t", "", "", func(k string, r Row) bool { seen++; return true })
		if seen != 2*n/3 {
			t.Fatalf("Scan saw %d rows, want %d", seen, 2*n/3)
		}
	}
	verify(tx)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	check := db.Begin(ReadCommitted)
	defer check.Abort()
	verify(check)
}

func TestSnapshotIsolationRepeatableRead(t *testing.T) {
	db := newBank(t, 1, 100)
	reader := db.Begin(SnapshotIsolation)
	defer reader.Abort()
	r1, _, _ := reader.Get("accounts", "acc-0")

	w := db.Begin(ReadCommitted)
	w.Put("accounts", "acc-0", Row{"balance": int64(999)})
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	r2, _, _ := reader.Get("accounts", "acc-0")
	if r1.Int("balance") != r2.Int("balance") {
		t.Fatalf("non-repeatable read under SI: %d then %d", r1.Int("balance"), r2.Int("balance"))
	}
}

func TestReadCommittedSeesLatest(t *testing.T) {
	db := newBank(t, 1, 100)
	reader := db.Begin(ReadCommitted)
	defer reader.Abort()
	reader.Get("accounts", "acc-0")

	w := db.Begin(ReadCommitted)
	w.Put("accounts", "acc-0", Row{"balance": int64(999)})
	w.Commit()

	r2, _, _ := reader.Get("accounts", "acc-0")
	if r2.Int("balance") != 999 {
		t.Fatalf("read committed should see latest: got %d", r2.Int("balance"))
	}
}

func TestSIFirstCommitterWins(t *testing.T) {
	db := newBank(t, 1, 100)
	t1 := db.Begin(SnapshotIsolation)
	t2 := db.Begin(SnapshotIsolation)
	t1.Put("accounts", "acc-0", Row{"balance": int64(1)})
	t2.Put("accounts", "acc-0", Row{"balance": int64(2)})
	if err := t1.Commit(); err != nil {
		t.Fatalf("first committer: %v", err)
	}
	if err := t2.Commit(); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("second committer = %v, want ErrWriteConflict", err)
	}
}

func TestSerializableDetectsReadSkew(t *testing.T) {
	// Classic write-skew-adjacent case OCC catches: T1 reads a key that T2
	// changes before T1 commits.
	db := newBank(t, 2, 100)
	t1 := db.Begin(Serializable)
	r, _, _ := t1.Get("accounts", "acc-0")
	t1.Put("accounts", "acc-1", Row{"balance": r.Int("balance") + 1})

	t2 := db.Begin(Serializable)
	t2.Put("accounts", "acc-0", Row{"balance": int64(0)})
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}

	if err := t1.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("t1 commit = %v, want ErrConflict (its read changed)", err)
	}
}

func TestSnapshotIsolationAllowsWriteSkew(t *testing.T) {
	// SI famously admits write skew; Serializable must reject it. This test
	// documents the difference.
	db := newBank(t, 2, 100)
	run := func(iso Isolation) (error, error) {
		// Reset balances.
		reset := db.Begin(ReadCommitted)
		reset.Put("accounts", "acc-0", Row{"balance": int64(100)})
		reset.Put("accounts", "acc-1", Row{"balance": int64(100)})
		reset.Commit()
		// Each txn reads both accounts, then zeroes the *other* one.
		t1 := db.Begin(iso)
		t2 := db.Begin(iso)
		t1.Get("accounts", "acc-0")
		t1.Get("accounts", "acc-1")
		t2.Get("accounts", "acc-0")
		t2.Get("accounts", "acc-1")
		t1.Put("accounts", "acc-0", Row{"balance": int64(0)})
		t2.Put("accounts", "acc-1", Row{"balance": int64(0)})
		return t1.Commit(), t2.Commit()
	}
	if e1, e2 := run(SnapshotIsolation); e1 != nil || e2 != nil {
		t.Fatalf("SI should admit write skew: %v, %v", e1, e2)
	}
	if e1, e2 := run(Serializable); e1 == nil && e2 == nil {
		t.Fatal("Serializable admitted write skew: both committed")
	}
}

func TestSerializableTransfersPreserveTotal(t *testing.T) {
	const accounts, workers, transfers = 8, 4, 200
	db := newBank(t, accounts, 1000)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < transfers; i++ {
				from := fmt.Sprintf("acc-%d", (seed+i)%accounts)
				to := fmt.Sprintf("acc-%d", (seed+i+1)%accounts)
				db.Update(func(tx *Txn) error {
					f, _, err := tx.Get("accounts", from)
					if err != nil {
						return err
					}
					g, _, err := tx.Get("accounts", to)
					if err != nil {
						return err
					}
					if err := tx.Put("accounts", from, Row{"balance": f.Int("balance") - 10}); err != nil {
						return err
					}
					return tx.Put("accounts", to, Row{"balance": g.Int("balance") + 10})
				})
			}
		}(w)
	}
	wg.Wait()
	var total int64
	db.View(func(tx *Txn) error {
		return tx.Scan("accounts", "", "", func(k string, r Row) bool {
			total += r.Int("balance")
			return true
		})
	})
	if total != accounts*1000 {
		t.Fatalf("total = %d, want %d (money created or destroyed)", total, accounts*1000)
	}
}

func Test2PLTransfersPreserveTotal(t *testing.T) {
	const accounts, workers, transfers = 4, 4, 100
	db := newBank(t, accounts, 1000)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < transfers; i++ {
				from := fmt.Sprintf("acc-%d", (seed+i)%accounts)
				to := fmt.Sprintf("acc-%d", (seed+i+3)%accounts)
				if from == to {
					continue
				}
				for {
					tx := db.Begin(Locking2PL)
					err := func() error {
						f, _, err := tx.Get("accounts", from)
						if err != nil {
							return err
						}
						g, _, err := tx.Get("accounts", to)
						if err != nil {
							return err
						}
						if err := tx.Put("accounts", from, Row{"balance": f.Int("balance") - 1}); err != nil {
							return err
						}
						return tx.Put("accounts", to, Row{"balance": g.Int("balance") + 1})
					}()
					if err == nil {
						err = tx.Commit()
					}
					if err == nil {
						break
					}
					tx.Abort()
					if !IsRetryable(err) {
						t.Errorf("unexpected error: %v", err)
						break
					}
				}
			}
		}(w)
	}
	wg.Wait()
	var total int64
	db.View(func(tx *Txn) error {
		return tx.Scan("accounts", "", "", func(k string, r Row) bool {
			total += r.Int("balance")
			return true
		})
	})
	if total != accounts*1000 {
		t.Fatalf("total = %d, want %d", total, accounts*1000)
	}
}

func Test2PLWoundWaitNoDeadlock(t *testing.T) {
	// Two transactions locking a, b in opposite orders would deadlock under
	// plain 2PL; wound-wait must resolve it by aborting one.
	db := newBank(t, 2, 100)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	start := make(chan struct{})
	lock := func(i int, first, second string) {
		defer wg.Done()
		<-start
		tx := db.Begin(Locking2PL)
		defer tx.Abort()
		if _, _, err := tx.Get("accounts", first); err != nil {
			errs[i] = err
			return
		}
		tx.Put("accounts", first, Row{"balance": int64(i)})
		if err := tx.Put("accounts", second, Row{"balance": int64(i)}); err != nil {
			errs[i] = err
			return
		}
		errs[i] = tx.Commit()
	}
	wg.Add(2)
	go lock(0, "acc-0", "acc-1")
	go lock(1, "acc-1", "acc-0")
	close(start)
	wg.Wait()
	ok, failed := 0, 0
	for _, err := range errs {
		if err == nil {
			ok++
		} else if IsRetryable(err) {
			failed++
		} else {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if ok == 0 {
		t.Fatal("both transactions failed; wound-wait should let one through")
	}
}

// Test2PLWoundedRestartQueuesBehindItsWounder pins the two halves of
// wound-wait's no-starvation argument: a wounded transaction restarts at
// its original age, and while the transaction that wounded it is still
// waiting for the lock, the restart queues behind it instead of taking the
// (compatible) shared lock back from under it — which would get it
// wounded again, and again, until its retries ran out.
func Test2PLWoundedRestartQueuesBehindItsWounder(t *testing.T) {
	db := newBank(t, 1, 100)
	older, younger := db.Begin(Locking2PL), db.Begin(Locking2PL)
	for _, tx := range []*Txn{older, younger} {
		if _, _, err := tx.Get("accounts", "acc-0"); err != nil {
			t.Fatal(err)
		}
	}
	upgraded := make(chan error, 1)
	go func() { upgraded <- older.Put("accounts", "acc-0", Row{"balance": int64(1)}) }()
	<-younger.woundedCh // older's upgrade conflicts with younger's shared lock

	retry := younger.Restart()
	if retry.ID() != younger.ID() {
		t.Fatalf("restart has id %d, want the original age %d", retry.ID(), younger.ID())
	}
	read := make(chan error, 1)
	go func() {
		_, _, err := retry.Get("accounts", "acc-0")
		read <- err
	}()
	if err := <-upgraded; err != nil {
		t.Fatalf("older transaction lost its upgrade to the restart: %v", err)
	}
	select {
	case err := <-read:
		t.Fatalf("restart read (err=%v) while its wounder held the exclusive lock", err)
	default:
	}
	if err := older.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-read; err != nil {
		t.Fatalf("restart after its wounder committed: %v", err)
	}
	retry.Abort()
}

func TestPrepareCommitContract(t *testing.T) {
	db := newBank(t, 1, 100)
	tx := db.Begin(Locking2PL)
	tx.Get("accounts", "acc-0")
	tx.Put("accounts", "acc-0", Row{"balance": int64(50)})
	if err := tx.Prepare(); err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	// After prepare, commit must succeed unconditionally.
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit after Prepare: %v", err)
	}
	check := db.Begin(ReadCommitted)
	defer check.Abort()
	r, _, _ := check.Get("accounts", "acc-0")
	if r.Int("balance") != 50 {
		t.Fatalf("balance = %d, want 50", r.Int("balance"))
	}
}

func TestPrepareRequires2PL(t *testing.T) {
	db := newBank(t, 1, 100)
	tx := db.Begin(Serializable)
	defer tx.Abort()
	if err := tx.Prepare(); err == nil {
		t.Fatal("Prepare under OCC should fail")
	}
}

func TestPreparedHoldsLocks(t *testing.T) {
	db := newBank(t, 1, 100)
	db.cfg.LockWaitTimeout = 50 * 1e6 // 50ms
	tx := db.Begin(Locking2PL)
	tx.Put("accounts", "acc-0", Row{"balance": int64(1)})
	if err := tx.Prepare(); err != nil {
		t.Fatal(err)
	}
	// Another 2PL transaction must block on the prepared lock and time out
	// — the blocking cost of distributed commit (§4.2).
	other := db.Begin(Locking2PL)
	defer other.Abort()
	_, _, err := other.Get("accounts", "acc-0")
	if err == nil {
		t.Fatal("read of prepared-locked key should block/timeout")
	}
	if !errors.Is(err, ErrLockTimeout) && !errors.Is(err, ErrWounded) {
		t.Fatalf("err = %v, want lock timeout or wound", err)
	}
	tx.Commit()
}

func TestScanMergesOwnWrites(t *testing.T) {
	db := NewDB(Config{})
	db.CreateTable("t")
	seed := db.Begin(ReadCommitted)
	seed.Put("t", "b", Row{"v": int64(1)})
	seed.Commit()
	tx := db.Begin(SnapshotIsolation)
	defer tx.Abort()
	tx.Put("t", "a", Row{"v": int64(2)})
	tx.Delete("t", "b")
	var keys []string
	tx.Scan("t", "", "", func(k string, r Row) bool { keys = append(keys, k); return true })
	if len(keys) != 1 || keys[0] != "a" {
		t.Fatalf("Scan = %v, want [a]", keys)
	}
}

func TestTxnDoneErrors(t *testing.T) {
	db := NewDB(Config{})
	db.CreateTable("t")
	tx := db.Begin(ReadCommitted)
	tx.Commit()
	if _, _, err := tx.Get("t", "k"); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("Get after commit = %v, want ErrTxnDone", err)
	}
	if err := tx.Put("t", "k", Row{}); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("Put after commit = %v, want ErrTxnDone", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("double Commit = %v, want ErrTxnDone", err)
	}
}

func TestNoTableError(t *testing.T) {
	db := NewDB(Config{})
	tx := db.Begin(ReadCommitted)
	defer tx.Abort()
	if _, _, err := tx.Get("ghost", "k"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("Get on missing table = %v, want ErrNoTable", err)
	}
}

func TestUpdateRetriesConflicts(t *testing.T) {
	db := newBank(t, 1, 0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				err := db.Update(func(tx *Txn) error {
					r, _, err := tx.Get("accounts", "acc-0")
					if err != nil {
						return err
					}
					return tx.Put("accounts", "acc-0", Row{"balance": r.Int("balance") + 1})
				})
				if err != nil {
					t.Errorf("Update: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	check := db.Begin(ReadCommitted)
	defer check.Abort()
	r, _, _ := check.Get("accounts", "acc-0")
	if r.Int("balance") != 400 {
		t.Fatalf("balance = %d, want 400 (lost updates)", r.Int("balance"))
	}
}

func TestIsolationString(t *testing.T) {
	for iso, want := range map[Isolation]string{
		ReadCommitted: "read-committed", SnapshotIsolation: "snapshot",
		Serializable: "serializable", Locking2PL: "2pl",
	} {
		if got := iso.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", iso, got, want)
		}
	}
}

func TestRowHelpers(t *testing.T) {
	r := Row{"i": int64(3), "n": 4, "s": "x"}
	if r.Int("i") != 3 || r.Int("n") != 4 || r.Int("missing") != 0 {
		t.Fatal("Int helper broken")
	}
	if r.Str("s") != "x" || r.Str("i") != "" {
		t.Fatal("Str helper broken")
	}
	if c := r.Clone(); c.Int("i") != 3 {
		t.Fatal("Clone broken")
	}
	var nilRow Row
	if nilRow.Clone() != nil {
		t.Fatal("nil Clone should be nil")
	}
}

func TestDeleteVisibility(t *testing.T) {
	db := newBank(t, 1, 5)
	tx := db.Begin(Serializable)
	tx.Delete("accounts", "acc-0")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	check := db.Begin(ReadCommitted)
	defer check.Abort()
	if _, ok, _ := check.Get("accounts", "acc-0"); ok {
		t.Fatal("deleted row visible")
	}
}
