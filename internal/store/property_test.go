package store

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

// versionsDigest hashes every installed version of every table: its key,
// timestamp, whether it is a delete, and its row's columns. A transaction
// body installs nothing, so a digest that changes across one means the
// body changed a row the store shares with its readers.
func versionsDigest(db *DB) uint64 {
	h := fnv.New64a()
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, name := range keysOf(db.tables) {
		tbl := db.tables[name]
		tbl.mu.RLock()
		for _, k := range keysOf(tbl.recs) {
			for _, v := range tbl.recs[k].versions {
				fmt.Fprintf(h, "%s/%s@%d:%v:%v;", name, k, v.ts, v.deleted, v.row) // fmt sorts map keys
			}
		}
		tbl.mu.RUnlock()
	}
	return h.Sum64()
}

func keysOf[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Model-based property: a single-threaded sequence of serializable
// transactions agrees with a plain map executed in commit order, every
// read in a body sees the model (or the body's own write), and no body
// changes an installed version. An op reads its key before writing it
// only when Read is set, so bodies mix read-then-write and blind writes.
func TestSerialEquivalenceProperty(t *testing.T) {
	type op struct {
		Key    uint8
		Val    uint8
		Read   bool
		Del    bool
		Commit bool
	}
	f := func(txns [][]op) bool {
		db := NewDB(Config{})
		db.CreateTable("t")
		model := map[string]int64{}
		for _, ops := range txns {
			installed := versionsDigest(db)
			tx := db.Begin(Serializable)
			staged := map[string]*int64{} // nil pointer = delete
			abort := false
			for _, o := range ops {
				k := fmt.Sprintf("k%d", o.Key%8)
				if o.Read {
					want, present := model[k]
					if v, own := staged[k]; own {
						present = v != nil
						if present {
							want = *v
						}
					}
					r, ok, err := tx.Get("t", k)
					if err != nil || ok != present || r.Int("v") != want && present {
						return false
					}
				}
				if o.Del {
					if tx.Delete("t", k) != nil {
						abort = true
						break
					}
					staged[k] = nil
				} else {
					v := int64(o.Val)
					if tx.Put("t", k, Row{"v": v}) != nil {
						abort = true
						break
					}
					staged[k] = &v
				}
				if !o.Commit {
					continue
				}
			}
			if versionsDigest(db) != installed {
				return false // the body changed a shared row
			}
			commit := len(ops) > 0 && ops[len(ops)-1].Commit && !abort
			if commit {
				if err := tx.Commit(); err != nil {
					return false // no concurrency: commits cannot conflict
				}
				for k, v := range staged {
					if v == nil {
						delete(model, k)
					} else {
						model[k] = *v
					}
				}
			} else {
				tx.Abort()
			}
		}
		// Compare final states.
		check := db.Begin(ReadCommitted)
		defer check.Abort()
		n := 0
		ok := true
		check.Scan("t", "", "", func(k string, r Row) bool {
			n++
			want, present := model[k]
			if !present || want != r.Int("v") {
				ok = false
				return false
			}
			return true
		})
		return ok && n == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: under concurrent random read-modify-write transactions at
// Serializable, the final sum of all counters equals the number of
// successful commits — no lost updates, ever.
func TestNoLostUpdatesProperty(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			db := NewDB(Config{})
			db.CreateTable("t")
			var commits int64
			var mu sync.Mutex
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < 100; i++ {
						key := fmt.Sprintf("c%d", rng.Intn(3))
						err := db.Update(func(tx *Txn) error {
							r, _, err := tx.Get("t", key)
							if err != nil {
								return err
							}
							return tx.Put("t", key, Row{"v": r.Int("v") + 1})
						})
						if err == nil {
							mu.Lock()
							commits++
							mu.Unlock()
						}
					}
				}(int64(w))
			}
			wg.Wait()
			var total int64
			db.View(func(tx *Txn) error {
				return tx.Scan("t", "", "", func(k string, r Row) bool {
					total += r.Int("v")
					return true
				})
			})
			mu.Lock()
			defer mu.Unlock()
			if total != commits {
				t.Fatalf("sum = %d, commits = %d: lost or phantom updates", total, commits)
			}
		})
	}
}

// Isolation-level anomaly matrix: which levels admit which anomalies.
// This is the executable version of the textbook table.
func TestAnomalyMatrix(t *testing.T) {
	// Non-repeatable read: T1 reads, T2 commits a change, T1 re-reads.
	nonRepeatable := func(iso Isolation) bool {
		db := NewDB(Config{})
		db.CreateTable("t")
		seed := db.Begin(ReadCommitted)
		seed.Put("t", "k", Row{"v": int64(1)})
		seed.Commit()
		t1 := db.Begin(iso)
		defer t1.Abort()
		r1, _, _ := t1.Get("t", "k")
		t2 := db.Begin(ReadCommitted)
		t2.Put("t", "k", Row{"v": int64(2)})
		t2.Commit()
		r2, _, _ := t1.Get("t", "k")
		return r1.Int("v") != r2.Int("v")
	}
	if !nonRepeatable(ReadCommitted) {
		t.Error("read committed should admit non-repeatable reads")
	}
	if nonRepeatable(SnapshotIsolation) {
		t.Error("snapshot isolation must prevent non-repeatable reads")
	}
	if nonRepeatable(Serializable) {
		t.Error("serializable must prevent non-repeatable reads")
	}

	// Write skew: both read both keys, each zeroes the other.
	writeSkew := func(iso Isolation) bool {
		db := NewDB(Config{})
		db.CreateTable("t")
		seed := db.Begin(ReadCommitted)
		seed.Put("t", "a", Row{"v": int64(1)})
		seed.Put("t", "b", Row{"v": int64(1)})
		seed.Commit()
		t1 := db.Begin(iso)
		t2 := db.Begin(iso)
		t1.Get("t", "a")
		t1.Get("t", "b")
		t2.Get("t", "a")
		t2.Get("t", "b")
		t1.Put("t", "a", Row{"v": int64(0)})
		t2.Put("t", "b", Row{"v": int64(0)})
		e1 := t1.Commit()
		e2 := t2.Commit()
		return e1 == nil && e2 == nil // both committed = skew admitted
	}
	if !writeSkew(SnapshotIsolation) {
		t.Error("snapshot isolation should admit write skew")
	}
	if writeSkew(Serializable) {
		t.Error("serializable must reject write skew")
	}
}
