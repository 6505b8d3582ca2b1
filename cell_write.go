package tca

import "fmt"

// verb is which of the Txn write verbs a write record carries.
type verb uint8

const (
	verbPut  verb = iota // replace the value with Val
	verbAdd              // add Delta to the EncodeInt value
	verbPush             // merge ID into the EncodeIntList value, keeping the Cap largest
	verbDel              // remove the key: only ever the inverse of a write that created it
)

// write is the one record of a Put / Add / PushCap below the Txn surface:
// the read-your-writes buffer entry of the executors that stage writes
// until the body returns, the entry of a saga step's batch and of its
// inverse on the microservices cell, the entry of a write batch on the
// dataflow cell, the unit a write observer sees, and the delta geo
// replication ships. What a verb does to a value is decided here, in
// apply, and nowhere else — except audit.go, whose reference Txns spell
// the verbs out independently so that the cells are judged against
// something they do not share.
type write struct {
	Key   string `json:"k"`
	Verb  verb   `json:"o,omitempty"`
	Val   []byte `json:"v,omitempty"`
	Delta int64  `json:"d,omitempty"`
	ID    int64  `json:"i,omitempty"`
	Cap   int    `json:"c,omitempty"`
}

// apply returns the value w leaves at its key, given the current one.
func (w write) apply(cur []byte, found bool) ([]byte, bool) {
	switch w.Verb {
	case verbAdd:
		return EncodeInt(DecodeInt(cur) + w.Delta), true
	case verbPush:
		return EncodeIntList(mergeBounded(DecodeIntList(cur), w.ID, w.Cap)), true
	case verbDel:
		return nil, false
	default:
		return w.Val, true
	}
}

// inverse returns the write that undoes w, given the value w replaced. An
// Add is undone by the opposite delta — it commutes with whatever else
// landed meanwhile. A Put or PushCap is undone by restoring (or removing)
// what it replaced, which for a push also brings back any id the bounded
// merge evicted; removing just w.ID would lose that.
func (w write) inverse(prev []byte, found bool) write {
	switch {
	case w.Verb == verbAdd:
		return write{Key: w.Key, Verb: verbAdd, Delta: -w.Delta}
	case found:
		return write{Key: w.Key, Val: prev}
	default:
		return write{Key: w.Key, Verb: verbDel}
	}
}

// rmw applies w as a read-modify-write over tx's own Get and Put: how the
// executors whose Txn is already isolated (2PL actors, locked entities,
// the deterministic schedule) implement Add and PushCap.
func rmw(tx Txn, w write) error {
	cur, found, err := tx.Get(w.Key)
	if err != nil {
		return err
	}
	val, _ := w.apply(cur, found)
	return tx.Put(w.Key, val)
}

// writeBuffer is the write half of a Txn that stages a body's writes, in
// order, until it returns: snapshotTxn's, and the write observer's record.
type writeBuffer []write

func (b *writeBuffer) Put(key string, value []byte) error {
	*b = append(*b, write{Key: key, Val: value})
	return nil
}

func (b *writeBuffer) Add(key string, delta int64) error {
	*b = append(*b, write{Key: key, Verb: verbAdd, Delta: delta})
	return nil
}

func (b *writeBuffer) PushCap(key string, id int64, cap int) error {
	*b = append(*b, write{Key: key, Verb: verbPush, ID: id, Cap: cap})
	return nil
}

// keyVal is one key's value as the service or key function that owns it
// read it.
type keyVal struct {
	Key   string `json:"key,omitempty"`
	Val   []byte `json:"v,omitempty"`
	Found bool   `json:"f,omitempty"`
}

// byShard groups items by the shard, one of n, that owns their key,
// keeping the items' order within each group; empty groups are left out.
// The microservices cell groups by service and the dataflow cell by
// partition, reads and writes alike.
func byShard[T any](items []T, n int, key func(T) string, shard func(string) int) [][]T {
	groups := make([][]T, n)
	for _, it := range items {
		s := shard(key(it))
		groups[s] = append(groups[s], it)
	}
	out := groups[:0]
	for _, g := range groups {
		if len(g) > 0 {
			out = append(out, g)
		}
	}
	return out
}

// snapshotTxn runs a body over the values gathered for every declared key,
// found or not, before it ran. Its writes are buffered and shipped after
// it succeeds, one batch per service or partition. A Get applies the op's
// own writes to the snapshot's value, in order, so a body reads its own
// writes; a Get of an undeclared key fails with ErrUndeclaredKey.
type snapshotTxn struct {
	snapshot map[string]keyVal
	writeBuffer
}

func (t *snapshotTxn) Get(key string) ([]byte, bool, error) {
	v, ok := t.snapshot[key]
	if !ok {
		return nil, false, fmt.Errorf("%w: %q", ErrUndeclaredKey, key)
	}
	for _, w := range t.writeBuffer {
		if w.Key == key {
			v.Val, v.Found = w.apply(v.Val, v.Found)
		}
	}
	return v.Val, v.Found, nil
}
