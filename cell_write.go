package tca

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
// until the body returns, the saga step and its compensation on the
// microservices cell, the write message and the chunked write tail on the
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

// writeBuffer is the write half of a Txn for the executors that stage a
// body's writes and apply them after it returns — saga steps on the
// microservices cell, messages on the dataflow cell. Their Get overlays
// the buffer on whatever they read, so bodies read their own writes.
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

// overlay applies the buffered writes to key, in order, over the value
// read from the cell.
func (b writeBuffer) overlay(key string, cur []byte, found bool) ([]byte, bool) {
	for _, w := range b {
		if w.Key == key {
			cur, found = w.apply(cur, found)
		}
	}
	return cur, found
}
