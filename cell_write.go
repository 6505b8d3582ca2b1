package tca

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"tca/internal/store"
)

// valueRow is the store row holding a cell value, the one value format of
// the cells over internal/store (actor, FaaS, microservices): a single "v"
// column that holds the value's bytes themselves. Neither valueRow nor
// rowValue copies: a value's bytes are immutable from the moment they are
// Put, as a row is (see store.Row), so a body that changes a value
// decodes what it read and Puts a fresh encoding. Cell.Read and Peek hand
// out copies.
func valueRow(val []byte) store.Row { return store.Row{"v": val} }

// rowValue is the value a valueRow holds, nil when the row is absent.
func rowValue(row store.Row) []byte {
	val, _ := row["v"].([]byte)
	return val
}

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
// executors whose Txn is already isolated (2PL actors, the deterministic
// schedule) implement Add and PushCap.
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
// found or not, before it ran. Its writes are buffered and applied after
// it succeeds: one batch per service or partition, or one critical
// section's store transaction on the FaaS cell. A Get applies the op's
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

// sfMsg is the one wire format of the two cells that gather reads by
// message before the body runs. On the dataflow cell it is the op a txn
// function receives on submit, a read listing one partition's keys, its
// resp carrying their values, and a write batch of one partition's
// writes, in buffer order; on the microservices cell, a get's read and
// resp, and an apply's write batch and the undo batch it answers with.
// Its json tags are not a wire format: they name the JSON encoding the
// frame replaced, which its tests hold the decoder to.
type sfMsg struct {
	Kind   sfKind   `json:"k,omitempty"`
	Op     string   `json:"o,omitempty"`
	Args   []byte   `json:"a,omitempty"`
	Keys   []string `json:"ks,omitempty"`
	Vals   []keyVal `json:"vs,omitempty"`
	Writes []write  `json:"w,omitempty"`
}

// sfKind is an sfMsg's first byte. No kind is sfProbePrefix's first
// byte, so a dataflow key function tells a probe from a message by that
// byte.
type sfKind byte

const (
	sfOp sfKind = iota + 1
	sfRead
	sfResp
	sfWrite
)

// encode frames m: the kind byte, then the fields of that kind. A string
// or byte slice is a uvarint length and its bytes, a list a uvarint count
// and its items; Delta, ID and Cap are varints, Verb and Found one byte.
// The frame's capacity is its length, because the microservices cell's
// idempotency store keeps every apply response for the run: it is built
// in a scratch buffer that holds nearly every frame, then copied out.
func (m sfMsg) encode() []byte {
	var scratch [512]byte
	b := m.appendTo(scratch[:0])
	return append(make([]byte, 0, len(b)), b...)
}

func (m sfMsg) appendTo(b []byte) []byte {
	b = append(b, byte(m.Kind))
	switch m.Kind {
	case sfOp:
		b = appendField(appendField(b, m.Op), m.Args)
	case sfRead:
		b = binary.AppendUvarint(b, uint64(len(m.Keys)))
		for _, k := range m.Keys {
			b = appendField(b, k)
		}
	case sfResp:
		b = binary.AppendUvarint(b, uint64(len(m.Vals)))
		for _, v := range m.Vals {
			b = append(appendField(appendField(b, v.Key), v.Val), flagByte(v.Found))
		}
	case sfWrite:
		b = binary.AppendUvarint(b, uint64(len(m.Writes)))
		for _, w := range m.Writes {
			b = appendField(append(appendField(b, w.Key), byte(w.Verb)), w.Val)
			b = binary.AppendVarint(binary.AppendVarint(binary.AppendVarint(b, w.Delta), w.ID), int64(w.Cap))
		}
	}
	return b
}

func appendField[T string | []byte](b []byte, f T) []byte {
	return append(binary.AppendUvarint(b, uint64(len(f))), f...)
}

func flagByte(f bool) byte {
	if f {
		return 1
	}
	return 0
}

// nonEmpty is b, or nil if b is empty: an empty value decodes as nil.
func nonEmpty(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return b
}

// decodeSfMsg parses a frame into a message that shares no memory with
// it: the dataflow cell keeps decoded values past the invocation, and a
// crash-replay decodes the same record again. Empty fields and lists
// decode as nil, as they did from JSON.
func decodeSfMsg(frame []byte) (sfMsg, error) {
	r := frameReader(bytes.Clone(frame))
	m := sfMsg{Kind: sfKind(r.next())}
	switch m.Kind {
	case sfOp:
		m.Op, m.Args = string(r.field()), r.field()
	case sfRead:
		m.Keys = list[string](r.count())
		for i := range m.Keys {
			m.Keys[i] = string(r.field())
		}
	case sfResp:
		m.Vals = list[keyVal](r.count())
		for i := range m.Vals {
			m.Vals[i] = keyVal{Key: string(r.field()), Val: r.field(), Found: r.next() == 1}
		}
	case sfWrite:
		m.Writes = list[write](r.count())
		for i := range m.Writes {
			w := &m.Writes[i]
			w.Key, w.Verb, w.Val = string(r.field()), verb(r.next()), r.field()
			w.Delta, w.ID, w.Cap = r.varint(), r.varint(), int(r.varint())
		}
	default:
		r = nil
	}
	if r == nil || len(r) > 0 {
		return sfMsg{}, fmt.Errorf("tca: malformed message frame")
	}
	return m, nil
}

func list[T any](n uint64) []T {
	if n == 0 {
		return nil
	}
	return make([]T, n)
}

// frameReader is the unread rest of a frame. A malformed field sets it to
// nil, and every read after that is zero.
type frameReader []byte

// skip drops the next n bytes; n < 1 or past the end is malformed.
func (r *frameReader) skip(n int) {
	if n < 1 || n > len(*r) {
		*r = nil
		return
	}
	*r = (*r)[n:]
}

func (r *frameReader) next() (c byte) {
	if len(*r) > 0 {
		c = (*r)[0]
	}
	r.skip(1)
	return c
}

func (r *frameReader) varint() int64 {
	v, n := binary.Varint(*r) // 0 if malformed
	r.skip(n)
	return v
}

// count reads a length or a list count. Neither can exceed the bytes
// left: every byte of a field and every list item takes at least one.
func (r *frameReader) count() uint64 {
	n, k := binary.Uvarint(*r)
	if r.skip(k); n > uint64(len(*r)) {
		*r = nil
		return 0
	}
	return n
}

// field reads a length and that many bytes, capped so that an append to
// the field cannot overwrite the next one.
func (r *frameReader) field() []byte {
	n := r.count()
	f := (*r)[:n:n]
	*r = (*r)[n:]
	return nonEmpty(f)
}
