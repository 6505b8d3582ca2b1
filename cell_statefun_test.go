package tca

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
)

// fuzzMsg builds a message of the kind kind picks (every kind is one of
// four) from the fuzzer's fields: keys is a comma list, and a list item i
// takes a or b by parity.
func fuzzMsg(kind byte, keys string, a, b []byte, n int64, flag bool) sfMsg {
	var ks []string
	if keys != "" {
		ks = strings.Split(keys, ",")
	}
	val := func(i int) []byte { return [][]byte{a, b}[i%2] }
	m := sfMsg{Kind: sfOp + sfKind(kind%4)}
	switch m.Kind {
	case sfOp:
		m.Op, m.Args = keys, a
	case sfRead:
		m.Keys = ks
	case sfResp:
		for i, k := range ks {
			m.Vals = append(m.Vals, keyVal{Key: k, Val: val(i), Found: flag != (i%2 == 1)})
		}
	case sfWrite:
		for i, k := range ks {
			m.Writes = append(m.Writes, write{Key: k, Verb: verb(n), Val: val(i), Delta: n, ID: -n >> i, Cap: int(n >> 8)})
		}
	}
	return m
}

// FuzzSfMsgFrame is a differential test of the cell's frame against the
// JSON encoding it replaced: a message's frame decodes to exactly what
// json.Unmarshal makes of json.Marshal's output, empty fields and lists
// collapsed to nil by omitempty included. Arbitrary bytes decode to an
// error or to a message whose own frame decodes to it again, and never
// panic.
func FuzzSfMsgFrame(f *testing.F) {
	for kind := byte(0); kind < 4; kind++ {
		frame := fuzzMsg(kind, "stock/1/2,,cust/1/1/3", []byte("v"), nil, -300, true).encode()
		f.Add(frame, kind, "stock/1/2,,cust/1/1/3", []byte("v"), []byte{}, int64(-300), true)
		f.Add(frame[:len(frame)-1], kind, "", []byte{}, []byte("w"), int64(1)<<40, false)
	}
	f.Add([]byte{}, byte(0), ",", []byte(nil), []byte(nil), int64(0), false)
	f.Add([]byte(sfProbePrefix+"1"), byte(2), "k", []byte{0}, []byte{1}, int64(-1), true)
	f.Add([]byte{byte(sfRead), 0xff, 0xff, 0xff, 0xff, 0x0f}, byte(1), "k", []byte("x"), []byte("y"), int64(5), false)
	f.Fuzz(func(t *testing.T, raw []byte, kind byte, keys string, a, b []byte, n int64, flag bool) {
		if m, err := decodeSfMsg(raw); err == nil {
			again, err := decodeSfMsg(m.encode())
			if err != nil || !reflect.DeepEqual(again, m) {
				t.Fatalf("%x: decoded %+v, re-encoded decodes to %+v (%v)", raw, m, again, err)
			}
		}
		if !utf8.ValidString(keys) {
			return // JSON rewrites invalid UTF-8; the frame keeps it byte for byte
		}
		m := fuzzMsg(kind, keys, a, b, n, flag)
		got, err := decodeSfMsg(m.encode())
		if err != nil {
			t.Fatalf("%+v: %v", m, err)
		}
		js, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		var want sfMsg
		if err := json.Unmarshal(js, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame decodes to %+v, JSON to %+v", got, want)
		}
	})
}

// TestSfMsgDecodeCopies pins that a decoded message shares no memory with
// its frame: the cell keeps decoded values in key state, and a
// crash-replay decodes the same broker record again. Every decoded byte
// slice is overwritten; the frame must still decode to the original
// message.
func TestSfMsgDecodeCopies(t *testing.T) {
	for _, m := range []sfMsg{
		{Kind: sfOp, Op: "new_order", Args: []byte(`{"w":1}`)},
		{Kind: sfResp, Vals: []keyVal{{Key: "a", Val: []byte("one"), Found: true}, {Key: "b", Val: []byte("two"), Found: true}}},
		{Kind: sfWrite, Writes: []write{{Key: "a", Val: []byte("one")}, {Key: "b", Verb: verbAdd, Delta: 3}, {Key: "c", Val: []byte("two")}}},
	} {
		frame := m.encode()
		got, err := decodeSfMsg(frame)
		if err != nil {
			t.Fatal(err)
		}
		fields := [][]byte{got.Args}
		for _, v := range got.Vals {
			fields = append(fields, v.Val)
		}
		for _, w := range got.Writes {
			fields = append(fields, w.Val)
		}
		for _, f := range fields {
			for i := range f {
				f[i] ^= 0xff
			}
		}
		again, err := decodeSfMsg(frame)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("after mutating a decoded copy the frame decodes to %+v, want %+v", again, m)
		}
	}
	for _, k := range []sfKind{sfOp, sfRead, sfResp, sfWrite} {
		if byte(k) == sfProbePrefix[0] {
			t.Fatalf("kind %d is the probe prefix's first byte", k)
		}
	}
}

// TestSfMsgFrameExactSize pins that a frame's capacity is its length, for
// every kind, empty lists included, and for fields and varints of every
// width: the microservices cell's idempotency store keeps apply responses
// for the life of the run, so slack would be retained with them.
func TestSfMsgFrameExactSize(t *testing.T) {
	long := []byte(strings.Repeat("v", 300))
	wide := strings.TrimSuffix(strings.Repeat("key,", 200), ",")
	msgs := []sfMsg{{Kind: sfOp}, {Kind: sfRead}, {Kind: sfResp}, {Kind: sfWrite}}
	for kind := byte(0); kind < 4; kind++ {
		for _, n := range []int64{0, 1, -1, 63, -64, 64, 1 << 20, -1 << 40, math.MaxInt64, math.MinInt64} {
			msgs = append(msgs,
				fuzzMsg(kind, "a,bc,", []byte("x"), nil, n, n%2 == 0),
				fuzzMsg(kind, wide, long, []byte{}, n, true))
		}
	}
	for _, m := range msgs {
		if f := m.encode(); len(f) != cap(f) {
			t.Fatalf("kind %d frame of %d keys, %d vals, %d writes: len %d, cap %d", m.Kind, len(m.Keys), len(m.Vals), len(m.Writes), len(f), cap(f))
		}
	}
}

// TestStatefunCellMalformedMessage delivers a valid envelope whose payload
// is a write batch cut short: the key function rejects it whole, so the
// handler error count rises by exactly one and the key keeps its value.
func TestStatefunCellMalformedMessage(t *testing.T) {
	cell, err := Deploy(StatefulDataflow, geoTestApp(), NewEnv(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer cell.Close()
	args, _ := json.Marshal(geoTestArgs{K: "cnt/0", V: 2})
	if _, err := cell.Invoke("w0", "bump", args, nil); err != nil {
		t.Fatal(err)
	}
	sf := executorOf(cell).(*statefunExec)
	before, _ := sf.handlerErrors()
	frame := sfMsg{Kind: sfWrite, Writes: []write{{Key: "cnt/0", Verb: verbAdd, Delta: 5}}}.encode()
	if err := sf.sf.SendToIngress(sfKeyRef("cnt/0"), frame[:len(frame)-1]); err != nil {
		t.Fatal(err)
	}
	if err := cell.Settle(); err != nil {
		t.Fatal(err)
	}
	if n, err := sf.handlerErrors(); n != before+1 {
		t.Fatalf("%d handler errors after the malformed message, want %d (last: %v)", n, before+1, err)
	}
	raw, found, err := cell.Read("cnt/0")
	if err != nil {
		t.Fatal(err)
	}
	if !found || DecodeInt(raw) != 2 {
		t.Fatalf("cnt/0 = %d (found=%v), want 2", DecodeInt(raw), found)
	}
}
