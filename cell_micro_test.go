package tca

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"tca/internal/store"
)

// TestMicroApplyUndoRestoresState sends one apply batch to a shard
// service and then the undo batch it answered with: the service's state
// table must be exactly what it was before. The batch writes one key
// twice (a Put, then an Add), pushes an id that evicts another from a
// capped list, and creates a key. Undoing the two writes to the same key
// in forward order would leave the Add's inverse on top of the restored
// value, and the created key must be removed, not left empty.
func TestMicroApplyUndoRestoresState(t *testing.T) {
	c, err := Deploy(Microservices, geoTestApp(), NewEnv(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	e := executorOf(c).(*microExec)

	var keys []string // four keys the same service owns
	for i := 0; len(keys) < 4; i++ {
		if k := fmt.Sprintf("k%d", i); microShard(k) == 0 {
			keys = append(keys, k)
		}
	}
	cnt, list, other, created := keys[0], keys[1], keys[2], keys[3]
	seed := []write{
		{Key: cnt, Val: EncodeInt(10)},
		{Key: list, Val: EncodeIntList([]int64{9, 5})},
		{Key: other, Val: []byte("untouched")},
	}
	if _, err := e.call(0, microApply, "seed", sfMsg{Kind: sfWrite, Writes: seed}.encode(), nil); err != nil {
		t.Fatal(err)
	}
	state := func() map[string]string {
		rows := map[string]string{}
		err := e.svcs[0].DB().View(func(tx *store.Txn) error {
			return tx.Scan("state", "", "", func(key string, row store.Row) bool {
				rows[key] = string(rowValue(row))
				return true
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	before := state()

	batch := []write{
		{Key: cnt, Val: EncodeInt(3)},
		{Key: cnt, Verb: verbAdd, Delta: 4},
		{Key: list, Verb: verbPush, ID: 7, Cap: 2},
		{Key: created, Val: EncodeInt(1)},
	}
	undo, err := e.call(0, microApply, "step", sfMsg{Kind: sfWrite, Writes: batch}.encode(), nil)
	if err != nil {
		t.Fatal(err)
	}
	mid := state()
	if got := DecodeInt([]byte(mid[cnt])); got != 7 {
		t.Fatalf("%s = %d after the batch, want 7", cnt, got)
	}
	if got := DecodeIntList([]byte(mid[list])); !reflect.DeepEqual(got, []int64{9, 7}) {
		t.Fatalf("%s = %v after the batch, want [9 7]", list, got)
	}
	if _, err := e.call(0, microApply, "undo", undo, nil); err != nil {
		t.Fatal(err)
	}
	after := state()
	if _, ok := after[created]; ok {
		t.Fatalf("created key %s survived its undo", created)
	}
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("state after undo = %q, want %q", after, before)
	}
}

// TestUndeclaredGetFails pins the Op.Keys contract on the cells that
// gather reads before the body runs: a Get of a key the op did not
// declare fails the op with ErrUndeclaredKey, and the write the body made
// before it does not land.
func TestUndeclaredGetFails(t *testing.T) {
	app := NewApp("undeclared").Register(Op{
		Name: "stray",
		Keys: func([]byte) []string { return []string{"a"} },
		Body: func(tx Txn, _ []byte) ([]byte, error) {
			if err := tx.Put("a", EncodeInt(1)); err != nil {
				return nil, err
			}
			_, _, err := tx.Get("b")
			return nil, err
		},
	})
	for _, model := range []ProgrammingModel{Microservices, StatefulDataflow, CloudFunctions} {
		t.Run(model.String(), func(t *testing.T) {
			c, err := Deploy(model, app, NewEnv(1, 3))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			_, err = c.Invoke("r1", "stray", nil, nil)
			// The dataflow cell reports a body's error as text on its
			// result record.
			if !errors.Is(err, ErrUndeclaredKey) && (err == nil || !strings.Contains(err.Error(), ErrUndeclaredKey.Error())) {
				t.Fatalf("Invoke = %v, want %v", err, ErrUndeclaredKey)
			}
			if err := c.Settle(); err != nil {
				t.Fatal(err)
			}
			if _, found, err := c.Read("a"); err != nil || found {
				t.Fatalf("Read(a) = found %v, err %v; want no write", found, err)
			}
		})
	}
}

// TestFaasUndeclaredWriteAppliesNothing pins the FaaS cell's atomicity
// when a body writes a key it did not declare: the staged write to that
// key fails, so the op fails, and its write to the declared key before it
// does not land either.
func TestFaasUndeclaredWriteAppliesNothing(t *testing.T) {
	app := NewApp("undeclared").Register(Op{
		Name: "stray",
		Keys: func([]byte) []string { return []string{"a"} },
		Body: func(tx Txn, _ []byte) ([]byte, error) {
			if err := tx.Put("a", EncodeInt(1)); err != nil {
				return nil, err
			}
			return nil, tx.Put("z", EncodeInt(1))
		},
	})
	c, err := Deploy(CloudFunctions, app, NewEnv(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Invoke("r1", "stray", nil, nil); err == nil {
		t.Fatal("Invoke of a body that writes an undeclared key succeeded")
	}
	for _, k := range []string{"a", "z"} {
		if _, found, err := c.Read(k); err != nil || found {
			t.Fatalf("Read(%s) = found %v, err %v; want no write", k, found, err)
		}
	}
}

// deployMicro deploys the microservices cell and returns its executor and
// a key its shard 0 owns.
func deployMicro(t *testing.T) (*microExec, string) {
	t.Helper()
	c, err := Deploy(Microservices, geoTestApp(), NewEnv(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	key := "k0"
	for i := 1; microShard(key) != 0; i++ {
		key = fmt.Sprintf("k%d", i)
	}
	return executorOf(c).(*microExec), key
}

// shardState is a shard database's state table, key to value.
func shardState(t *testing.T, e *microExec, shard int) map[string]string {
	t.Helper()
	rows := map[string]string{}
	err := e.svcs[shard].DB().View(func(tx *store.Txn) error {
		return tx.Scan("state", "", "", func(key string, row store.Row) bool {
			rows[key] = string(rowValue(row))
			return true
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestMicroRejectsBadFrames sends get and apply every proper prefix of a
// frame of the kind each expects, and a whole frame of the kind the other
// expects: each is an error, none panics, and the shard's state table is
// what it was.
func TestMicroRejectsBadFrames(t *testing.T) {
	e, key := deployMicro(t)
	seed := sfMsg{Kind: sfWrite, Writes: []write{{Key: key, Val: EncodeInt(10)}}}.encode()
	if _, err := e.call(0, microApply, "seed", seed, nil); err != nil {
		t.Fatal(err)
	}
	before := shardState(t, e, 0)
	read := sfMsg{Kind: sfRead, Keys: []string{key, "other"}}.encode()
	apply := sfMsg{Kind: sfWrite, Writes: []write{{Key: key, Verb: verbAdd, Delta: 5}, {Key: key, Val: EncodeInt(1)}}}.encode()
	for _, c := range []struct {
		name  string
		op    int
		whole []byte // of the kind op expects
		wrong []byte // of another kind
	}{
		{"get", microGet, read, apply},
		{"apply", microApply, apply, read},
	} {
		for n := range len(c.whole) {
			if resp, err := e.call(0, c.op, fmt.Sprintf("%s/cut%d", c.name, n), c.whole[:n], nil); err == nil {
				t.Errorf("%s of a frame cut to %d of %d bytes answered %x, want an error", c.name, n, len(c.whole), resp)
			}
		}
		if resp, err := e.call(0, c.op, c.name+"/wrong", c.wrong, nil); err == nil {
			t.Errorf("%s of a kind %d frame answered %x, want an error", c.name, c.wrong[0], resp)
		}
	}
	if after := shardState(t, e, 0); !reflect.DeepEqual(after, before) {
		t.Fatalf("state after the bad frames = %q, want %q", after, before)
	}
}

// TestMicroDuplicateApplyAppliesOnce sends one apply twice under the same
// idempotency key: its Add lands once, and the second call answers with
// the first call's undo frame, byte for byte.
func TestMicroDuplicateApplyAppliesOnce(t *testing.T) {
	e, key := deployMicro(t)
	batch := sfMsg{Kind: sfWrite, Writes: []write{{Key: key, Verb: verbAdd, Delta: 5}}}.encode()
	first, err := e.call(0, microApply, "r1/s0", batch, nil)
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.call(0, microApply, "r1/s0", batch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(second, first) {
		t.Fatalf("duplicate apply answered %x, the first %x", second, first)
	}
	if got := DecodeInt([]byte(shardState(t, e, 0)[key])); got != 5 {
		t.Fatalf("%s = %d after the duplicated apply, want 5", key, got)
	}
	undo, err := decodeKind(first, sfWrite)
	if want := []write{{Key: key, Verb: verbAdd, Delta: -5}}; err != nil || !reflect.DeepEqual(undo.Writes, want) {
		t.Fatalf("undo = %+v (%v), want %+v", undo.Writes, err, want)
	}
}
