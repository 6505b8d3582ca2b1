package tca

import (
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
	if err := e.call(0, "apply", "seed", seed, nil, nil); err != nil {
		t.Fatal(err)
	}
	state := func() map[string]string {
		rows := map[string]string{}
		err := e.svcs[0].DB().View(func(tx *store.Txn) error {
			return tx.Scan("state", "", "", func(key string, row store.Row) bool {
				rows[key] = row.Str("v")
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
	var undo []write
	if err := e.call(0, "apply", "step", batch, &undo, nil); err != nil {
		t.Fatal(err)
	}
	mid := state()
	if got := DecodeInt([]byte(mid[cnt])); got != 7 {
		t.Fatalf("%s = %d after the batch, want 7", cnt, got)
	}
	if got := DecodeIntList([]byte(mid[list])); !reflect.DeepEqual(got, []int64{9, 7}) {
		t.Fatalf("%s = %v after the batch, want [9 7]", list, got)
	}
	if err := e.call(0, "apply", "undo", undo, nil, nil); err != nil {
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
	for _, model := range []ProgrammingModel{Microservices, StatefulDataflow} {
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
