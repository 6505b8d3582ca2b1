package tca

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"tca/internal/actor"
	"tca/internal/fabric"
	"tca/internal/workload"
)

// TestFaasActorMicroValueOwnership pins the value ownership contract of
// the cells over internal/store, whose rows hold a value's bytes without
// a copy (valueRow): a body's Get after its own Put returns the bytes it
// put; Cell.Read and Peek hand out copies, so changing one does not change
// the stored value; and a key whose value is empty is still found.
func TestFaasActorMicroValueOwnership(t *testing.T) {
	app := NewApp("own")
	keys := func([]byte) []string { return []string{"a", "e"} }
	app.Register(Op{Name: "put", Keys: keys, Body: func(tx Txn, args []byte) ([]byte, error) {
		if err := tx.Put("a", args); err != nil {
			return nil, err
		}
		if err := tx.Put("e", []byte{}); err != nil {
			return nil, err
		}
		got, found, err := tx.Get("a")
		if err != nil || !found || !bytes.Equal(got, args) {
			return nil, fmt.Errorf("Get after Put = %q,%v,%v, want %q", got, found, err, args)
		}
		if _, found, err := tx.Get("e"); err != nil || !found {
			return nil, fmt.Errorf("Get of an empty value after its Put = %v,%v, want found", found, err)
		}
		return nil, nil
	}})
	app.Register(Op{Name: "check", Keys: keys, ReadOnly: true, Body: func(tx Txn, args []byte) ([]byte, error) {
		got, _, err := tx.Get("a")
		if err != nil || !bytes.Equal(got, args) {
			return nil, fmt.Errorf("a = %q,%v in a later op, want %q", got, err, args)
		}
		if _, found, err := tx.Get("e"); err != nil || !found {
			return nil, fmt.Errorf("empty value in a later op: found %v,%v, want found", found, err)
		}
		return nil, nil
	}})
	for _, model := range []ProgrammingModel{Actors, CloudFunctions, Microservices} {
		t.Run(model.String(), func(t *testing.T) {
			c, err := Deploy(model, app, NewEnv(1, 3))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Invoke("r1", "put", []byte("hello"), nil); err != nil {
				t.Fatal(err)
			}
			if err := c.Settle(); err != nil {
				t.Fatal(err)
			}
			reads := map[string]func(string) ([]byte, bool, error){
				"Read": c.Read,
				"Peek": func(k string) ([]byte, bool, error) { v, found := Peek(c, k); return v, found, nil },
			}
			for name, read := range reads {
				v, found, err := read("a")
				if err != nil || !found || string(v) != "hello" {
					t.Fatalf("%s(a) = %q,%v,%v", name, v, found, err)
				}
				v[0] = 'X'
				if v, _, _ := read("a"); string(v) != "hello" {
					t.Fatalf("changing %s's slice changed the stored value to %q", name, v)
				}
				if v, found, err := read("e"); err != nil || !found || len(v) != 0 {
					t.Fatalf("%s(e) = %q,%v,%v, want an empty value found", name, v, found, err)
				}
			}
			if _, err := c.Invoke("r2", "check", []byte("hello"), nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestActorPlacementByPartsMatchesRefString: the actor coordinator places
// a ref by hashing its Type, "/" and ID in sequence instead of building
// Ref.String(). For every key of a seeded TPC-C stream that picks the node
// PlaceAlive(ref.String()) picks, on clusters of several sizes and with a
// node down, which is why the actor cell's hops per op cannot move.
func TestActorPlacementByPartsMatchesRefString(t *testing.T) {
	app := TPCCApp()
	typ := fabric.HashMore(fabric.Hash(app.Name()), "/")
	for _, nodes := range []int{2, 3, 5} {
		env := NewEnv(1, nodes)
		if nodes == 5 {
			env.Cluster.Crash("node-1")
		}
		next := opStream(workload.NewTPCC(1, workload.DefaultTPCCConfig(8)).Next, tpccOpName)
		for i := 0; i < 2000; i++ {
			name, args := next()
			op, _ := app.Op(name)
			for _, k := range app.keysOf(op, args) {
				ref := actor.Ref{Type: app.Name(), ID: k}
				want, err1 := env.Cluster.PlaceAlive(ref.String())
				got, err2 := env.Cluster.PlaceAliveHash(fabric.HashMore(typ, ref.ID))
				if got != want || !errors.Is(err2, err1) {
					t.Fatalf("%d nodes, %s: by parts %s,%v, by Ref.String %s,%v", nodes, ref, got, err2, want, err1)
				}
			}
		}
	}
}
