package tca

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"tca/internal/statefun"
	"tca/internal/workload"
)

// Cross-cell conformance for wide, dynamic transactions: one seeded social
// stream whose compose-post fan-outs straddle the statefun runtime's
// per-invocation send budget (statefun.MaxSends), with follow/unfollow
// churn mutating the fan-out key sets between posts. Every cell must
// deliver exactly and preserve read-your-writes; the statefun cell sends
// one message per partition, never per key, so it must never drop an op
// on ErrTooManySends.

// wideSocialStream drives ops ops from a churned generator into cell,
// recording accepted ops in a fresh auditor (the eventual cell records on
// acceptance, like the benchmarks).
func wideSocialStream(t *testing.T, cell Cell, seed int64, users, fanout, ops int, churn float64) *SocialAuditor {
	t.Helper()
	gen := workload.NewSocialChurn(seed, users, fanout, churn)
	audit := NewSocialAuditor()
	for i := 0; i < ops; i++ {
		op := gen.Next()
		args, _ := json.Marshal(op)
		_, err := cell.Invoke(fmt.Sprintf("w%d", i), SocialOpName(op), args, nil)
		if cell.Model() == StatefulDataflow || err == nil {
			audit.RecordOp(op)
		} else {
			t.Fatalf("op %d (%s, fan-out %d): %v", i, SocialOpName(op), len(op.Followers), err)
		}
		// Bound the eventual cell's in-flight choreography: wide posts
		// carry dozens of writes each.
		if cell.Model() == StatefulDataflow && i%32 == 31 {
			if err := cell.Settle(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return audit
}

// TestWideTxnCrossCellConformance runs the same seeded wide-transaction
// stream on all five cells: fan-outs past the old 32-send cliff must
// complete with exact delivery and read-your-writes everywhere — the
// whole social state model commutes, so even the isolation-free cells
// must audit clean.
func TestWideTxnCrossCellConformance(t *testing.T) {
	const (
		users  = 96
		fanout = 48 // straddles statefun.MaxSends = 32
		ops    = 90
		churn  = 0.25
	)
	for _, model := range allModels {
		t.Run(model.String(), func(t *testing.T) {
			env := NewEnv(17, 3)
			cell, err := DeployWith(model, SocialApp(), env, Options{Partitions: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer cell.Close()
			audit := wideSocialStream(t, cell, 17, users, fanout, ops, churn)
			anomalies, err := audit.Verify(cell)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range anomalies {
				t.Errorf("anomaly: %s", a)
			}
			if sf, ok := executorOf(cell).(*statefunExec); ok {
				if n, last := sf.handlerErrors(); n != 0 {
					t.Errorf("statefun cell dropped %d ops, last error: %v", n, last)
				}
			}
		})
	}
}

// TestStatefunTooManySendsUnreachable pins the send budget directly: a
// compose-post to 4x the send budget — the celebrity hot path that once
// hard-failed — goes out as one read and one write batch per partition
// with zero handler errors, and in particular never surfaces
// statefun.ErrTooManySends.
func TestStatefunTooManySendsUnreachable(t *testing.T) {
	users := 4*statefun.MaxSends + 8
	env := NewEnv(19, 3)
	cell, err := Deploy(StatefulDataflow, SocialApp(), env)
	if err != nil {
		t.Fatal(err)
	}
	defer cell.Close()
	audit := NewSocialAuditor()
	// One author, every other user a follower: fan-out 135 on a 32-send
	// runtime.
	op := workload.SocialOp{Kind: workload.SocialPost, Author: 0, PostID: 1}
	for f := 1; f < users; f++ {
		op.Followers = append(op.Followers, f)
	}
	args, _ := json.Marshal(op)
	if _, err := cell.Invoke("celebrity", SocialComposePost, args, nil); err != nil {
		t.Fatal(err)
	}
	audit.RecordOp(op)
	anomalies, err := audit.Verify(cell)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range anomalies {
		t.Errorf("anomaly: %s", a)
	}
	sf := executorOf(cell).(*statefunExec)
	n, last := sf.handlerErrors()
	if errors.Is(last, statefun.ErrTooManySends) {
		t.Fatalf("ErrTooManySends reached the cell adapter: %v", last)
	}
	if n != 0 {
		t.Fatalf("statefun cell dropped %d ops, last error: %v", n, last)
	}
}

// keyRecorderTxn wraps a Txn and records every key the body touches.
type keyRecorderTxn struct {
	inner   Txn
	touched map[string]struct{}
}

func (t *keyRecorderTxn) Get(key string) ([]byte, bool, error) {
	t.touched[key] = struct{}{}
	return t.inner.Get(key)
}

func (t *keyRecorderTxn) Put(key string, value []byte) error {
	t.touched[key] = struct{}{}
	return t.inner.Put(key, value)
}

func (t *keyRecorderTxn) Add(key string, delta int64) error {
	t.touched[key] = struct{}{}
	return t.inner.Add(key, delta)
}

func (t *keyRecorderTxn) PushCap(key string, id int64, cap int) error {
	t.touched[key] = struct{}{}
	return t.inner.PushCap(key, id, cap)
}

// TestSocialChurnKeyDeclarationProperty is the declared-key-set property
// under graph churn: for every op in a long churned stream, the keys the
// body actually touches are exactly the keys the op declares — recomputed
// per op, after arbitrary interleavings of follow/unfollow. The serial
// recorder proves containment; the five-cell run proves the cells' own
// guards (core ErrUndeclared, entity critical sections) never fire.
func TestSocialChurnKeyDeclarationProperty(t *testing.T) {
	const (
		users  = 48
		fanout = 40
		ops    = 400
		churn  = 0.4
	)
	app := SocialApp()
	gen := workload.NewSocialChurn(23, users, fanout, churn)
	state := make(mapTxn)
	kinds := map[workload.SocialKind]int{}
	for i := 0; i < ops; i++ {
		op := gen.Next()
		kinds[op.Kind]++
		args, _ := json.Marshal(op)
		registered, ok := app.Op(SocialOpName(op))
		if !ok {
			t.Fatalf("op %d: unregistered kind %v", i, op.Kind)
		}
		declared := map[string]struct{}{}
		for _, k := range app.keysOf(registered, args) {
			declared[k] = struct{}{}
		}
		rec := &keyRecorderTxn{inner: state, touched: map[string]struct{}{}}
		if _, err := registered.Body(rec, args); err != nil {
			t.Fatalf("op %d (%s): %v", i, SocialOpName(op), err)
		}
		for k := range rec.touched {
			if _, ok := declared[k]; !ok {
				t.Fatalf("op %d (%s): body touched undeclared key %s", i, SocialOpName(op), k)
			}
		}
		for k := range declared {
			if _, ok := rec.touched[k]; !ok {
				t.Fatalf("op %d (%s): declared key %s never touched", i, SocialOpName(op), k)
			}
		}
	}
	if kinds[workload.SocialFollow] == 0 || kinds[workload.SocialUnfollow] == 0 || kinds[workload.SocialPost] == 0 {
		t.Fatalf("degenerate churn mix: %v", kinds)
	}

	// The same stream on every cell: the cells whose runtimes hard-guard
	// undeclared access (the deterministic core, entity critical sections)
	// must accept every op, and all five must audit clean.
	const cellOps = 120
	for _, model := range allModels {
		t.Run(model.String(), func(t *testing.T) {
			env := NewEnv(23, 3)
			cell, err := Deploy(model, SocialApp(), env)
			if err != nil {
				t.Fatal(err)
			}
			defer cell.Close()
			audit := wideSocialStream(t, cell, 23, users, fanout, cellOps, churn)
			anomalies, err := audit.Verify(cell)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range anomalies {
				t.Errorf("anomaly: %s", a)
			}
		})
	}
}
