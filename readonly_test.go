package tca

import (
	"encoding/json"
	"fmt"
	"testing"

	"tca/internal/workload"
)

// The read-only contract, cross-cell: a query op must succeed on every
// cell, return the committed values (on the synchronous cells), leave all
// state untouched, and — on the deterministic cell — never enter the
// write schedule.

// marketSeed drives a small deterministic prefix: a price reposition, a
// cart fill, and one checkout, so queries have state to read.
func marketSeed(t *testing.T, cell Cell) {
	t.Helper()
	seed := []workload.MarketOp{
		{Kind: workload.MarketUpdatePrice, Product: 1, Price: 250},
		{Kind: workload.MarketAddToCart, User: 2, Product: 1, Qty: 3},
		{Kind: workload.MarketCheckout, User: 2, Product: 1},
	}
	for i, op := range seed {
		args, _ := json.Marshal(op)
		if _, err := cell.Invoke(fmt.Sprintf("seed-%d", i), marketOpName(op), args, nil); err != nil {
			t.Fatalf("seed op %d: %v", i, err)
		}
		// Serialize the eventual cell so the checkout sees the cart.
		if cell.Model() == StatefulDataflow {
			if err := cell.Settle(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := cell.Settle(); err != nil {
		t.Fatal(err)
	}
}

func readAll(t *testing.T, cell Cell, keys []string) map[string]int64 {
	t.Helper()
	out := make(map[string]int64, len(keys))
	for _, k := range keys {
		raw, _, err := cell.Read(k)
		if err != nil {
			t.Fatal(err)
		}
		out[k] = DecodeInt(raw)
	}
	return out
}

func TestReadOnlyQueriesLeaveStateUntouched(t *testing.T) {
	auditKeys := []string{
		workload.PriceKey(1), workload.MarketStockKey(1),
		workload.CartKey(2), workload.OrderKey(2),
	}
	for _, model := range allModels {
		t.Run(model.String(), func(t *testing.T) {
			env := NewEnv(21, 3)
			cell, err := Deploy(model, MarketApp(), env)
			if err != nil {
				t.Fatal(err)
			}
			defer cell.Close()
			marketSeed(t, cell)
			before := readAll(t, cell, auditKeys)
			if before[workload.OrderKey(2)] != 3*250 {
				t.Fatalf("checkout ledger = %d, want 750", before[workload.OrderKey(2)])
			}
			query := workload.MarketOp{Kind: workload.MarketQueryProduct, Product: 1}
			args, _ := json.Marshal(query)
			for i := 0; i < 8; i++ {
				res, err := cell.Invoke(fmt.Sprintf("q-%d", i), marketOpName(query), args, nil)
				if err != nil {
					t.Fatalf("query %d: %v", i, err)
				}
				// Synchronous cells return the result; the dataflow cell
				// acknowledges acceptance only.
				if model != StatefulDataflow {
					var got marketQueryResult
					if err := json.Unmarshal(res, &got); err != nil {
						t.Fatalf("query result: %v", err)
					}
					if got.Price != 250 || got.Stock != marketInitialStock-3 {
						t.Fatalf("query = %+v, want price 250 stock %d", got, marketInitialStock-3)
					}
				}
			}
			if err := cell.Settle(); err != nil {
				t.Fatal(err)
			}
			after := readAll(t, cell, auditKeys)
			for _, k := range auditKeys {
				if before[k] != after[k] {
					t.Errorf("%s: %d -> %d after read-only queries", k, before[k], after[k])
				}
			}
		})
	}
}

// TestReadOnlyContractEnforced pins the guard: an op falsely declared
// ReadOnly whose body writes fails on the synchronous cells and mutates
// nothing anywhere.
func TestReadOnlyContractEnforced(t *testing.T) {
	sneakyApp := func() *App {
		return NewApp("sneaky").Register(Op{
			Name:     "sneak-write",
			ReadOnly: true,
			Keys:     func([]byte) []string { return []string{"k"} },
			Body: func(tx Txn, _ []byte) ([]byte, error) {
				if err := tx.Put("k", EncodeInt(42)); err != nil {
					return nil, err
				}
				return nil, nil
			},
		})
	}
	for _, model := range allModels {
		t.Run(model.String(), func(t *testing.T) {
			env := NewEnv(31, 3)
			cell, err := Deploy(model, sneakyApp(), env)
			if err != nil {
				t.Fatal(err)
			}
			defer cell.Close()
			_, err = cell.Invoke("s-1", "sneak-write", nil, nil)
			// Synchronous cells surface the violation; the dataflow cell
			// accepts then drops the op (its honest failure mode).
			if model != StatefulDataflow && err == nil {
				t.Fatal("write from read-only op accepted")
			}
			if err := cell.Settle(); err != nil {
				t.Fatal(err)
			}
			if raw, found, _ := cell.Read("k"); found {
				t.Fatalf("read-only op wrote k=%d", DecodeInt(raw))
			}
		})
	}
}

// TestCoreReadOnlyConsumesNoWriteSchedule pins the deterministic cell's
// query path: reads answer from the committed MVCC view without an
// input-log append, a commit, or a write-schedule slot.
func TestCoreReadOnlyConsumesNoWriteSchedule(t *testing.T) {
	env := NewEnv(41, 3)
	cell, err := Deploy(Deterministic, MarketApp(), env)
	if err != nil {
		t.Fatal(err)
	}
	defer cell.Close()
	marketSeed(t, cell)
	rt := CoreRuntime(cell)
	consumedBefore, err := rt.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	commitsBefore := rt.Metrics().Counter("core.commits").Value()
	query := workload.MarketOp{Kind: workload.MarketQueryProduct, Product: 1}
	args, _ := json.Marshal(query)
	const queries = 100
	for i := 0; i < queries; i++ {
		if _, err := cell.Invoke(fmt.Sprintf("roq-%d", i), marketOpName(query), args, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := rt.Metrics().Counter("core.readonly").Value(); got != queries {
		t.Errorf("core.readonly = %d, want %d", got, queries)
	}
	if got := rt.Metrics().Counter("core.commits").Value(); got != commitsBefore {
		t.Errorf("queries consumed write-schedule commits: %d -> %d", commitsBefore, got)
	}
	consumedAfter, err := rt.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if consumedAfter != consumedBefore {
		t.Errorf("queries appended to the input log: entries consumed %d -> %d", consumedBefore, consumedAfter)
	}
}

// TestActorReadOnlySkips2PC pins the actor cell's query path: a read-only
// op must not run the prepare/commit rounds, which shows up as strictly
// fewer simulated hops than the same-shaped write op.
func TestActorReadOnlySkips2PC(t *testing.T) {
	env := NewEnv(51, 3)
	cell, err := Deploy(Actors, MarketApp(), env)
	if err != nil {
		t.Fatal(err)
	}
	defer cell.Close()
	marketSeed(t, cell)
	sys := executorOf(cell).(*actorExec).sys
	roBefore := sys.Metrics().Counter("actor.txn_readonly").Value()
	commitsBefore := sys.Metrics().Counter("actor.txn_commits").Value()
	query := workload.MarketOp{Kind: workload.MarketQueryProduct, Product: 1}
	args, _ := json.Marshal(query)
	if _, err := cell.Invoke("aro-1", marketOpName(query), args, nil); err != nil {
		t.Fatal(err)
	}
	if got := sys.Metrics().Counter("actor.txn_readonly").Value(); got != roBefore+1 {
		t.Errorf("actor.txn_readonly = %d, want %d", got, roBefore+1)
	}
	if got := sys.Metrics().Counter("actor.txn_commits").Value(); got != commitsBefore {
		t.Errorf("read-only op ran the 2PC commit protocol: commits %d -> %d", commitsBefore, got)
	}
}
