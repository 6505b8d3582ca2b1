package tca

import (
	"encoding/json"
	"fmt"
	"testing"

	"tca/internal/workload"
)

// Cross-cell tests for the TPC-C query transactions (OrderStatus and
// StockLevel, declared ReadOnly): on every cell they must leave all state
// untouched and — on the synchronous cells, which return results — agree
// with the same query run against the serial reference.

// tpccQuerySeed drives a short seeded NewOrder/Payment prefix, serialized
// per op on the eventual cell so the reference matches exactly.
func tpccQuerySeed(t *testing.T, cell Cell) *TPCCAuditor {
	t.Helper()
	cfg := workload.TPCCConfig{Warehouses: 2, Districts: 2, Customers: 10, Items: 40, NewOrderFrac: 0.55}
	gen := workload.NewTPCC(33, cfg)
	audit := NewTPCCAuditor()
	for i := 0; i < 60; i++ {
		op := gen.Next()
		args, _ := json.Marshal(op)
		if _, err := cell.Invoke(fmt.Sprintf("qseed-%d", i), tpccOpName(op), args, nil); err != nil {
			t.Fatalf("seed op %d (%s): %v", i, tpccOpName(op), err)
		}
		audit.RecordOp(op)
		if cell.Model() == StatefulDataflow {
			if err := cell.Settle(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := cell.Settle(); err != nil {
		t.Fatal(err)
	}
	return audit
}

func TestTPCCQueriesCrossCell(t *testing.T) {
	orderStatus := workload.TPCCOp{
		Kind: workload.TPCCOrderStatus, Warehouse: 0, District: 1, Customer: 3,
	}
	stockLevel := workload.TPCCOp{
		Kind: workload.TPCCStockLevel, Warehouse: 1, District: 0, Threshold: 60,
		Items: []workload.TPCCItem{{ItemID: 1}, {ItemID: 7}, {ItemID: 13}, {ItemID: 21}, {ItemID: 33}},
	}
	queries := []workload.TPCCOp{orderStatus, stockLevel}
	for _, model := range allModels {
		t.Run(model.String(), func(t *testing.T) {
			env := NewEnv(61, 3)
			cell, err := Deploy(model, TPCCApp(), env)
			if err != nil {
				t.Fatal(err)
			}
			defer cell.Close()
			audit := tpccQuerySeed(t, cell)

			// Snapshot every key the queries declare, before and after.
			var auditKeys []string
			for _, q := range queries {
				auditKeys = append(auditKeys, q.Keys()...)
			}
			before := readAll(t, cell, auditKeys)

			for qi, q := range queries {
				args, _ := json.Marshal(q)
				res, err := cell.Invoke(fmt.Sprintf("tq-%d", qi), tpccOpName(q), args, nil)
				if err != nil {
					t.Fatalf("%s: %v", tpccOpName(q), err)
				}
				// Synchronous cells return the result; it must equal the
				// same body run on the serial reference state.
				if model == StatefulDataflow {
					continue
				}
				registered, _ := TPCCApp().Op(tpccOpName(q))
				want, err := registered.Body(audit.state, args)
				if err != nil {
					t.Fatal(err)
				}
				if string(res) != string(want) {
					t.Errorf("%s = %s, serial reference %s", tpccOpName(q), res, want)
				}
			}

			if err := cell.Settle(); err != nil {
				t.Fatal(err)
			}
			after := readAll(t, cell, auditKeys)
			for _, k := range auditKeys {
				if before[k] != after[k] {
					t.Errorf("%s: %d -> %d after read-only TPC-C queries", k, before[k], after[k])
				}
			}
			// And the full integrity audit still holds — the queries did
			// not perturb the write history.
			anomalies, err := audit.Verify(cell)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range anomalies {
				t.Errorf("post-query anomaly: %s", a)
			}
		})
	}
}

// TestTPCCQueryResultsAgainstKnownState pins the two query bodies on a
// hand-built state: the results are computed, not echoed.
func TestTPCCQueryResultsAgainstKnownState(t *testing.T) {
	state := make(mapTxn)
	state[workload.CustomerKey(0, 0, 1)] = EncodeInt(-230)
	state[workload.DistrictKey(0, 0)] = EncodeInt(7)
	state[workload.StockKey(0, 3)] = EncodeInt(4)
	state[workload.StockKey(0, 4)] = EncodeInt(40)

	app := TPCCApp()
	osOp, _ := app.Op(workload.TPCCOrderStatus.String())
	args, _ := json.Marshal(workload.TPCCOp{Kind: workload.TPCCOrderStatus, Customer: 1})
	res, err := osOp.Body(roTxn{state}, args)
	if err != nil {
		t.Fatal(err)
	}
	var osRes tpccOrderStatusResult
	if err := json.Unmarshal(res, &osRes); err != nil {
		t.Fatal(err)
	}
	if osRes.Balance != -230 || osRes.Orders != 7 {
		t.Fatalf("order-status = %+v, want balance -230 orders 7", osRes)
	}

	slOp, _ := app.Op(workload.TPCCStockLevel.String())
	// Items 3 (stock 4, low), 4 (stock 40, not low), 9 (untouched ->
	// tpccInitialStock, not low); default threshold.
	args, _ = json.Marshal(workload.TPCCOp{
		Kind:  workload.TPCCStockLevel,
		Items: []workload.TPCCItem{{ItemID: 3}, {ItemID: 4}, {ItemID: 9}},
	})
	res, err = slOp.Body(roTxn{state}, args)
	if err != nil {
		t.Fatal(err)
	}
	var slRes tpccStockLevelResult
	if err := json.Unmarshal(res, &slRes); err != nil {
		t.Fatal(err)
	}
	if slRes.Low != 1 || slRes.Scanned != 3 {
		t.Fatalf("stock-level = %+v, want low 1 scanned 3", slRes)
	}
}
