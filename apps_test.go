package tca

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"tca/internal/fabric"
	"tca/internal/mq"
	"tca/internal/workload"
)

// Cross-model and concurrency tests for the apps ISSUE 10 promoted to
// first-class workloads: the reserved marketplace, the trip-booking saga
// (from examples/booking), and the double-entry ledger (from
// examples/streamledger).

// TestReservedMarketCrossModelAudit drives the reserved checkout serially
// under all five cells: every cell must match the serial reference
// exactly — the reserved protocol's writes are pure functions of their
// arguments, so there is no stale-read surface at any isolation level.
func TestReservedMarketCrossModelAudit(t *testing.T) {
	cfg := workload.MarketConfig{
		Users: 8, Products: 6,
		CartFrac: 0.45, CheckoutFrac: 0.20, PriceFrac: 0.10,
		ZipfS: 1.2,
	}
	const ops = 150
	for _, model := range allModels {
		t.Run(model.String(), func(t *testing.T) {
			env := NewEnv(1, 3)
			cell, err := Deploy(model, MarketAppReserved(), env)
			if err != nil {
				t.Fatal(err)
			}
			defer cell.Close()
			gen := workload.NewReservedMarket(42, cfg)
			audit := NewMarketReservedAuditor()
			for i := 0; i < ops; i++ {
				op := gen.Next()
				args, _ := json.Marshal(op)
				_, err := cell.Invoke(fmt.Sprintf("r%d", i), marketOpName(op), args, nil)
				if model == StatefulDataflow {
					if err := cell.Settle(); err != nil {
						t.Fatal(err)
					}
					audit.RecordOp(op)
				} else if err == nil {
					audit.RecordOp(op)
				} else if op.Kind != workload.MarketCheckout {
					t.Fatalf("op %d (%s): %v", i, marketOpName(op), err)
				}
			}
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

// TestReservedMarketEliminatesWriteSkew is the satellite claim itself:
// under the same concurrent harness where the plain marketplace drifts on
// the eventual cell (E21's tolerate-the-drift row), the reserved protocol
// audits clean — zero anomalies, not fewer.
func TestReservedMarketEliminatesWriteSkew(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent audited run")
	}
	res, err := RunCell("market-res", StatefulDataflow, 600, CellOptions{Clients: 16, Audit: true, LogDir: os.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Audited {
		t.Fatal("auditor did not run")
	}
	for _, a := range res.Anomalies {
		t.Errorf("reserved checkout anomaly: %s", a)
	}
	if res.GraphCycles != 0 {
		t.Errorf("GraphCycles = %d, want 0", res.GraphCycles)
	}
	if res.Applied() < 100 {
		t.Fatalf("degenerate run: %d applied of %d issued", res.Applied(), res.Issued)
	}
}

// TestBookingCrossModelAudit drives the promoted trip-booking app
// serially under all five cells against its auditor.
func TestBookingCrossModelAudit(t *testing.T) {
	const ops = 120
	for _, model := range allModels {
		t.Run(model.String(), func(t *testing.T) {
			env := NewEnv(1, 3)
			cell, err := Deploy(model, BookingApp(), env)
			if err != nil {
				t.Fatal(err)
			}
			defer cell.Close()
			gen := workload.NewBooking(11, 16, 4, 4, 0.2, 0.15)
			audit := NewBookingAuditor()
			for i := 0; i < ops; i++ {
				op := gen.Next()
				args, _ := json.Marshal(op)
				if _, err := cell.Invoke(fmt.Sprintf("b%d", i), bookingOpName(op), args, nil); err != nil {
					t.Fatalf("op %d (%s): %v", i, bookingOpName(op), err)
				}
				audit.RecordOp(op)
				if model == StatefulDataflow {
					if err := cell.Settle(); err != nil {
						t.Fatal(err)
					}
				}
			}
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

// TestLedgerCrossModelAudit drives the promoted ledger app serially under
// all five cells: conservation must hold and every balance must match the
// reference.
func TestLedgerCrossModelAudit(t *testing.T) {
	const ops = 120
	for _, model := range allModels {
		t.Run(model.String(), func(t *testing.T) {
			env := NewEnv(1, 3)
			cell, err := Deploy(model, LedgerApp(), env)
			if err != nil {
				t.Fatal(err)
			}
			defer cell.Close()
			gen := workload.NewLedger(13, 12, 0.15)
			audit := NewLedgerAuditor()
			for i := 0; i < ops; i++ {
				op := gen.Next()
				args, _ := json.Marshal(op)
				if _, err := cell.Invoke(fmt.Sprintf("l%d", i), ledgerOpName(op), args, nil); err != nil {
					t.Fatalf("op %d (%s): %v", i, ledgerOpName(op), err)
				}
				audit.RecordOp(op)
				if model == StatefulDataflow {
					if err := cell.Settle(); err != nil {
						t.Fatal(err)
					}
				}
			}
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

// TestStatefunCellCrashRecoverReads pins the stateful-dataflow cell's
// crash/recovery surface end to end through the tca API, the path
// examples/streamledger demos: checkpoint, more writes, crash before the
// next checkpoint, recover, and the replayed state must be exact and
// readable: the recovered job replays the app's topic from the
// checkpoint's offsets, and the broker's idempotent produce dedups the
// replayed sends against the ones the crashed run made, so every bump
// applies exactly once and post-recovery probes still answer.
func TestStatefunCellCrashRecoverReads(t *testing.T) {
	env := NewEnv(1, 3)
	cell, err := Deploy(StatefulDataflow, geoTestApp(), env)
	if err != nil {
		t.Fatal(err)
	}
	defer cell.Close()
	bump := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			args, _ := json.Marshal(geoTestArgs{K: "cnt/0", V: 1})
			if _, err := cell.Invoke(fmt.Sprintf("w%d", i), "bump", args, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := cell.Settle(); err != nil {
			t.Fatal(err)
		}
	}
	bump(0, 10)
	sf := StatefunRuntime(cell)
	if sf == nil {
		t.Fatal("StatefunRuntime returned nil for a statefun cell")
	}
	if _, err := sf.TriggerCheckpoint(); err != nil {
		t.Fatal(err)
	}
	bump(10, 15) // un-checkpointed tail: must replay from the input log
	sf.Crash()
	if err := sf.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := cell.Settle(); err != nil {
		t.Fatal(err)
	}
	raw, found, err := cell.Read("cnt/0")
	if err != nil {
		t.Fatal(err)
	}
	if !found || DecodeInt(raw) != 15 {
		t.Fatalf("cnt/0 = %d (found=%v), want 15", DecodeInt(raw), found)
	}
}

// TestStatefunCellRecordsPerOp pins what one TPC-C op costs the dataflow
// cell in broker records: the op itself, then at most one read, one
// response and one write batch per touched partition. A per-key
// choreography, or a second topic each ingress message is copied into,
// reads well above the bound. The sum runs over every topic the cell has
// named; "internal" is the copy topic of the retired ingress relay and,
// like any topic that does not exist, counts 0.
func TestStatefunCellRecordsPerOp(t *testing.T) {
	const ops = 2000
	env := NewEnv(1, 3)
	app := TPCCApp()
	cell, err := Deploy(StatefulDataflow, app, env)
	if err != nil {
		t.Fatal(err)
	}
	defer cell.Close()
	next := opStream(workload.NewTPCC(1, workload.DefaultTPCCConfig(32)).Next, tpccOpName)
	sess := NewSession(cell, "records", SessionOptions{MaxInFlight: 16})
	for i := 0; i < ops; i++ {
		name, args := next()
		sess.Submit(name, args, nil)
	}
	sess.Drain()
	if err := cell.Settle(); err != nil {
		t.Fatal(err)
	}
	if n := sess.Errors(); n != 0 {
		t.Fatalf("%d of %d submissions failed", n, ops)
	}
	var records int64
	for _, suffix := range []string{"ingress", "internal"} {
		topic := "cell-" + app.Name() + "-" + suffix
		parts, err := env.Broker.Partitions(topic)
		if err != nil {
			continue // never created
		}
		for p := 0; p < parts; p++ {
			hw, _ := env.Broker.HighWater(mq.TopicPartition{Topic: topic, Partition: p})
			records += hw
		}
	}
	perOp := float64(records) / ops
	t.Logf("%d broker records for %d ops: %.2f per op", records, ops, perOp)
	if perOp > 9 {
		t.Fatalf("%.2f broker records per op, want <= 9", perOp)
	}
}

// TestMicroCellHopsPerOp pins what one TPC-C op costs the microservices
// cell in fabric hops: one get RPC per service that owns a declared key,
// then one apply RPC per service the writes touch. A saga step or a read
// per key reads well above the bound.
func TestMicroCellHopsPerOp(t *testing.T) {
	const ops = 2000
	cell, err := Deploy(Microservices, TPCCApp(), NewEnv(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer cell.Close()
	next := opStream(workload.NewTPCC(1, workload.DefaultTPCCConfig(32)).Next, tpccOpName)
	sess := NewSession(cell, "hops", SessionOptions{MaxInFlight: 16})
	traces := make([]*fabric.Trace, ops)
	for i := range traces {
		name, args := next()
		traces[i] = fabric.NewTrace()
		sess.Submit(name, args, traces[i])
	}
	sess.Drain()
	if n := sess.Errors(); n != 0 {
		t.Fatalf("%d of %d submissions failed", n, ops)
	}
	hops := 0
	for _, tr := range traces {
		hops += tr.Hops()
	}
	perOp := float64(hops) / ops
	t.Logf("%d fabric hops for %d ops: %.2f per op", hops, ops, perOp)
	if perOp > 10 {
		t.Fatalf("%.2f fabric hops per op, want <= 10", perOp)
	}
}

// TestNewMixesRegistered pins the workload-layer registration: the three
// promoted mixes drive through the concurrent harness on a synchronous
// cell and audit clean (they commute or, for market-res, are pure
// functions of their arguments).
func TestNewMixesRegistered(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent audited runs")
	}
	for _, mix := range []string{"booking", "ledger"} {
		mix := mix
		t.Run(mix, func(t *testing.T) {
			res, err := RunCell(mix, Actors, 300, CellOptions{Clients: 8, Audit: true, LogDir: os.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Audited {
				t.Fatal("auditor did not run")
			}
			for _, a := range res.Anomalies {
				t.Errorf("anomaly: %s", a)
			}
		})
	}
}
