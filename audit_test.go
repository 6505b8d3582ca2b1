package tca

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"tca/internal/workload"
)

// The injected-violation suite symmetric with
// TestMarketAuditorDetectsWriteSkew: every workload's incremental auditor
// must flag a deliberately corrupted cell, and the precedence-graph order
// verdict must separate reorder noise (suppressed) from genuinely
// non-serializable histories (kept) and real-time-contradicting ones
// (counted as graph cycles).

// refCell clones an auditor's serial reference into a mapCell, the
// starting point every injection corrupts.
func refCell(state mapTxn) *mapCell {
	clone := make(mapTxn, len(state))
	for k, v := range state {
		clone[k] = v
	}
	return &mapCell{state: clone}
}

// TestTPCCAuditorFlagsNegativeStock injects the classic inventory
// violation: a cell whose settled stock went negative must be flagged
// both as a constraint hit and as divergence no serial order explains.
func TestTPCCAuditorFlagsNegativeStock(t *testing.T) {
	audit := NewTPCCAuditor()
	audit.RecordOp(workload.TPCCOp{
		Kind: workload.TPCCNewOrder, Warehouse: 0, District: 1,
		Items: []workload.TPCCItem{{ItemID: 7, Qty: 5}},
	})
	cell := refCell(audit.state)
	key := workload.StockKey(0, 7)
	cell.state[key] = EncodeInt(-3)
	anomalies, err := audit.Verify(cell)
	if err != nil {
		t.Fatal(err)
	}
	var constraint bool
	for _, a := range anomalies {
		if strings.Contains(a, "< 0") {
			constraint = true
		}
	}
	if !constraint {
		t.Fatalf("anomalies = %v, want a negative-stock constraint hit", anomalies)
	}
}

// TestTPCCAuditorLiveViolation pins the live path: a sampled negative
// stock value at Observe time surfaces through Violations before any
// final Verify.
func TestTPCCAuditorLiveViolation(t *testing.T) {
	audit := NewTPCCAuditor()
	op := workload.TPCCOp{
		Kind: workload.TPCCNewOrder, Warehouse: 0, District: 1,
		Items: []workload.TPCCItem{{ItemID: 7, Qty: 5}},
	}
	args, _ := json.Marshal(op)
	key := workload.StockKey(0, 7)
	if keys := audit.LiveKeys(tpccOpName(op), args); len(keys) == 0 || keys[0] != key {
		t.Fatalf("LiveKeys = %v, want the stock key %s", keys, key)
	}
	audit.Record("r1", tpccOpName(op), args)
	audit.Observe(Commit{ReqID: "r1", Live: map[string][]byte{key: EncodeInt(-5)}})
	if v := audit.Violations(); len(v) != 1 || !strings.Contains(v[0], "< 0") {
		t.Fatalf("Violations = %v, want one live negative-stock hit", v)
	}
	if s := audit.Stats(); s.LiveViolations != 1 || s.Observed != 1 {
		t.Fatalf("Stats = %+v, want 1 live violation over 1 observed commit", s)
	}
}

// TestSocialAuditorFlagsDroppedDelivery injects a lost fan-out: a
// follower's settled timeline missing the delivered post must be flagged
// (list-exact delivery; commutative state, so no reorder can excuse it).
func TestSocialAuditorFlagsDroppedDelivery(t *testing.T) {
	audit := NewSocialAuditor()
	audit.RecordOp(workload.SocialOp{
		Kind: workload.SocialPost, Author: 0, PostID: 41, Followers: []int{1, 2},
	})
	cell := refCell(audit.state)
	cell.state[workload.TimelineKey(2)] = EncodeIntList(nil)
	anomalies, err := audit.Verify(cell)
	if err != nil {
		t.Fatal(err)
	}
	if len(anomalies) != 1 || !strings.Contains(anomalies[0], workload.TimelineKey(2)) {
		t.Fatalf("anomalies = %v, want exactly the dropped delivery on %s", anomalies, workload.TimelineKey(2))
	}
}

// TestBankAuditorFlagsConservationBreak injects lost money: settled
// balances that do not sum to the deposits must trip the delta-maintained
// conservation invariant.
func TestBankAuditorFlagsConservationBreak(t *testing.T) {
	audit := NewBankAuditor()
	audit.RecordDeposit(0, 100)
	audit.RecordDeposit(1, 100)
	audit.RecordTransfer(0, 1, 30)
	cell := refCell(audit.state)
	cell.state[acctKey(1)] = EncodeInt(120) // reference says 130: 10 units vanished
	anomalies, err := audit.Verify(cell)
	if err != nil {
		t.Fatal(err)
	}
	var conservation bool
	for _, a := range anomalies {
		if strings.Contains(a, "conservation") {
			conservation = true
		}
	}
	if !conservation {
		t.Fatalf("anomalies = %v, want a conservation break", anomalies)
	}
	// The intact reference must verify clean.
	if anomalies, err := audit.Verify(refCell(audit.state)); err != nil || len(anomalies) != 0 {
		t.Fatalf("clean cell: anomalies = %v, err = %v", anomalies, err)
	}
}

// observeAt folds one op into the auditor with explicit real-time bounds,
// the way the live harness does.
func observeAt(a Auditor, reqID, op string, args []byte, start, end time.Time) {
	a.Record(reqID, op, args)
	a.Observe(Commit{ReqID: reqID, Op: op, Args: args, Start: start, End: end})
}

// TestOrderVerdictSuppressesConcurrentPuts pins the false-positive fix:
// two racing blind price writes whose handles overlapped in real time may
// serialize either way, so a cell that applied them opposite to
// completion order is NOT anomalous — the old completion-order audit
// reported exactly this as drift.
func TestOrderVerdictSuppressesConcurrentPuts(t *testing.T) {
	audit := NewMarketAuditor()
	base := time.Now()
	a1, _ := json.Marshal(workload.MarketOp{Kind: workload.MarketUpdatePrice, Product: 1, Price: 200})
	a2, _ := json.Marshal(workload.MarketOp{Kind: workload.MarketUpdatePrice, Product: 1, Price: 300})
	// Overlapping intervals: either serialization is legal.
	observeAt(audit, "r1", workload.MarketUpdatePrice.String(), a1, base, base.Add(10*time.Millisecond))
	observeAt(audit, "r2", workload.MarketUpdatePrice.String(), a2, base.Add(time.Millisecond), base.Add(11*time.Millisecond))
	// Completion order says 300; the cell serialized the other way.
	cell := refCell(audit.state)
	cell.state[workload.PriceKey(1)] = EncodeInt(200)
	anomalies, err := audit.Verify(cell)
	if err != nil {
		t.Fatal(err)
	}
	if len(anomalies) != 0 {
		t.Fatalf("anomalies = %v, want none: the reorder is serializable", anomalies)
	}
	if s := audit.Stats(); s.Reordered != 1 || s.GraphCycles != 0 {
		t.Fatalf("Stats = %+v, want exactly one suppressed reordering", s)
	}
}

// TestOrderVerdictKeepsLostUpdate pins the other side: a genuinely
// non-serializable history — two concurrent NewOrders whose stock
// read-modify-writes both read the same snapshot, losing one decrement —
// matches NO serial order and must stay an anomaly.
func TestOrderVerdictKeepsLostUpdate(t *testing.T) {
	audit := NewTPCCAuditor()
	base := time.Now()
	op := workload.TPCCOp{
		Kind: workload.TPCCNewOrder, Warehouse: 0, District: 1,
		Items: []workload.TPCCItem{{ItemID: 7, Qty: 5}},
	}
	args, _ := json.Marshal(op)
	observeAt(audit, "r1", tpccOpName(op), args, base, base.Add(10*time.Millisecond))
	observeAt(audit, "r2", tpccOpName(op), args, base.Add(time.Millisecond), base.Add(11*time.Millisecond))
	// Serial: 100-5 = 95, then 95-5 = 90 — in either order. The cell lost
	// one update: both read 100, one overwrote the other.
	cell := refCell(audit.state)
	cell.state[workload.StockKey(0, 7)] = EncodeInt(95)
	anomalies, err := audit.Verify(cell)
	if err != nil {
		t.Fatal(err)
	}
	var drift bool
	for _, a := range anomalies {
		if strings.Contains(a, workload.StockKey(0, 7)) {
			drift = true
		}
	}
	if !drift {
		t.Fatalf("anomalies = %v, want the lost stock update kept", anomalies)
	}
	if s := audit.Stats(); s.Reordered != 0 {
		t.Fatalf("Stats = %+v, want no suppression for a non-serializable history", s)
	}
}

// TestOrderVerdictCountsRealTimeCycle pins the strict-serializability
// case: when only an order contradicting real time explains the settled
// value (the second write demonstrably started after the first finished,
// yet lost), the verdict keeps the anomaly and counts a precedence-graph
// cycle.
func TestOrderVerdictCountsRealTimeCycle(t *testing.T) {
	audit := NewMarketAuditor()
	base := time.Now()
	a1, _ := json.Marshal(workload.MarketOp{Kind: workload.MarketUpdatePrice, Product: 1, Price: 200})
	a2, _ := json.Marshal(workload.MarketOp{Kind: workload.MarketUpdatePrice, Product: 1, Price: 300})
	// Disjoint intervals: the 300 write started after the 200 write's
	// handle resolved, so real time fixes the order.
	observeAt(audit, "r1", workload.MarketUpdatePrice.String(), a1, base, base.Add(time.Millisecond))
	observeAt(audit, "r2", workload.MarketUpdatePrice.String(), a2, base.Add(5*time.Millisecond), base.Add(6*time.Millisecond))
	cell := refCell(audit.state)
	cell.state[workload.PriceKey(1)] = EncodeInt(200) // only the forbidden order explains this
	anomalies, err := audit.Verify(cell)
	if err != nil {
		t.Fatal(err)
	}
	if len(anomalies) != 1 {
		t.Fatalf("anomalies = %v, want the real-time violation kept", anomalies)
	}
	if s := audit.Stats(); s.GraphCycles != 1 || s.Reordered != 0 {
		t.Fatalf("Stats = %+v, want one precedence-graph cycle", s)
	}
}

// TestOrderVerdictReplaysClaimObservedBeforeItsReserve pins the reserved
// marketplace's reorder case: the cell ran a reserve and then the checkout
// that claims it, but the checkout's handle resolved first. The reference
// therefore replays the claim first; it reads the reservation as absent
// and writes nothing. The two intervals overlap, so reserve-then-claim is
// a legal serial order, and it reproduces the cell's zeroed reservation.
// The verdict can only find that order if the claim is windowed under the
// key it read and could have written.
func TestOrderVerdictReplaysClaimObservedBeforeItsReserve(t *testing.T) {
	audit := NewMarketReservedAuditor()
	base := time.Now()
	reserve, _ := json.Marshal(workload.MarketOp{Kind: workload.MarketAddToCart, User: 9, Product: 1, Qty: 1, Price: 539, ResvID: 7})
	claim, _ := json.Marshal(workload.MarketOp{Kind: workload.MarketCheckout, User: 9, Claims: []int64{7}})
	observeAt(audit, "claim", workload.MarketCheckout.String(), claim, base.Add(time.Millisecond), base.Add(5*time.Millisecond))
	observeAt(audit, "reserve", workload.MarketAddToCart.String(), reserve, base, base.Add(10*time.Millisecond))
	key := workload.ReservationKey(9, 7)
	if got := DecodeInt(audit.state[key]); got != 539 {
		t.Fatalf("reference %s = %d, want 539 (claim replayed first)", key, got)
	}
	cell := refCell(audit.state)
	cell.state[key] = EncodeInt(0)
	cell.state[workload.OrderKey(9)] = EncodeInt(539)
	anomalies, err := audit.Verify(cell)
	if err != nil {
		t.Fatal(err)
	}
	if len(anomalies) != 0 {
		t.Fatalf("anomalies = %v, want none: reserve-then-claim is serializable", anomalies)
	}
	if s := audit.Stats(); s.Reordered != 1 || s.GraphCycles != 0 {
		t.Fatalf("Stats = %+v, want exactly one suppressed reordering", s)
	}
}

// TestAuditorWindowBounded pins the memory bound: hammering one key with
// order-sensitive writes must not grow its window past auditWindow — the
// no-full-history-replay guarantee of the live path.
func TestAuditorWindowBounded(t *testing.T) {
	audit := NewMarketAuditor()
	for i := 0; i < 10*auditWindow; i++ {
		audit.RecordOp(workload.MarketOp{Kind: workload.MarketUpdatePrice, Product: 1, Price: int64(100 + i)})
	}
	track := audit.order.keys[workload.PriceKey(1)]
	if track == nil || !track.tracked {
		t.Fatal("price key not tracked")
	}
	if len(track.nodes) > auditWindow {
		t.Fatalf("window holds %d commits, want <= %d", len(track.nodes), auditWindow)
	}
	// The evicted history is still folded into the verdict: the reference
	// itself verifies clean.
	if anomalies, err := audit.Verify(refCell(audit.state)); err != nil || len(anomalies) != 0 {
		t.Fatalf("clean cell: anomalies = %v, err = %v", anomalies, err)
	}
}

// TestConcurrencyCellLiveAudit drives the real harness end to end with
// the auditor inside the loop: the serializable cells must come out
// exact on every mix — the acceptance bar for the precedence-graph
// verdict (no false anomalies on isolated cells).
func TestConcurrencyCellLiveAudit(t *testing.T) {
	for _, mix := range Mixes() {
		mix := mix
		t.Run(mix, func(t *testing.T) {
			t.Parallel()
			res, err := RunCell(mix, Deterministic, 120, CellOptions{Clients: 8, Audit: true})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Audited {
				t.Fatal("run not audited")
			}
			if len(res.Anomalies) != 0 {
				t.Errorf("deterministic cell: anomalies = %v, want none", res.Anomalies)
			}
			if res.Violations != 0 {
				t.Errorf("deterministic cell: %d live violations, want none", res.Violations)
			}
		})
	}
}

// RecordDeposit folds one applied deposit into the reference.
func (a *BankAuditor) RecordDeposit(account int, amount int64) {
	args, _ := json.Marshal(bankDepositArgs{Account: account, Amount: amount})
	a.ObserveSerial("deposit", args)
}

// RecordTransfer folds one applied transfer into the reference.
func (a *BankAuditor) RecordTransfer(from, to int, amount int64) {
	args, _ := json.Marshal(bankTransferArgs{From: from, To: to, Amount: amount})
	a.ObserveSerial("transfer", args)
}
