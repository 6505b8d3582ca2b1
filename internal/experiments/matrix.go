package experiments

import (
	"encoding/json"
	"fmt"
	"time"

	"tca"
	"tca/internal/fabric"
	"tca/internal/grid"
	"tca/internal/workload"
)

// The serial taxonomy matrices: one seeded op stream, the same App under
// every programming model, audited against the serial reference.

// matrixColumns are the columns every serial matrix shares, followed by
// the experiment's own.
func matrixColumns(own ...string) []string {
	return append([]string{"tx_s", "sim_p50_us", "sim_p99_us", "anomalies"}, own...)
}

// matrixRun is one serial matrix cell: an App, its deploy options, a
// seeded op stream and the audit over it.
type matrixRun struct {
	app  *tca.App
	opts tca.Options
	// next returns op i and, when the op belongs in the audit, the call
	// that records it on the serial reference (nil for ops that are not
	// audited, such as E19's interleaved queries).
	next func(i int) (name string, args []byte, record func())
	// verify returns the settled cell's anomalies; nil skips the audit.
	verify func(cell tca.Cell) ([]string, error)
}

// run deploys the app under model and invokes ops operations one at a
// time, reporting real throughput, simulated (fabric trace) latency and
// the audit's anomaly count. The eventual cell's ops are recorded
// unconditionally: an accepted op is exactly-once in the ingress and
// applies even when Invoke reports a drop or timeout, so every driver
// audits identical streams against one baseline.
func (m matrixRun) run(model tca.ProgrammingModel, seed int64, ops int) (grid.Sample, error) {
	cell, err := tca.DeployWith(model, m.app, tca.NewEnv(1, 3), m.opts)
	if err != nil {
		return grid.Sample{}, err
	}
	defer cell.Close()
	sim := workload.NewLatencyReservoir(0, seed)
	start := time.Now()
	for i := 0; i < ops; i++ {
		name, args, record := m.next(i)
		tr := fabric.NewTrace()
		_, err := cell.Invoke(fmt.Sprintf("op-%d", i), name, args, tr)
		if record != nil && (err == nil || model == tca.StatefulDataflow) {
			record()
		}
		sim.Record(tr.Total())
		// Bound the eventual cell's in-flight choreography so the final
		// settle stays within its timeout (wide E19 posts are hundreds of
		// chunked messages each, so keep the backlog short).
		if model == tca.StatefulDataflow && i%64 == 63 {
			if err := cell.Settle(); err != nil {
				return grid.Sample{}, err
			}
		}
	}
	if err := cell.Settle(); err != nil {
		return grid.Sample{}, err
	}
	metrics := map[string]float64{
		"tx_s":       float64(ops) / time.Since(start).Seconds(),
		"sim_p50_us": us(sim.P50()),
	}
	if m.verify != nil {
		anomalies, err := m.verify(cell)
		if err != nil {
			return grid.Sample{}, err
		}
		metrics["anomalies"] = float64(len(anomalies))
	}
	return grid.Sample{Metrics: metrics, Accept: sim.Samples()}, nil
}

// f1 is the taxonomy matrix of Figure 1: the same bank-transfer workload
// under every programming model, with real cost, simulated latency and
// hop count per cell (each cell's honest guarantee is Cell.Guarantee).
func f1() Experiment {
	var rows []grid.Row
	for _, m := range models {
		rows = append(rows, grid.NewRow(m.String(), "model", m.String()))
	}
	return Experiment{
		Spec:    grid.Spec{Experiment: "f1", List: rows, AcceptKey: "sim_p99_us"},
		Title:   "taxonomy matrix — bank transfers under every programming model",
		Columns: []string{"real_us_op", "sim_p50_us", "sim_p99_us", "hops_op"},
		Run: func(row grid.Row, seed int64, ops int) (grid.Sample, error) {
			bank, err := tca.NewBank(modelOf(row), tca.NewEnv(1, 3))
			if err != nil {
				return grid.Sample{}, err
			}
			defer bank.Close()
			const accounts = 64
			for a := 0; a < accounts; a++ {
				if err := bank.Deposit(a, 1_000_000); err != nil {
					return grid.Sample{}, err
				}
			}
			gen := workload.NewBank(6+seed, accounts, 0)
			sim := workload.NewLatencyReservoir(0, seed)
			var hops int
			start := time.Now()
			for i := 0; i < ops; i++ {
				op := gen.Next()
				tr := fabric.NewTrace()
				bank.Transfer(fmt.Sprintf("f1-%d", i), op.From, op.To, op.Amount, tr)
				sim.Record(tr.Total())
				hops += tr.Hops()
			}
			if err := bank.Settle(); err != nil {
				return grid.Sample{}, err
			}
			return grid.Sample{Metrics: map[string]float64{
				"real_us_op": us(time.Since(start)) / float64(ops),
				"sim_p50_us": us(sim.P50()),
				"hops_op":    float64(hops) / float64(ops),
			}, Accept: sim.Samples()}, nil
		},
	}
}

// e17 is the TPC-C matrix: the identical seeded NewOrder/Payment stream
// under every model, audited for the standard's integrity constraints —
// swept over contention (warehouses), the cross-warehouse rate
// (TPCCConfig.RemoteFrac, the app-level counterpart of E16's
// cross-partition ratio: only the Remote bit changes) and the query rate
// (TPCCConfig.QueryFrac: OrderStatus and StockLevel on every cell's
// ReadOnly fast path).
func e17() Experiment {
	var rows []grid.Row
	for _, sweep := range [][3]int{ // warehouses, remote %, query %
		{1, 0, 0}, {1, 0, 20},
		{4, 0, 0}, {4, 0, 20}, {4, 0, 30},
		{4, 10, 0}, {4, 10, 20},
		{4, 50, 0}, {4, 50, 20},
	} {
		for _, m := range models {
			rows = append(rows, grid.NewRow(
				fmt.Sprintf("%s/wh=%d/remote=%d%%/query=%d%%", m, sweep[0], sweep[1], sweep[2]),
				"model", m.String(), "wh", fmt.Sprint(sweep[0]), "remote", fmt.Sprint(sweep[1]), "query", fmt.Sprint(sweep[2])))
		}
	}
	return Experiment{
		Spec:    grid.Spec{Experiment: "e17", List: rows, ThroughputKey: "tx_s", AcceptKey: "sim_p99_us"},
		Title:   "TPC-C matrix — one tca.App, every programming model, audited invariants",
		Columns: matrixColumns("query_pct"),
		Run: func(row grid.Row, seed int64, ops int) (grid.Sample, error) {
			cfg := workload.DefaultTPCCConfig(row.Int("wh"))
			cfg.RemoteFrac = workload.RemoteFrac(row.Float("remote") / 100)
			cfg.QueryFrac = row.Float("query") / 100
			gen := workload.NewTPCC(10+seed, cfg)
			audit := tca.NewTPCCAuditor()
			queries := 0
			s, err := matrixRun{
				app: tca.TPCCApp(),
				next: func(int) (string, []byte, func()) {
					op := gen.Next()
					if op.Kind == workload.TPCCOrderStatus || op.Kind == workload.TPCCStockLevel {
						queries++
					}
					args, _ := json.Marshal(op)
					return op.Kind.String(), args, func() { audit.RecordOp(op) }
				},
				verify: audit.Verify,
			}.run(modelOf(row), seed, ops)
			if err == nil {
				s.Metrics["query_pct"] = 100 * float64(queries) / float64(ops)
			}
			return s, err
		},
	}
}

// e18 is the marketplace matrix: one MarketApp under every model from one
// seeded stream, audited for the checkout/price write skew, with product
// popularity (ZipfS) as the contention knob. The readpath rows are the
// read-only A/B: a pure query-product stream with the ReadOnly hint
// honored vs stripped, on the two cells whose query shortcut is largest
// (actors skip 2PL exclusive locks + 2PC; the deterministic core skips
// the log append and the write schedule entirely).
func e18() Experiment {
	var rows []grid.Row
	for _, zipf := range []string{"1.1", "4.0"} { // mild vs hot-product skew
		for _, m := range models {
			rows = append(rows, grid.NewRow(fmt.Sprintf("%s/zipf=%s", m, zipf), "model", m.String(), "zipf", zipf))
		}
	}
	for _, m := range []tca.ProgrammingModel{tca.Actors, tca.Deterministic} {
		for _, hint := range []string{"true", "false"} {
			rows = append(rows, grid.NewRow(fmt.Sprintf("readpath/%s/ro=%s", m, hint), "model", m.String(), "ro", hint))
		}
	}
	return Experiment{
		Spec:    grid.Spec{Experiment: "e18", List: rows, ThroughputKey: "tx_s", AcceptKey: "sim_p99_us"},
		Title:   "marketplace matrix — carts/checkouts/queries/price updates, write-skew audit; readpath = pure query stream, hint honored vs stripped",
		Columns: matrixColumns("query_pct", "query_s"),
		Run: func(row grid.Row, seed int64, ops int) (grid.Sample, error) {
			if hint := row.Knob("ro"); hint != "" {
				name := workload.MarketQueryProduct.String()
				op, _ := tca.MarketApp().Op(name)
				op.ReadOnly = hint == "true" // keep or strip the access class
				args, _ := json.Marshal(workload.MarketOp{Kind: workload.MarketQueryProduct, Product: 1})
				s, err := matrixRun{
					app:  tca.NewApp("market-query").Register(op),
					next: func(int) (string, []byte, func()) { return name, args, nil },
				}.run(modelOf(row), seed, ops)
				if err == nil {
					s.Metrics["query_s"] = s.Metrics["tx_s"]
					delete(s.Metrics, "tx_s")
				}
				return s, err
			}
			cfg := workload.DefaultMarketConfig()
			cfg.ZipfS = row.Float("zipf")
			gen := workload.NewMarket(4+seed, cfg)
			audit := tca.NewMarketAuditor()
			queries := 0
			s, err := matrixRun{
				app: tca.MarketApp(),
				next: func(int) (string, []byte, func()) {
					op := gen.Next()
					if op.Kind == workload.MarketQueryProduct {
						queries++
					}
					args, _ := json.Marshal(op)
					return op.Kind.String(), args, func() { audit.RecordOp(op) }
				},
				verify: audit.Verify,
			}.run(modelOf(row), seed, ops)
			if err == nil {
				s.Metrics["query_pct"] = 100 * float64(queries) / float64(ops)
			}
			return s, err
		},
	}
}

// e19 is the social-network matrix: compose-post fan-out whose declared
// key set is the author's follower-timeline list, so the fan-out knob
// directly widens every cell's transaction. The sweep crosses the
// statefun runtime's 32-send budget (wide posts chunk their choreography
// across continuation rounds). One op in five is the read-only
// read-timeline, and a 10% follow/unfollow churn mutates fan-out key
// sets between posts. The whole state model commutes, so every cell must
// audit clean.
func e19() Experiment {
	var rows []grid.Row
	for _, fanout := range []int{8, 24, 64, 128} { // max followers
		for _, m := range models {
			rows = append(rows, grid.NewRow(fmt.Sprintf("%s/fanout=%d", m, fanout), "model", m.String(), "fanout", fmt.Sprint(fanout)))
		}
	}
	return Experiment{
		Spec:    grid.Spec{Experiment: "e19", List: rows, ThroughputKey: "tx_s", AcceptKey: "sim_p99_us"},
		Title:   "social matrix — compose-post fan-out over follower timelines, exact delivery audit",
		Columns: matrixColumns("fanout_post"),
		Run: func(row grid.Row, seed int64, ops int) (grid.Sample, error) {
			fanout := row.Int("fanout")
			// Enough users that even the celebrity tail can have `fanout`
			// distinct followers.
			users := 64
			if users < 2*fanout {
				users = 2 * fanout
			}
			gen := workload.NewSocialChurn(8+seed, users, fanout, 0.10)
			audit := tca.NewSocialAuditor()
			var fanoutSum, posts int
			s, err := matrixRun{
				app: tca.SocialApp(),
				// Partitions shards the deterministic cell so wide posts pay
				// the cross-partition path; other models ignore it.
				opts: tca.Options{Partitions: 4},
				next: func(i int) (string, []byte, func()) {
					if i%5 == 4 {
						args, _ := json.Marshal(map[string]int{"user": i % users})
						return tca.SocialReadTimeline, args, nil
					}
					op := gen.Next()
					if op.Kind == workload.SocialPost {
						fanoutSum += len(op.Followers)
						posts++
					}
					args, _ := json.Marshal(op)
					return tca.SocialOpName(op), args, func() { audit.RecordOp(op) }
				},
				verify: audit.Verify,
			}.run(modelOf(row), seed, ops)
			if err == nil && posts > 0 {
				s.Metrics["fanout_post"] = float64(fanoutSum) / float64(posts)
			}
			return s, err
		},
	}
}
