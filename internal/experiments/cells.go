package experiments

import (
	"fmt"
	"os"
	"time"

	"tca"
	"tca/internal/grid"
)

// The experiments that drive whole cells under concurrent load through
// the shared harnesses tca.RunCell and tca.RunGeoCell.

// loadMixes are the workloads the concurrency matrices sweep: TPC-C
// (non-commutative stock writes) and social (fully commutative).
var loadMixes = []string{"tpcc", "social"}

// loadRows is the closed-loop sweep E20 and E21 share: mix × client count
// × model, every row declaring the audit knob -audit overrides.
func loadRows(mixes []string, ms []tca.ProgrammingModel) (rows []grid.Row) {
	for _, mix := range mixes {
		for _, clients := range []int{1, 4, 16, 64} {
			for _, m := range ms {
				rows = append(rows, grid.NewRow(fmt.Sprintf("%s/%s/clients=%d", mix, m, clients),
					"mix", mix, "model", m.String(), "clients", fmt.Sprint(clients), "audit", "live"))
			}
		}
	}
	return rows
}

// auditColumns are the live auditor's verdict columns.
var auditColumns = []string{"anomalies", "violations", "reordered", "graph_cycles"}

// addVerdict reports an audited run's verdict under auditColumns' keys.
func addVerdict(metrics map[string]float64, r tca.CellResult) {
	metrics["anomalies"] = float64(len(r.Anomalies))
	metrics["violations"] = float64(r.Violations)
	metrics["reordered"] = float64(r.Reordered)
	metrics["graph_cycles"] = float64(r.GraphCycles)
}

// e20 is the concurrency matrix: all five cells driven through pipelined
// Sessions by a closed loop at rising client counts, the deterministic
// cell on a real temp-dir write-ahead log, audited live. Pipelined
// submission separates the two events a blocking Invoke conflates —
// accept (a pool slot, a durable group append, an ingress produce) and
// apply. -audit=off drops the auditor and the verdict columns.
func e20() Experiment {
	return Experiment{
		Spec:    grid.Spec{Experiment: "e20", List: loadRows(loadMixes, models), ThroughputKey: "tx_s", AcceptKey: "accept_p99_us", ApplyKey: "apply_p99_us"},
		Title:   "concurrency matrix — pipelined Sessions, accept vs apply latency, audited live",
		Columns: append([]string{"tx_s", "accept_p50_us", "accept_p99_us", "apply_p50_us", "apply_p99_us", "rejected"}, auditColumns...),
		Run: func(row grid.Row, seed int64, ops int) (grid.Sample, error) {
			// seed-1: the first repeat at the default base seed reproduces
			// the historical client streams.
			r, err := tca.RunCell(row.Knob("mix"), modelOf(row), ops, tca.CellOptions{
				Clients: row.Int("clients"), Audit: row.Knob("audit") == "live", LogDir: os.TempDir(), Seed: seed - 1,
			})
			if err != nil {
				return grid.Sample{}, err
			}
			metrics := map[string]float64{
				"tx_s":          r.Throughput(),
				"accept_p50_us": us(r.AcceptP50),
				"apply_p50_us":  us(r.ApplyP50),
				"rejected":      float64(r.Shed + r.Failed),
			}
			if r.Audited {
				addVerdict(metrics, r)
			}
			return grid.Sample{Metrics: metrics, Accept: r.AcceptSamples, Apply: r.ApplySamples}, nil
		},
	}
}

// e21 prices the online auditing layer: every registered mix on the two
// log-based cells, the two ends of the consistency spectrum — the
// isolated deterministic core (the audit should confirm exactness) and
// the unisolated dataflow cell (it should attribute the drift). Each row
// runs twice, auditing off then on, so the overhead is a measured column,
// not a claim. With -audit=off only the baseline runs.
func e21() Experiment {
	rows := loadRows(tca.Mixes(), []tca.ProgrammingModel{tca.Deterministic, tca.StatefulDataflow})
	return Experiment{
		Spec:    grid.Spec{Experiment: "e21", List: rows, ThroughputKey: "tx_s_audited"},
		Title:   "live-audit overhead — incremental auditors inside the concurrency loop",
		Columns: append([]string{"tx_s_audited", "tx_s_off", "audit_overhead_pct"}, auditColumns...),
		Run: func(row grid.Row, seed int64, ops int) (grid.Sample, error) {
			opts := tca.CellOptions{Clients: row.Int("clients"), Seed: seed - 1}
			off, err := tca.RunCell(row.Knob("mix"), modelOf(row), ops, opts)
			if err != nil {
				return grid.Sample{}, err
			}
			metrics := map[string]float64{"tx_s_off": off.Throughput()}
			if row.Knob("audit") == "live" {
				opts.Audit = true
				on, err := tca.RunCell(row.Knob("mix"), modelOf(row), ops, opts)
				if err != nil {
					return grid.Sample{}, err
				}
				metrics["tx_s_audited"] = on.Throughput()
				if off.Throughput() > 0 {
					metrics["audit_overhead_pct"] = 100 * (1 - on.Throughput()/off.Throughput())
				}
				addVerdict(metrics, on)
			}
			return grid.Sample{Metrics: metrics}, nil
		},
	}
}

// e23 is the overload frontier: every cell offered an open-loop stream
// (Poisson, or bursty MMPP with -arrival=bursty) at multiples of its
// measured closed-loop capacity, with bounded admission control on and
// off. shed-% is the admission verdict rate — near zero below capacity,
// climbing toward (1 − 1/mult) past it. The gate row offers a fixed
// 2000/s instead, well below the microservices cell's capacity, so
// goodput tracks the offered rate.
func e23() Experiment {
	var rows []grid.Row
	for _, mix := range loadMixes {
		for _, m := range models {
			for _, shed := range []string{"on", "off"} {
				for _, mult := range []float64{0.5, 1, 2, 4} {
					rows = append(rows, grid.NewRow(fmt.Sprintf("%s/%s/shed=%t/offered=%gx", mix, m, shed == "on", mult),
						"mix", mix, "model", m.String(), "shed", shed, "offered", fmt.Sprint(mult), "arrival", "poisson"))
				}
			}
		}
	}
	rows = append(rows, gate("mix", "tpcc", "model", "microservices", "shed", "on", "rate", "2000"))
	// capacity caches each (mix, model) cell's measured closed-loop peak —
	// 16 pipelined clients, auditing off, the deterministic cell on a real
	// temp-dir log — so the sweep's rows all offer multiples of the same
	// calibration: re-measuring per row would let calibration noise move
	// the x-axis between shed=on and shed=off. It is the one piece of
	// state that outlives a Run call, and it is calibration, not
	// measurement.
	capacity := map[string]float64{}
	return Experiment{
		Spec:    grid.Spec{Experiment: "e23", List: rows, ThroughputKey: "goodput_s", AcceptKey: "accept_p99_us", ApplyKey: "apply_p99_us"},
		Title:   "overload frontier — open-loop arrivals at multiples of measured capacity, shedding on vs off",
		Columns: []string{"offered_s", "goodput_s", "shed_pct", "accept_p999_us", "apply_p999_us"},
		Run: func(row grid.Row, seed int64, ops int) (grid.Sample, error) {
			mix, model := row.Knob("mix"), modelOf(row)
			rate := row.Float("rate")
			if rate > 0 {
				// A fixed rate sizes the run by time: ops/4 arrivals is an
				// experiment-sized run on any host fast enough to run the
				// suite at all.
				ops = ops/4 + 1
			} else {
				key := mix + "/" + model.String()
				if capacity[key] == 0 {
					r, err := tca.RunCell(mix, model, 400, tca.CellOptions{Clients: 16, LogDir: os.TempDir()})
					if err != nil {
						return grid.Sample{}, err
					}
					if r.Throughput() <= 0 {
						return grid.Sample{}, fmt.Errorf("measured non-positive capacity for %s", key)
					}
					capacity[key] = r.Throughput()
				}
				rate = capacity[key] * row.Float("offered")
			}
			r, err := tca.RunCell(mix, model, ops, tca.CellOptions{
				Rate: rate, Arrival: row.Knob("arrival"), Shed: row.Knob("shed") == "on", LogDir: os.TempDir(), Seed: seed,
			})
			if err != nil {
				return grid.Sample{}, err
			}
			return grid.Sample{Metrics: map[string]float64{
				"offered_s":      rate,
				"goodput_s":      r.Throughput(),
				"shed_pct":       100 * float64(r.Shed) / float64(r.Issued),
				"accept_p999_us": us(r.AcceptP999),
				"apply_p999_us":  us(r.ApplyP999),
			}, Accept: r.AcceptSamples, Apply: r.ApplySamples}, nil
		},
	}
}

// e24 is the geo frontier: the marketplace as a replica group across
// regions × WAN × read mode, async (eventual cells, local commit +
// background shipping) vs sequenced (deterministic cores, every region
// following the home region's input log). Latencies are modeled (fabric
// trace) time. A row that audits an anomaly or fails to converge exactly
// is a failed row. The gate row paces a 2-region async group at a fixed
// sub-capacity 500/s; its gated read p99 is fabric-trace time, not
// wall-clock.
func e24() Experiment {
	var rows []grid.Row
	for _, mode := range []tca.ReplicationMode{tca.AsyncReplication, tca.SequencedReplication} {
		for _, regions := range []int{1, 2, 3} {
			for _, wan := range []time.Duration{20 * time.Millisecond, 80 * time.Millisecond} {
				for _, read := range []tca.ReadMode{tca.ReadLocal, tca.ReadHome} {
					// One region has no WAN and home == local: keep one row.
					if regions == 1 && (wan != 20*time.Millisecond || read != tca.ReadLocal) {
						continue
					}
					rows = append(rows, grid.NewRow(fmt.Sprintf("%v/r=%d/wan=%v/read=%v", mode, regions, wan, read),
						"mode", mode.String(), "regions", fmt.Sprint(regions), "wan", wan.String(), "read", read.String()))
				}
			}
		}
	}
	rows = append(rows, gate("mode", "async", "regions", "2", "wan", "20ms", "read", "local", "rate", "500"))
	return Experiment{
		Spec:  grid.Spec{Experiment: "e24", List: rows, ThroughputKey: "tx_s", AcceptKey: "read_p99_us"},
		Title: "geo frontier — local-read staleness vs cross-region commit cost",
		Columns: []string{
			"tx_s", "read_p50_us", "read_p99_us", "write_p50_us", "write_p99_us",
			"max_lag_ms", "lag_txns", "shipped_writes", "anomalies",
		},
		Run: func(row grid.Row, seed int64, ops int) (grid.Sample, error) {
			wan, err := time.ParseDuration(row.Knob("wan"))
			if err != nil {
				return grid.Sample{}, err
			}
			cfg := tca.GeoConfig{Regions: row.Int("regions"), WAN: wan, Rate: row.Float("rate"), Ops: ops, Seed: seed}
			if row.Knob("mode") == tca.SequencedReplication.String() {
				cfg.Mode = tca.SequencedReplication
			}
			if row.Knob("read") == tca.ReadHome.String() {
				cfg.Read = tca.ReadHome
			}
			if cfg.Rate > 0 {
				cfg.Ops = ops/8 + 1 // a fixed rate sizes the run by time, as in E23
			}
			r, err := tca.RunGeoCell(cfg)
			if err != nil {
				return grid.Sample{}, err
			}
			if n := len(r.Anomalies); n > 0 {
				return grid.Sample{}, fmt.Errorf("audited %d anomalies (first: %s)", n, r.Anomalies[0])
			}
			if !r.Converged {
				return grid.Sample{}, fmt.Errorf("replicas diverged on %d keys (first: %s)", len(r.Diverged), r.Diverged[0])
			}
			return grid.Sample{Metrics: map[string]float64{
				"tx_s":           float64(r.Issued-r.Rejected) / r.Elapsed.Seconds(),
				"read_p50_us":    us(r.ReadP50),
				"write_p50_us":   us(r.WriteP50),
				"write_p99_us":   us(r.WriteP99),
				"max_lag_ms":     float64(r.Staleness.MaxLag) / 1e6,
				"lag_txns":       float64(r.Staleness.MaxLagTxns),
				"shipped_writes": float64(r.Staleness.ShippedWrites),
				"anomalies":      0,
			}, Accept: r.ReadSamples}, nil
		},
	}
}
