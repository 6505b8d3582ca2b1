package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"tca/internal/core"
	"tca/internal/faas"
	"tca/internal/fabric"
	"tca/internal/grid"
	"tca/internal/mq"
	"tca/internal/workload"
)

// The experiments that drive one substrate directly, below the
// application layer: the FaaS platform (E6), the load drivers themselves
// (E10) and the deterministic core runtime (E16, E22).

// e6 is the cold-start experiment: FaaS cold starts dominate the
// simulated latency tail as eviction pressure rises.
func e6() Experiment {
	return Experiment{
		Spec: grid.Spec{Experiment: "e6", AcceptKey: "sim_p99_us", List: []grid.Row{
			grid.NewRow("always-warm", "evict", "0"),
			grid.NewRow("evict-every-10", "evict", "10"),
			grid.NewRow("evict-every-2", "evict", "2"),
		}},
		Title:   "FaaS cold starts — simulated invocation latency",
		Columns: []string{"sim_p50_us", "sim_p99_us", "cold_starts"},
		Run: func(row grid.Row, seed int64, ops int) (grid.Sample, error) {
			evictEvery := row.Int("evict")
			p := faas.NewPlatform(fabric.SingleNode(), faas.DefaultConfig())
			p.Register("fn", func(ctx *faas.Ctx, payload []byte) ([]byte, error) { return nil, nil })
			sim := workload.NewLatencyReservoir(0, seed)
			for i := 0; i < ops; i++ {
				if evictEvery > 0 && i%evictEvery == 0 {
					p.EvictIdle("fn")
				}
				tr := fabric.NewTrace()
				p.Invoke("fn", "k", nil, tr)
				sim.Record(tr.Total())
			}
			return grid.Sample{Metrics: map[string]float64{
				"sim_p50_us":  us(sim.P50()),
				"cold_starts": float64(p.Metrics().Counter("faas.cold_starts").Value()),
			}, Accept: sim.Samples()}, nil
		},
	}
}

// e10 is the open-vs-closed-loop experiment: closed-loop benchmarks
// self-throttle, open-loop load beyond capacity explodes the tail. The
// service is workload.SpinService(1, 100µs) — one slot × 100µs, capacity
// 10k ops/s by construction — which is what lets all three drivers be
// gate rows. The closed driver has no arrival randomness (its reservoir
// subsamples under a fixed stream); the open drivers seed their Poisson
// schedules per repeat.
func e10() Experiment {
	var rows []grid.Row
	for _, d := range [][2]string{
		{"closed-4", "closed 4 clients"}, {"open-0.5x", "open 0.5x capacity"}, {"open-2x", "open 2x capacity"},
	} {
		rows = append(rows, grid.NewRow(d[1], "driver", d[0]), gate("driver", d[0]))
	}
	return Experiment{
		Spec:    grid.Spec{Experiment: "e10", List: rows, ThroughputKey: "ops_s", AcceptKey: "p99_us"},
		Title:   "open vs closed load models — service capacity 10k ops/s",
		Columns: []string{"ops_s", "p50_us", "p99_us"},
		Run: func(row grid.Row, seed int64, ops int) (grid.Sample, error) {
			service := workload.SpinService(1, 100*time.Microsecond)
			var res workload.DriverResult
			switch row.Knob("driver") {
			case "closed-4":
				res = workload.ClosedLoop(4, ops/4+1, service)
			case "open-0.5x":
				res = workload.OpenLoop(seed, ops, 5000, service)
			default:
				res = workload.OpenLoop(seed, ops, 20000, service)
			}
			return grid.Sample{Metrics: map[string]float64{
				"ops_s":  res.Throughput(),
				"p50_us": us(res.Latency.P50()),
			}, Accept: res.Latency.Samples()}, nil
		},
	}
}

// e16 is the deterministic core's partition-scaling experiment: the same
// touch workload against 1/2/4/8 log partitions at a rising
// cross-partition ratio. Shard-local transactions ride a single log with
// zero coordination; cross-partition ones pay one global-sequencer pass.
// Table rows run on the real write-ahead log (a throwaway temp directory
// per cell): the per-group append+fsync cost is what sharding overlaps.
// The gate rows (mode=model) charge the modeled 80µs append instead, no
// filesystem.
func e16() Experiment {
	var rows []grid.Row
	for _, parts := range []string{"1", "2", "4", "8"} {
		rows = append(rows, grid.NewRow("partitions="+parts, "partitions", parts))
		for _, cross := range []string{"10", "50"} {
			if parts != "1" { // a single partition has no cross-partition transactions
				rows = append(rows, grid.NewRow(fmt.Sprintf("partitions=%s/cross=%s%%", parts, cross), "partitions", parts, "cross", cross))
			}
		}
	}
	rows = append(rows, gate("mode", "model", "partitions", "1"), gate("mode", "model", "partitions", "4"))
	return Experiment{
		Spec:    grid.Spec{Experiment: "e16", List: rows, ThroughputKey: "tx_s", AcceptKey: "accept_p99_us"},
		Title:   "core partition scaling — touch transactions, real WAL per partition",
		Columns: []string{"tx_s", "speedup", "cross_pct", "accept_p99_us"},
		Run:     runE16,
		Derive: func(rows []grid.BenchRow) {
			var base float64
			for _, r := range rows {
				if r.Row == "partitions=1" {
					base = r.Metrics["tx_s"]
				}
			}
			if base <= 0 {
				return // the single-partition row failed or was not run
			}
			for _, r := range rows {
				r.Metrics["speedup"] = r.Metrics["tx_s"] / base
			}
		},
	}
}

func runE16(row grid.Row, seed int64, ops int) (grid.Sample, error) {
	parts, crossPct := row.Int("partitions"), row.Int("cross")
	cfg := core.Config{Name: fmt.Sprintf("bench16-%d", parts), Workers: 16, Partitions: parts}
	if row.Knob("mode") == "model" {
		cfg.SequenceDelay = 80 * time.Microsecond
	} else {
		dir, err := os.MkdirTemp("", "tcabench-e16-")
		if err != nil {
			return grid.Sample{}, err
		}
		defer os.RemoveAll(dir)
		cfg.LogDir = dir
	}
	rt := core.NewRuntime(mq.NewBroker(), cfg)
	rt.Register("touch", func(tx *core.Tx, args []byte) ([]byte, error) {
		key := string(args)
		raw, _, _ := tx.Get(key)
		return nil, tx.Put(key, append(raw[:len(raw):len(raw)], 'x'))
	})
	if err := rt.Start(); err != nil {
		return grid.Sample{}, err
	}
	defer rt.Stop()
	acct := func(a int) string { return fmt.Sprintf("acc/%d", a) }
	// Pre-compute account pairs by home partition: same-partition pairs
	// are the shard-local common case, pairs across neighboring partitions
	// exercise the sequencer.
	const accounts = 256
	groups := make([][]int, parts)
	for a := 0; a < accounts; a++ {
		p := rt.PartitionOf(acct(a))
		groups[p] = append(groups[p], a)
	}
	var same, cross [][2]int
	for _, g := range groups {
		for i := 0; i+1 < len(g); i += 2 {
			same = append(same, [2]int{g[i], g[i+1]})
		}
	}
	for i := 0; parts > 1 && i < accounts/2; i++ {
		ga, gb := groups[i%parts], groups[(i+1)%parts]
		cross = append(cross, [2]int{ga[i%len(ga)], gb[i%len(gb)]})
	}
	start := time.Now()
	accept, err := driveCore(seed, ops, func(i int) error {
		pair := same[i%len(same)]
		if i%100 < crossPct {
			pair = cross[i%len(cross)]
		}
		keys := []string{acct(pair[0]), acct(pair[1])}
		_, err := rt.Submit(fmt.Sprintf("e16-%d-%d-%d", seed, parts, i), "touch", keys, []byte(keys[0]), nil)
		return err
	})
	if err != nil {
		return grid.Sample{}, err
	}
	return grid.Sample{Metrics: map[string]float64{
		"tx_s":      float64(ops) / time.Since(start).Seconds(),
		"cross_pct": 100 * float64(rt.Metrics().Counter("core.cross_commits").Value()) / float64(ops),
	}, Accept: accept}, nil
}

// driveCore submits ops operations to a core runtime from 64 closed-loop
// clients — enough to keep every partition's pipeline full and to let the
// largest group-append cap actually fill (group size is bounded by what
// queues while the previous append's fsync is in flight), so throughput
// is log-bound, not client-bound. It returns the per-submit latency
// reservoir's samples, or the first submit error.
func driveCore(seed int64, ops int, submit func(i int) error) ([]time.Duration, error) {
	const clients = 64
	accept := workload.NewLatencyReservoir(0, seed)
	errs := make(chan error, clients) // one slot per client: none blocks on a failure
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < ops; i += clients {
				t0 := time.Now()
				if err := submit(i); err != nil {
					errs <- err
					return
				}
				accept.Record(time.Since(t0))
			}
		}(c)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return nil, err
	default:
		return accept.Samples(), nil
	}
}

// e22Policies are the fsync policies the durability frontier sweeps, by
// the name their rows carry.
var e22Policies = map[string]core.FsyncPolicy{
	"batch": core.FsyncEveryBatch,
	"1ms":   core.FsyncInterval,
	"none":  core.FsyncNone,
}

// e22 is the durability frontier: the deterministic core on the real
// write-ahead log, sweeping the group-append cap (Config.MaxGroupAppend)
// against the fsync policy. The pipelined submitters share group appends,
// so larger caps divide each fsync across more transactions. fsync=none
// is the page-cache ceiling the durable rows are judged against (the
// acceptance bar: fsync-every-batch within 3x of it at batch >= 64).
// accept-p99 is the 99th-percentile SubmitAsync latency — the tail cost
// of "acknowledged means on disk".
func e22() Experiment {
	return Experiment{
		Spec: grid.Spec{Experiment: "e22", ThroughputKey: "tx_s", AcceptKey: "accept_p99_us", Axes: []grid.Axis{
			{Name: "batch", Values: []string{"1", "8", "64", "256"}},
			{Name: "fsync", Values: []string{"batch", "1ms", "none"}},
		}},
		Title:   "durability frontier — real WAL group appends, batch cap x fsync policy",
		Columns: []string{"tx_s", "accept_p99_us", "records_append"},
		Run: func(row grid.Row, seed int64, ops int) (grid.Sample, error) {
			dir, err := os.MkdirTemp("", "tcabench-e22-")
			if err != nil {
				return grid.Sample{}, err
			}
			defer os.RemoveAll(dir)
			rt := core.NewRuntime(mq.NewBroker(), core.Config{
				Name:           "e22-" + row.Name(),
				Workers:        16,
				LogDir:         dir,
				Fsync:          e22Policies[row.Knob("fsync")],
				MaxGroupAppend: row.Int("batch"),
			})
			rt.Register("deposit", func(tx *core.Tx, args []byte) ([]byte, error) {
				key := string(args)
				var bal int64
				if raw, _, _ := tx.Get(key); raw != nil {
					json.Unmarshal(raw, &bal)
				}
				raw, _ := json.Marshal(bal + 1)
				return nil, tx.Put(key, raw)
			})
			if err := rt.Start(); err != nil {
				return grid.Sample{}, err
			}
			defer rt.Stop()
			const accounts = 64
			start := time.Now()
			accept, err := driveCore(seed, ops, func(i int) error {
				key := fmt.Sprintf("acc/%d", i%accounts)
				_, err := rt.SubmitAsync(fmt.Sprintf("e22-%d", i), "deposit", []string{key}, []byte(key), nil)
				return err
			})
			if err != nil {
				return grid.Sample{}, err
			}
			if err := rt.Quiesce(time.Minute); err != nil {
				return grid.Sample{}, err
			}
			metrics := map[string]float64{"tx_s": float64(ops) / time.Since(start).Seconds(), "records_append": 0}
			if appends := rt.Metrics().Counter("core.wal_group_appends").Value(); appends > 0 {
				metrics["records_append"] = float64(ops) / float64(appends)
			}
			return grid.Sample{Metrics: metrics, Accept: accept}, nil
		},
	}
}
