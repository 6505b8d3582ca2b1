package experiments

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tca"
	"tca/internal/actor"
	"tca/internal/dedup"
	"tca/internal/fabric"
	"tca/internal/grid"
	"tca/internal/mq"
	"tca/internal/rpc"
	"tca/internal/statefun"
	"tca/internal/store"
	"tca/internal/workload"
)

// The experiments that each isolate one mechanism the paper argues about:
// an actor transaction against a plain call (E1), a delivery guarantee
// (E2), a shared database (E4), where state lives (E5), a cell's
// isolation (E7), a checkpoint's size (E8) and an idempotency key (E9).

// cluster is a seeded fabric of nodes that duplicates each message with probability dup.
func cluster(seed int64, dup float64, nodes ...fabric.NodeID) *fabric.Cluster {
	cfg := fabric.DefaultConfig()
	cfg.Seed, cfg.DupProb = seed, dup
	return fabric.NewCluster(cfg, nodes...)
}

// timeOps runs op for i in [0, ops), each under a fresh fabric trace, and
// returns the real and simulated microseconds per op: real_us_op, sim_us_op.
func timeOps(ops int, op func(i int, tr *fabric.Trace) error) (map[string]float64, error) {
	var sim time.Duration
	start := time.Now()
	for i := 0; i < ops; i++ {
		tr := fabric.NewTrace()
		if err := op(i, tr); err != nil {
			return nil, err
		}
		sim += tr.Total()
	}
	return map[string]float64{"real_us_op": us(time.Since(start)) / float64(ops), "sim_us_op": us(sim) / float64(ops)}, nil
}

// e1 prices actor transactions (2PL + 2PC) over plain actor calls, at low
// (64 accounts) and high (4 accounts) contention.
func e1() Experiment {
	var rows []grid.Row
	for _, n := range []string{"64", "4"} {
		rows = append(rows, grid.NewRow("plain-call/accounts="+n, "accounts", n), grid.NewRow("transaction/accounts="+n, "accounts", n, "txn", "true"))
	}
	return Experiment{
		Spec:    grid.Spec{Experiment: "e1", List: rows},
		Title:   "actor transactions vs plain actor calls — cost per op",
		Columns: []string{"real_us_op", "sim_us_op"},
		Run: func(row grid.Row, seed int64, ops int) (grid.Sample, error) {
			accounts := row.Int("accounts")
			sys := actor.NewSystem(tca.NewEnv(seed, 3).Cluster, actor.Config{})
			defer sys.Stop()
			sys.Register("plain", func(actor.Ref) actor.Behavior {
				return actor.BehaviorFunc(func(*actor.Ctx, actor.Message) ([]byte, error) { return nil, nil })
			})
			op := func(i int, tr *fabric.Trace) error {
				_, err := sys.Ask(actor.Ref{Type: "plain", ID: strconv.Itoa(i % accounts)}, "inc", nil, tr)
				return err
			}
			// Activate the plain actors untimed; seeding activates the accounts.
			if _, err := timeOps(accounts, op); err != nil {
				return grid.Sample{}, err
			}
			if row.Knob("txn") == "true" {
				acc := func(n int) actor.Ref { return actor.Ref{Type: "acc", ID: strconv.Itoa(n)} }
				coord := actor.NewCoordinator(sys)
				for a := 0; a < accounts; a++ {
					if err := coord.Run(nil, func(t *actor.ActorTxn) error {
						return t.Write(acc(a), store.Row{"balance": int64(1 << 40)})
					}); err != nil {
						return grid.Sample{}, err
					}
				}
				gen := workload.NewBank(2+seed, accounts, 0) // seed 1 is the historical stream
				op = func(_ int, tr *fabric.Trace) error {
					o := gen.Next()
					from, to := acc(o.From), acc(o.To)
					return coord.Run(tr, func(t *actor.ActorTxn) error {
						f, _, err := t.Read(from)
						if err != nil {
							return err
						}
						g, _, err := t.Read(to)
						if err != nil {
							return err
						}
						if err := t.Write(from, store.Row{"balance": f.Int("balance") - o.Amount}); err != nil {
							return err
						}
						return t.Write(to, store.Row{"balance": g.Int("balance") + o.Amount})
					})
				}
			}
			metrics, err := timeOps(ops, op)
			return grid.Sample{Metrics: metrics}, err
		},
	}
}

// e2 compares delivery guarantees (§3.2): at-most-once loses the batches
// a consumer crashes on (every tenth poll), at-least-once under 10%
// duplicated batches applies some messages twice, and consumer-side dedup
// turns the duplicates back into exactly-once. anomalies counts messages
// not applied exactly once.
func e2() Experiment {
	return Experiment{
		Spec: grid.Spec{Experiment: "e2", List: []grid.Row{
			grid.NewRow("at-most-once"), grid.NewRow("at-least-once-raw"), grid.NewRow("at-least-once-dedup"),
		}},
		Title:   "delivery guarantees — messages not applied exactly once",
		Columns: []string{"real_us_op", "anomalies"},
		Run: func(row grid.Row, seed int64, ops int) (grid.Sample, error) {
			broker, mode := mq.NewBroker(), mq.AtLeastOnce
			if row.Label == "at-most-once" {
				mode = mq.AtMostOnce
			} else {
				broker.WithChaos(cluster(seed, 0.10, "n"))
			}
			broker.CreateTopic("in", 1)
			p := broker.NewProducer("")
			c, _ := broker.NewConsumer("g", mode, "in") // fails only on a missing topic
			seen, applied := dedup.New(0), map[string]int{}
			apply := func(key string) { applied[key]++ }
			if row.Label == "at-least-once-dedup" {
				apply = func(key string) { seen.Do(key, func() ([]byte, error) { applied[key]++; return nil, nil }) }
			}
			metrics, err := timeOps(ops, func(i int, _ *fabric.Trace) error {
				if _, _, err := p.Send("in", fmt.Sprintf("m-%d", i), []byte("x")); err != nil {
					return err
				}
				for {
					msgs, err := c.Poll(64)
					if msgs == nil || err != nil {
						return err
					}
					if mode == mq.AtMostOnce && i%10 == 0 {
						continue // the consumer crashed after Poll committed the offset
					}
					for _, m := range msgs {
						apply(m.Key)
					}
					c.Ack()
				}
			})
			anomalies := ops - len(applied) // lost outright
			for _, n := range applied {
				if n != 1 {
					anomalies++
				}
			}
			return grid.Sample{Metrics: map[string]float64{"real_us_op": metrics["real_us_op"], "anomalies": float64(anomalies)}}, err
		},
	}
}

// e4 is the noisy-neighbor argument for database-per-service: a victim's
// point reads while eight workers hammer a database that is either the
// victim's own (shared-db) or a separate one (db-per-service).
func e4() Experiment {
	return Experiment{
		Spec:    grid.Spec{Experiment: "e4", List: []grid.Row{grid.NewRow("shared-db"), grid.NewRow("db-per-service")}},
		Title:   "shared vs per-service database — victim read latency beside a hot neighbor",
		Columns: []string{"victim_us_op", "victim_max_us"},
		Run: func(row grid.Row, seed int64, ops int) (grid.Sample, error) {
			mk := func(name string) *store.DB {
				db := store.NewDB(store.Config{Name: name, MaxConcurrent: 2, ServiceTime: 20 * time.Microsecond})
				db.CreateTable("t")
				return db
			}
			victim := mk("victim")
			hot := victim
			if row.Label == "db-per-service" {
				hot = mk("hot")
			}
			var stop atomic.Bool
			var wg sync.WaitGroup
			defer func() { stop.Store(true); wg.Wait() }()
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for !stop.Load() {
						// A write that exhausts its conflict retries was load all the same.
						_ = hot.Update(func(tx *store.Txn) error { return tx.Put("t", "hot", store.Row{"v": int64(1)}) })
					}
				}()
			}
			var total, worst time.Duration
			for i := 0; i < ops; i++ {
				t0 := time.Now()
				err := victim.View(func(tx *store.Txn) error { _, _, err := tx.Get("t", "victim"); return err })
				d := time.Since(t0)
				if err != nil {
					return grid.Sample{}, err
				}
				total, worst = total+d, max(worst, d)
			}
			return grid.Sample{Metrics: map[string]float64{"victim_us_op": us(total) / float64(ops), "victim_max_us": us(worst)}}, nil
		},
	}
}

// e5 reads the same committed row of a store.DB in the caller's process
// (embedded state: no network hop at all) and through an RPC endpoint in
// front of that store (external state: a request and a reply hop on the
// fabric), §3.3.
func e5() Experiment {
	return Experiment{
		Spec:    grid.Spec{Experiment: "e5", List: []grid.Row{grid.NewRow("embedded-db"), grid.NewRow("external-db-rpc")}},
		Title:   "embedded vs external state — one committed-row read",
		Columns: []string{"real_us_op", "sim_us_op"},
		Run: func(row grid.Row, seed int64, ops int) (grid.Sample, error) {
			db := store.NewDB(store.Config{})
			db.CreateTable("t")
			db.Update(func(tx *store.Txn) error { return tx.Put("t", "k", store.Row{"v": int64(1)}) })
			get := func() ([]byte, error) {
				var r store.Row
				err := db.View(func(tx *store.Txn) (err error) { r, _, err = tx.Get("t", "k"); return err })
				return fmt.Append(nil, r.Int("v")), err
			}
			op := func(int, *fabric.Trace) error { _, err := get(); return err }
			if row.Label == "external-db-rpc" {
				tr := rpc.NewTransport(cluster(seed, 0, "app", "db"))
				tr.Register("get", "db", func(*rpc.Call, []byte) ([]byte, error) { return get() })
				op = func(_ int, trace *fabric.Trace) error {
					_, err := tr.Call("app", "get", nil, trace, rpc.CallOptions{})
					return err
				}
			}
			metrics, err := timeOps(ops, op)
			return grid.Sample{Metrics: metrics}, err
		},
	}
}

// e7 shows that exactly-once processing is not isolation (§4.2): an
// observer reads both balances of a two-account bank after every transfer
// through tca.Peek, without settling, and counts the reads whose total is
// off. The observer peeks only once Invoke has resolved, so on the
// dataflow cell it sees finished transfers and the row reads 0.
func e7() Experiment {
	return Experiment{
		Spec: grid.Spec{Experiment: "e7", List: []grid.Row{
			grid.NewRow("statefun-no-isolation", "model", tca.StatefulDataflow.String()),
			grid.NewRow("core-serializable", "model", tca.Deterministic.String()),
		}},
		Title:   "exactly-once is not isolation — an observer's unsettled reads of a transfer",
		Columns: []string{"anomalies"},
		Run: func(row grid.Row, seed int64, ops int) (grid.Sample, error) {
			cell, err := tca.DeployWith(modelOf(row), tca.BankApp(), tca.NewEnv(seed, 3), tca.Options{})
			if err != nil {
				return grid.Sample{}, err
			}
			defer cell.Close()
			const total = 2_000_000
			if _, err := cell.Invoke("deposit", "deposit", fmt.Appendf(nil, `{"account":0,"amount":%d}`, total), nil); err != nil {
				return grid.Sample{}, err
			}
			peek := func(key string) int64 { raw, _ := tca.Peek(cell, key); return tca.DecodeInt(raw) }
			anomalies := 0
			for i := 0; i < ops; i++ {
				if err := cell.Settle(); err != nil {
					return grid.Sample{}, err
				}
				if _, err := cell.Invoke(fmt.Sprintf("t%d", i), "transfer", []byte(`{"from":0,"to":1,"amount":10}`), nil); err != nil {
					return grid.Sample{}, err
				}
				if peek("acct/0")+peek("acct/1") != total {
					anomalies++
				}
			}
			return grid.Sample{Metrics: map[string]float64{"anomalies": float64(anomalies)}}, cell.Settle()
		},
	}
}

// e8 is the stateful-functions runtime's checkpoint and recovery cost as
// a function of state size: a 2-partition statefun.App whose one function
// Sets its payload, fed one message per key. Each op is one checkpoint,
// then a crash and a recovery that replays to idle.
func e8() Experiment {
	return Experiment{
		Spec:    grid.Spec{Experiment: "e8", Axes: []grid.Axis{{Name: "keys", Values: []string{"1000", "10000", "100000"}}}},
		Title:   "statefun checkpoint + recovery — cost vs state size",
		Columns: []string{"checkpoint_ms", "recovery_ms"},
		Run: func(row grid.Row, seed int64, ops int) (grid.Sample, error) {
			app := statefun.NewApp(mq.NewBroker(), statefun.Config{Name: "ck", Parallelism: 2, Ingress: "in"})
			app.Register("acc", func(ctx *statefun.Ctx, payload []byte) error { ctx.Set("v", payload); return nil })
			if err := app.Start(); err != nil {
				return grid.Sample{}, err
			}
			defer app.Stop()
			for i := 0; i < row.Int("keys"); i++ {
				if err := app.SendToIngress(statefun.Ref{Type: "acc", ID: fmt.Sprintf("k%d", i)}, []byte("valuevaluevalue")); err != nil {
					return grid.Sample{}, err
				}
			}
			if err := app.WaitIdle(30 * time.Second); err != nil {
				return grid.Sample{}, err
			}
			var checkpoint, recovery time.Duration
			for i := 0; i < ops; i++ {
				t0 := time.Now()
				if _, err := app.TriggerCheckpoint(); err != nil {
					return grid.Sample{}, err
				}
				checkpoint += time.Since(t0)
				app.Crash()
				t1 := time.Now()
				if err := app.Recover(); err != nil {
					return grid.Sample{}, err
				}
				if err := app.WaitIdle(30 * time.Second); err != nil {
					return grid.Sample{}, err
				}
				recovery += time.Since(t1)
			}
			return grid.Sample{Metrics: map[string]float64{"checkpoint_ms": us(checkpoint) / 1e3 / float64(ops), "recovery_ms": us(recovery) / 1e3 / float64(ops)}}, nil
		},
	}
}

// e9 is what idempotency keys cost when the network does not duplicate
// requests, and what they save when it does: duplicate_effects counts
// handler executions beyond one per call.
func e9() Experiment {
	var rows []grid.Row
	for _, dup := range []string{"0", "10", "20"} {
		rows = append(rows, grid.NewRow("dup="+dup+"%/keys=false", "dup", dup), grid.NewRow("dup="+dup+"%/keys=true", "dup", dup, "keys", "true"))
	}
	return Experiment{
		Spec:    grid.Spec{Experiment: "e9", List: rows},
		Title:   "idempotency keys — cost without duplicates, effects saved with them",
		Columns: []string{"real_us_op", "duplicate_effects"},
		Run: func(row grid.Row, seed int64, ops int) (grid.Sample, error) {
			tr, keys := rpc.NewTransport(cluster(seed, row.Float("dup")/100, "c", "s")), row.Knob("keys") == "true"
			effects := 0
			h := func(*rpc.Call, []byte) ([]byte, error) { effects++; return nil, nil }
			if keys {
				h = rpc.WithIdempotency(dedup.New(0), h)
			}
			tr.Register("op", "s", h)
			metrics, err := timeOps(ops, func(i int, trace *fabric.Trace) error {
				opts := rpc.CallOptions{Retries: 2, RetryBackoff: time.Millisecond}
				if keys {
					opts.IdempotencyKey = "k" + strconv.Itoa(i)
				}
				_, err := tr.Call("c", "op", nil, trace, opts)
				return err
			})
			return grid.Sample{Metrics: map[string]float64{"real_us_op": metrics["real_us_op"], "duplicate_effects": float64(max(effects-ops, 0))}}, err
		},
	}
}
