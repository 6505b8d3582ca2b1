// Benchmarks regenerating every experiment in EXPERIMENTS.md. The paper
// (a tutorial) has no tables; Figure 1 and each comparative claim in the
// text define the experiments, and EXPERIMENTS.md is their index.
//
// F1, E6, E10 and E16–E24 are views over the experiment registry
// (internal/experiments): each registry row is one sub-benchmark, run
// with ops = b.N through the same function cmd/tcabench runs, reporting
// the metrics the registry entry declares. E1, E2, E4, E5 and E7–E9 are
// written here, once; EXPERIMENTS.md points the retired E3 and E11–E14 at
// the registry experiments that now carry their claims. The file is an
// external test package because the registry imports tca.
//
// Custom metrics reported alongside ns/op by the benchmarks below:
//
//	sim-us/op    simulated end-to-end latency (fabric hops, cold starts)
//	anomalies    consistency violations observed during the bench
package tca_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"tca"
	"tca/internal/actor"
	"tca/internal/dataflow"
	"tca/internal/dedup"
	"tca/internal/experiments"
	"tca/internal/fabric"
	"tca/internal/grid"
	"tca/internal/mq"
	"tca/internal/rpc"
	"tca/internal/store"
	"tca/internal/workload"
)

// --- the registry experiments ----------------------------------------------------

// benchExperiment runs one registry entry's table rows as sub-benchmarks
// named by row key: one sample per sub-benchmark at ops = b.N under the
// default seed, rendered through the same summary row as tcabench -json
// and reported column by column.
func benchExperiment(b *testing.B, id string) {
	for _, e := range experiments.All() {
		if e.Experiment != id {
			continue
		}
		for _, row := range e.Rows(false) {
			b.Run(row.Name(), func(b *testing.B) {
				spec := e.Spec
				spec.Ops, spec.List = b.N, []grid.Row{row}
				res := grid.Run(spec, e.Run, nil)[0]
				if res.Err != nil {
					b.Fatal(res.Err)
				}
				metrics := res.BenchRow(spec).Metrics
				for _, key := range e.Columns {
					if v, ok := metrics[key]; ok {
						b.ReportMetric(v, experiments.Unit(key))
					}
				}
			})
		}
	}
}

func BenchmarkF1_TaxonomyMatrix(b *testing.B)        { benchExperiment(b, "f1") }
func BenchmarkE6_ColdStart(b *testing.B)             { benchExperiment(b, "e6") }
func BenchmarkE10_OpenVsClosedLoop(b *testing.B)     { benchExperiment(b, "e10") }
func BenchmarkE16_CorePartitionScaling(b *testing.B) { benchExperiment(b, "e16") }
func BenchmarkE17_TPCCMatrix(b *testing.B)           { benchExperiment(b, "e17") }
func BenchmarkE18_MarketplaceMatrix(b *testing.B)    { benchExperiment(b, "e18") }
func BenchmarkE19_SocialMatrix(b *testing.B)         { benchExperiment(b, "e19") }
func BenchmarkE20_ConcurrencyMatrix(b *testing.B)    { benchExperiment(b, "e20") }
func BenchmarkE21_LiveAuditOverhead(b *testing.B)    { benchExperiment(b, "e21") }
func BenchmarkE22_DurabilityFrontier(b *testing.B)   { benchExperiment(b, "e22") }
func BenchmarkE23_OverloadFrontier(b *testing.B)     { benchExperiment(b, "e23") }
func BenchmarkE24_GeoFrontier(b *testing.B)          { benchExperiment(b, "e24") }

// --- E1: actor transactions vs plain actor calls --------------------------------

func BenchmarkE1_ActorTxnOverhead(b *testing.B) {
	for _, accounts := range []int{64, 4} { // low vs high contention
		env := tca.NewEnv(1, 3)
		sys := actor.NewSystem(env.Cluster, actor.Config{})
		defer sys.Stop()
		sys.Register("plain", func(ref actor.Ref) actor.Behavior {
			bal := int64(0)
			return actor.BehaviorFunc(func(ctx *actor.Ctx, msg actor.Message) ([]byte, error) {
				bal++
				return nil, nil
			})
		})
		coord := actor.NewCoordinator(sys)
		for a := 0; a < accounts; a++ {
			ref := actor.Ref{Type: "acc", ID: fmt.Sprintf("%d", a)}
			coord.Run(nil, func(t *actor.ActorTxn) error { return t.Write(ref, store.Row{"balance": int64(1 << 40)}) })
		}
		gen := workload.NewBank(3, accounts, 0)

		b.Run(fmt.Sprintf("plain-call/accounts=%d", accounts), func(b *testing.B) {
			var sim int64
			for i := 0; i < b.N; i++ {
				tr := fabric.NewTrace()
				sys.Ask(actor.Ref{Type: "plain", ID: fmt.Sprintf("%d", i%accounts)}, "inc", nil, tr)
				sim += int64(tr.Total())
			}
			b.ReportMetric(float64(sim)/float64(b.N)/1e3, "sim-us/op")
		})
		b.Run(fmt.Sprintf("transaction/accounts=%d", accounts), func(b *testing.B) {
			var sim int64
			for i := 0; i < b.N; i++ {
				op := gen.Next()
				tr := fabric.NewTrace()
				coord.Run(tr, func(t *actor.ActorTxn) error {
					from := actor.Ref{Type: "acc", ID: fmt.Sprintf("%d", op.From)}
					to := actor.Ref{Type: "acc", ID: fmt.Sprintf("%d", op.To)}
					f, _, err := t.Read(from)
					if err != nil {
						return err
					}
					g, _, err := t.Read(to)
					if err != nil {
						return err
					}
					if err := t.Write(from, store.Row{"balance": f.Int("balance") - op.Amount}); err != nil {
						return err
					}
					return t.Write(to, store.Row{"balance": g.Int("balance") + op.Amount})
				})
				sim += int64(tr.Total())
			}
			b.ReportMetric(float64(sim)/float64(b.N)/1e3, "sim-us/op")
		})
	}
}

// --- E2: delivery guarantees ------------------------------------------------------

func BenchmarkE2_DeliveryGuarantees(b *testing.B) {
	type variant struct {
		name string
		mode mq.DeliveryMode
		dup  bool // inject duplicate batches
		ded  bool // consumer-side dedup
	}
	variants := []variant{
		{"at-most-once", mq.AtMostOnce, false, false},
		{"at-least-once-raw", mq.AtLeastOnce, true, false},
		{"at-least-once-dedup", mq.AtLeastOnce, true, true},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			broker := mq.NewBroker()
			if v.dup {
				cfg := fabric.DefaultConfig()
				cfg.DupProb = 0.10
				broker.WithChaos(fabric.NewCluster(cfg, "n"))
			}
			broker.CreateTopic("in", 1)
			p := broker.NewProducer("")
			c, _ := broker.NewConsumer("g", v.mode, "in")
			seen := dedup.New(0)
			applied := map[string]int{}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key := fmt.Sprintf("m-%d", i)
				p.Send("in", key, []byte("x"))
				for {
					msgs, _ := c.Poll(64)
					if msgs == nil {
						break
					}
					if v.mode == mq.AtMostOnce && i%10 == 0 {
						// Simulated consumer crash after Poll: the offset is
						// already committed, so the batch is lost forever.
						continue
					}
					for _, m := range msgs {
						if v.ded {
							seen.Do(m.Key, func() ([]byte, error) {
								applied[m.Key]++
								return nil, nil
							})
						} else {
							applied[m.Key]++
						}
					}
					c.Ack()
				}
			}
			b.StopTimer()
			anomalies := 0
			for _, n := range applied {
				if n != 1 {
					anomalies++
				}
			}
			// at-most-once may also have lost messages entirely.
			if v.mode == mq.AtMostOnce {
				anomalies += b.N - len(applied)
			}
			b.ReportMetric(float64(anomalies), "anomalies")
		})
	}
}

// --- E4: shared vs per-service database ---------------------------------------------

func BenchmarkE4_SharedVsPerServiceDB(b *testing.B) {
	run := func(b *testing.B, shared bool) {
		mk := func(name string) *store.DB {
			return store.NewDB(store.Config{Name: name, MaxConcurrent: 2, ServiceTime: 20 * time.Microsecond})
		}
		victimDB := mk("victim")
		hotDB := victimDB
		if !shared {
			hotDB = mk("hot")
		}
		victimDB.CreateTable("t")
		hotDB.CreateTable("t")
		stop := make(chan struct{})
		defer close(stop)
		// Noisy neighbor: eight hot workers hammering its database.
		for w := 0; w < 8; w++ {
			go func() {
				for {
					select {
					case <-stop:
						return
					default:
					}
					hotDB.Update(func(tx *store.Txn) error {
						return tx.Put("t", "hot", store.Row{"v": int64(1)})
					})
				}
			}()
		}
		lat := int64(0)
		worst := int64(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			victimDB.View(func(tx *store.Txn) error {
				tx.Get("t", "victim")
				return nil
			})
			d := int64(time.Since(t0))
			lat += d
			if d > worst {
				worst = d
			}
		}
		b.ReportMetric(float64(lat)/float64(b.N)/1e3, "victim-us/op")
		b.ReportMetric(float64(worst)/1e3, "victim-max-us")
	}
	b.Run("shared-db", func(b *testing.B) { run(b, true) })
	b.Run("db-per-service", func(b *testing.B) { run(b, false) })
}

// --- E5: embedded vs external state ---------------------------------------------------

// BenchmarkE5_EmbeddedVsExternal runs the same committed-row read twice:
// against a store.DB in the caller's process (embedded state: no network
// hop at all) and through an RPC endpoint in front of that store (external
// state: a request and a reply hop on the fabric).
func BenchmarkE5_EmbeddedVsExternal(b *testing.B) {
	newDB := func() func() []byte {
		db := store.NewDB(store.Config{})
		db.CreateTable("t")
		db.Update(func(tx *store.Txn) error { return tx.Put("t", "k", store.Row{"v": int64(1)}) })
		return func() []byte {
			var out []byte
			db.View(func(tx *store.Txn) error {
				row, _, _ := tx.Get("t", "k")
				out = []byte(fmt.Sprint(row.Int("v")))
				return nil
			})
			return out
		}
	}
	b.Run("embedded-db", func(b *testing.B) {
		get := newDB()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			get()
		}
		b.ReportMetric(0, "sim-us/op")
	})
	b.Run("external-db-rpc", func(b *testing.B) {
		get := newDB()
		cl := fabric.NewCluster(fabric.DefaultConfig(), "app", "db")
		tr := rpc.NewTransport(cl)
		tr.Register("get", "db", func(c *rpc.Call, req []byte) ([]byte, error) { return get(), nil })
		var sim int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			trace := fabric.NewTrace()
			tr.Call("app", "get", nil, trace, rpc.CallOptions{})
			sim += int64(trace.Total())
		}
		b.ReportMetric(float64(sim)/float64(b.N)/1e3, "sim-us/op")
	})
}

// --- E7: exactly-once is not isolation ------------------------------------------------------

func BenchmarkE7_IsolationAnomalies(b *testing.B) {
	b.Run("statefun-no-isolation", func(b *testing.B) {
		env := tca.NewEnv(1, 3)
		bank, err := tca.NewBank(tca.StatefulDataflow, env)
		if err != nil {
			b.Fatal(err)
		}
		defer bank.Close()
		bank.Deposit(0, 1_000_000)
		bank.Deposit(1, 1_000_000)
		var anomalies int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bank.Transfer(fmt.Sprintf("t%d", i), 0, 1, 10, nil)
			// Observer audits mid-flight: with no isolation, totals off.
			b0, _ := balanceNoSettle(bank, 0)
			b1, _ := balanceNoSettle(bank, 1)
			if b0+b1 != 2_000_000 {
				anomalies++
			}
			bank.Settle()
		}
		b.ReportMetric(float64(anomalies), "anomalies")
	})
	b.Run("core-serializable", func(b *testing.B) {
		env := tca.NewEnv(1, 3)
		bank, err := tca.NewBank(tca.Deterministic, env)
		if err != nil {
			b.Fatal(err)
		}
		defer bank.Close()
		bank.Deposit(0, 1_000_000)
		bank.Deposit(1, 1_000_000)
		var anomalies int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := bank.Transfer(fmt.Sprintf("t%d", i), 0, 1, 10, nil); err != nil {
				b.Fatal(err)
			}
			b0, _ := bank.Balance(0)
			b1, _ := bank.Balance(1)
			if b0+b1 != 2_000_000 {
				anomalies++
			}
		}
		b.ReportMetric(float64(anomalies), "anomalies")
	})
}

// balanceNoSettle peeks at a statefun balance without waiting for
// quiescence (the dirty-read an external observer performs).
func balanceNoSettle(bank tca.Bank, account int) (int64, error) {
	type peeker interface{ PeekBalance(int) int64 }
	if p, ok := bank.(peeker); ok {
		return p.PeekBalance(account), nil
	}
	return bank.Balance(account)
}

// --- E8: checkpoint + recovery cost vs state size --------------------------------------------

func BenchmarkE8_CheckpointRecovery(b *testing.B) {
	for _, keys := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			broker := mq.NewBroker()
			broker.CreateTopic("in", 2)
			j := dataflow.NewJob(broker, dataflow.Config{Name: "ck"}).
				Source("in").
				Stage("acc", 2, func(ctx *dataflow.OpCtx, rec dataflow.Record) {
					ctx.State().Put(rec.Key, rec.Value)
				}).
				Sink(func(dataflow.Record) {})
			if err := j.Start(); err != nil {
				b.Fatal(err)
			}
			defer j.Stop()
			p := broker.NewProducer("")
			for i := 0; i < keys; i++ {
				p.Send("in", fmt.Sprintf("k%d", i), []byte("valuevaluevalue"))
			}
			if err := j.WaitIdle(30 * time.Second); err != nil {
				b.Fatal(err)
			}
			var ckNanos, recNanos int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				if _, err := j.TriggerCheckpoint(); err != nil {
					b.Fatal(err)
				}
				ckNanos += int64(time.Since(t0))
				j.Crash()
				t1 := time.Now()
				if err := j.Recover(); err != nil {
					b.Fatal(err)
				}
				if err := j.WaitIdle(30 * time.Second); err != nil {
					b.Fatal(err)
				}
				recNanos += int64(time.Since(t1))
			}
			b.ReportMetric(float64(ckNanos)/float64(b.N)/1e6, "checkpoint-ms")
			b.ReportMetric(float64(recNanos)/float64(b.N)/1e6, "recovery-ms")
		})
	}
}

// --- E9: idempotency-key overhead --------------------------------------------------------------

func BenchmarkE9_IdempotencyOverhead(b *testing.B) {
	for _, dup := range []float64{0, 0.10, 0.20} {
		for _, useKeys := range []bool{false, true} {
			name := fmt.Sprintf("dup=%.0f%%/keys=%v", dup*100, useKeys)
			b.Run(name, func(b *testing.B) {
				cfg := fabric.DefaultConfig()
				cfg.DupProb = dup
				cl := fabric.NewCluster(cfg, "c", "s")
				tr := rpc.NewTransport(cl)
				var effects atomic.Int64
				h := func(c *rpc.Call, req []byte) ([]byte, error) {
					effects.Add(1)
					return nil, nil
				}
				if useKeys {
					tr.Register("op", "s", rpc.WithIdempotency(dedup.New(0), h))
				} else {
					tr.Register("op", "s", h)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					opts := rpc.CallOptions{Retries: 2, RetryBackoff: time.Millisecond}
					if useKeys {
						opts.IdempotencyKey = fmt.Sprintf("k%d", i)
					}
					tr.Call("c", "op", nil, nil, opts)
				}
				b.StopTimer()
				over := effects.Load() - int64(b.N)
				if over < 0 {
					over = 0
				}
				b.ReportMetric(float64(over), "duplicate-effects")
			})
		}
	}
}
