package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tca"
	"tca/internal/actor"
	"tca/internal/core"
	"tca/internal/dedup"
	"tca/internal/faas"
	"tca/internal/fabric"
	"tca/internal/micro"
	"tca/internal/mq"
	"tca/internal/rpc"
	"tca/internal/saga"
	"tca/internal/statefun"
	"tca/internal/store"
	"tca/internal/wal"
	"tca/internal/workload"
)

// The layers pass: standalone probes of each module's public calls, from
// outside. A probe runs on one goroutine (unless its metric ends _c4 or
// _c8) for a fixed number of calls, discards the first tenth, and reports
// the median; payloads and key sets come from the seeded TPC-C stream.

// probeInput is the seeded TPC-C stream the probes draw payloads from.
type probeInput struct {
	ops  []workload.TPCCOp
	args [][]byte
	keys [][]string
	flat []string // every declared key, in stream order
}

func newProbeInput(seed int64, n int) (*probeInput, error) {
	gen := workload.NewTPCC(streamSeed(seed, 0, 97), workload.DefaultTPCCConfig(warehouses))
	in := &probeInput{}
	for i := 0; i < n; i++ {
		op := gen.Next()
		raw, err := json.Marshal(op)
		if err != nil {
			return nil, err
		}
		in.ops = append(in.ops, op)
		in.args = append(in.args, raw)
		in.keys = append(in.keys, op.Keys())
		in.flat = append(in.flat, op.Keys()...)
	}
	return in, nil
}

func (in *probeInput) arg(i int) []byte { return in.args[i%len(in.args)] }
func (in *probeInput) key(i int) string { return in.flat[i%len(in.flat)] }

// probeTimes runs fn(i) n times in batches, discards the first tenth of
// the batches, and returns the median time of one call in nanoseconds and
// the mean allocations per call over the kept batches. Batching keeps the
// clock reads out of nanosecond-scale calls.
func probeTimes(n, batch int, fn func(i int)) (ns, allocs float64) {
	batches := n / batch
	skip := batches / 10
	durs := make([]int64, 0, batches-skip)
	var m0, m1 runtime.MemStats
	i := 0
	for b := 0; b < batches; b++ {
		if b == skip {
			runtime.ReadMemStats(&m0)
		}
		t0 := time.Now()
		for k := 0; k < batch; k++ {
			fn(i)
			i++
		}
		if b >= skip {
			durs = append(durs, int64(time.Since(t0)))
		}
	}
	runtime.ReadMemStats(&m1)
	sortInt64(durs)
	calls := float64(len(durs) * batch)
	return float64(durs[len(durs)/2]) / float64(batch), float64(m1.Mallocs-m0.Mallocs) / calls
}

// mapTxn is the in-bench tca.Txn the app probes run op bodies over.
type mapTxn map[string][]byte

func (m mapTxn) Get(key string) ([]byte, bool, error) { v, ok := m[key]; return v, ok, nil }
func (m mapTxn) Put(key string, value []byte) error   { m[key] = value; return nil }
func (m mapTxn) Add(key string, delta int64) error {
	m[key] = tca.EncodeInt(tca.DecodeInt(m[key]) + delta)
	return nil
}
func (m mapTxn) PushCap(string, int64, int) error { return errors.New("bench: TPC-C never pushes") }

// probeFailure carries the first error a probe's calls returned, so a
// probe that measured failing calls fails the run. Only the probing
// goroutine notes errors; the concurrent probes count theirs as metrics.
type probeFailure struct{ err error }

func (p *probeFailure) note(what string, err error) {
	if err != nil && p.err == nil {
		p.err = fmt.Errorf("probe %s: %w", what, err)
	}
}

// runProbes runs every layer probe and returns metric name → value.
func runProbes(seed int64) (map[string]float64, error) {
	in, err := newProbeInput(seed, 2048)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	var fail probeFailure
	for _, probe := range []func(*probeInput, map[string]float64, *probeFailure) error{
		probeWorkloadApp, probeFabric, probeWAL, probeMQ, probeCore, probeStore,
		probeActor, probeFaas, probeMicro, probeStatefun,
	} {
		if err := probe(in, out, &fail); err != nil {
			return nil, err
		}
		if fail.err != nil {
			return nil, fail.err
		}
	}
	return out, nil
}

func probeWorkloadApp(in *probeInput, out map[string]float64, fail *probeFailure) error {
	gen := workload.NewTPCC(1, workload.DefaultTPCCConfig(warehouses))
	var sinkOp workload.TPCCOp
	out["workload.next_ns"], _ = probeTimes(40000, 32, func(int) { sinkOp = gen.Next() })
	_ = sinkOp
	var bytes, keys int
	for i := range in.ops {
		bytes += len(in.args[i])
		keys += len(in.keys[i])
	}
	out["workload.args_bytes"] = float64(bytes) / float64(len(in.ops))
	out["workload.keys_per_op"] = float64(keys) / float64(len(in.ops))

	out["app.encode_ns"], _ = probeTimes(20000, 16, func(i int) {
		_, err := json.Marshal(in.ops[i%len(in.ops)])
		fail.note("app.encode", err)
	})
	app := tca.TPCCApp()
	opOf := func(i int) tca.Op {
		op, _ := app.Op(in.ops[i%len(in.ops)].Kind.String())
		return op
	}
	var sinkKeys []string
	out["app.keys_ns"], out["app.keys_allocs"] = probeTimes(20000, 16, func(i int) {
		sinkKeys = opOf(i).Keys(in.arg(i))
	})
	_ = sinkKeys
	state := mapTxn{}
	out["app.body_ns"], out["app.body_allocs"] = probeTimes(20000, 16, func(i int) {
		_, err := opOf(i).Body(state, in.arg(i))
		fail.note("app.body", err)
	})
	return nil
}

func probeFabric(_ *probeInput, out map[string]float64, fail *probeFailure) error {
	env := tca.NewEnv(1, envNodes)
	nodes := env.Cluster.Nodes()
	tr := fabric.NewTrace()
	out["fabric.send_ns"], _ = probeTimes(40000, 32, func(i int) {
		fail.note("fabric.send", env.Cluster.Send(nodes[i%len(nodes)], nodes[(i+1)%len(nodes)], tr).Err)
	})
	return nil
}

// dirSize sums the sizes of the regular files under dir; a missing or
// empty dir is 0.
func dirSize(dir string) int64 {
	if dir == "" {
		return 0
	}
	var n int64
	// The callback never fails the walk: a file that vanishes meanwhile
	// only shrinks an informational size.
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}

func probeWAL(in *probeInput, out map[string]float64, fail *probeFailure) error {
	dir, err := newTempDir()
	if err != nil {
		return err
	}
	defer removeTempDir(dir)
	open := func(name string, sync bool) (*wal.Log, error) {
		opts := wal.DefaultOptions()
		opts.SyncOnAppend = sync
		l, err := wal.Open(filepath.Join(dir, name), opts)
		if err != nil {
			return nil, fmt.Errorf("probe wal: %w", err)
		}
		return l, nil
	}

	// Append + fsync, the deterministic cell's policy: one record, then a
	// group of 16 — the amortisation a group append buys.
	synced, err := open("synced", true)
	if err != nil {
		return err
	}
	ns, _ := probeTimes(300, 1, func(i int) {
		_, err := synced.Append(in.arg(i))
		fail.note("wal.append", err)
	})
	out["wal.append1_us"] = ns / 1e3
	ns, _ = probeTimes(200, 1, func(i int) {
		group := make([][]byte, 16)
		for k := range group {
			group[k] = in.arg(i*16 + k)
		}
		_, err := synced.AppendBatch(group)
		fail.note("wal.append_batch", err)
	})
	out["wal.append16_us"] = ns / 1e3
	if err := synced.Close(); err != nil {
		return fmt.Errorf("probe wal: %w", err)
	}

	// The fsync alone: a buffered append, then Sync timed by itself.
	unsynced, err := open("unsynced", false)
	if err != nil {
		return err
	}
	var syncNS []int64
	for i := 0; i < 220; i++ {
		_, err := unsynced.Append(in.arg(i))
		fail.note("wal.append", err)
		t0 := time.Now()
		fail.note("wal.sync", unsynced.Sync())
		if i >= 20 {
			syncNS = append(syncNS, int64(time.Since(t0)))
		}
	}
	sortInt64(syncNS)
	out["wal.sync_us"] = float64(syncNS[len(syncNS)/2]) / 1e3

	// Space and replay over a longer unsynced log.
	const records = 20000
	for i := 0; i < records; i++ {
		_, err := unsynced.Append(in.arg(i))
		fail.note("wal.append", err)
	}
	total := unsynced.Len()
	if err := unsynced.Close(); err != nil {
		return fmt.Errorf("probe wal: %w", err)
	}
	out["wal.bytes_per_record"] = float64(dirSize(filepath.Join(dir, "unsynced"))) / float64(total)
	reopened, err := open("unsynced", false)
	if err != nil {
		return err
	}
	t0 := time.Now()
	var replayed int
	fail.note("wal.replay", reopened.Replay(func([]byte) error { replayed++; return nil }))
	out["wal.replay_ns_per_record"] = float64(time.Since(t0)) / float64(max(replayed, 1))
	if uint64(replayed) != total {
		fail.note("wal.replay", fmt.Errorf("replayed %d of %d records", replayed, total))
	}
	if err := reopened.Close(); err != nil {
		return fmt.Errorf("probe wal: %w", err)
	}

	var sinkRoot [wal.HashSize]byte
	out["wal.merkle16_ns"], _ = probeTimes(4000, 4, func(i int) {
		lo := (i * 16) % (len(in.args) - 16)
		sinkRoot = wal.MerkleRoot(in.args[lo : lo+16])
	})
	_ = sinkRoot
	return nil
}

func probeMQ(in *probeInput, out map[string]float64, fail *probeFailure) error {
	b := mq.NewBroker()
	b.CreateTopic("probe", 1)
	tp := mq.TopicPartition{Topic: "probe", Partition: 0}
	const produced = 40000
	out["mq.produce_ns"], out["mq.produce_allocs"] = probeTimes(produced, 16, func(i int) {
		_, err := b.Produce(tp, in.key(i), in.arg(i))
		fail.note("mq.produce", err)
	})
	var off int64
	ns, _ := probeTimes(produced/128, 1, func(int) {
		msgs, err := b.Fetch(tp, off, 128)
		fail.note("mq.fetch", err)
		off += int64(len(msgs))
	})
	out["mq.fetch_ns_per_record"] = ns / 128

	txn := b.NewTransactionalProducer("probe-txn")
	b.CreateTopic("probe-txn", 1)
	out["mq.txn_commit_ns"], _ = probeTimes(10000, 8, func(i int) {
		fail.note("mq.begin", txn.Begin())
		_, _, err := txn.Send("probe-txn", in.key(i), in.arg(i))
		fail.note("mq.send", err)
		fail.note("mq.commit", txn.Commit())
	})

	cons, err := b.NewConsumer("probe-group", mq.AtLeastOnce, "probe")
	if err != nil {
		return fmt.Errorf("probe mq: %w", err)
	}
	out["mq.poll_ack_ns"], _ = probeTimes(20000, 8, func(int) {
		msgs, err := cons.Poll(1)
		fail.note("mq.poll", err)
		if err == nil && len(msgs) != 1 {
			fail.note("mq.poll", fmt.Errorf("got %d messages", len(msgs)))
		}
		cons.Ack()
	})
	return nil
}

func probeCore(in *probeInput, out map[string]float64, fail *probeFailure) error {
	// Model mode (no LogDir, no SequenceDelay): the runtime's own cost of
	// sequencing, scheduling and resolving one transaction.
	rt := core.NewRuntime(mq.NewBroker(), core.Config{Name: "probe", Workers: coreWorkers})
	rt.Register("noop", func(*core.Tx, []byte) ([]byte, error) { return nil, nil })
	if err := rt.Start(); err != nil {
		return fmt.Errorf("probe core: %w", err)
	}
	defer rt.Stop()
	ns, allocs := probeTimes(4000, 1, func(i int) {
		_, err := rt.Submit("w/"+strconv.Itoa(i), "noop", in.keys[i%len(in.keys)], in.arg(i), nil)
		fail.note("core.submit", err)
	})
	out["core.submit_noop_us"], out["core.submit_noop_allocs"] = ns/1e3, allocs
	ns, _ = probeTimes(8000, 4, func(i int) {
		_, err := rt.SubmitReadOnly("r/"+strconv.Itoa(i), "noop", in.keys[i%len(in.keys)], in.arg(i), nil)
		fail.note("core.readonly", err)
	})
	out["core.readonly_us"] = ns / 1e3
	return nil
}

// hammer runs fn(g, i) on goroutines×perG calls concurrently.
func hammer(goroutines, perG int, fn func(g, i int)) {
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				fn(g, i)
			}
		}()
	}
	wg.Wait()
}

func probeStore(in *probeInput, out map[string]float64, fail *probeFailure) error {
	db := store.NewDB(store.Config{Name: "probe"})
	db.CreateTable("state")
	bump := func(key string, calls *atomic.Int64) func(*store.Txn) error {
		return func(tx *store.Txn) error {
			if calls != nil {
				calls.Add(1)
			}
			row, _, err := tx.Get("state", key)
			if err != nil {
				return err
			}
			return tx.Put("state", key, store.Row{"v": row.Int("v") + 1})
		}
	}
	out["store.update_ns"], out["store.update_allocs"] = probeTimes(20000, 8, func(i int) {
		fail.note("store.update", db.Update(bump(in.key(i), nil)))
	})
	out["store.view_ns"], _ = probeTimes(40000, 16, func(i int) {
		fail.note("store.view", db.View(func(tx *store.Txn) error {
			_, _, err := tx.Get("state", in.key(i))
			return err
		}))
	})
	out["store.twopl_txn_ns"], _ = probeTimes(20000, 8, func(i int) {
		tx := db.Begin(store.Locking2PL)
		if err := bump(in.key(i), nil)(tx); err != nil {
			tx.Abort()
			fail.note("store.twopl", err)
			return
		}
		fail.note("store.twopl", tx.Commit())
	})

	// Contention, seen from outside: 4 goroutines over 8 hot keys. Every
	// committed Update adds 1, so the settled sum must equal the commits;
	// what is missing was lost at Serializable (ROADMAP item 1).
	const hotKeys, perG = 8, 2000
	var calls, commits atomic.Int64
	hammer(4, perG, func(g, i int) {
		key := "hot/" + strconv.Itoa((g*7+i)%hotKeys)
		if err := db.Update(bump(key, &calls)); err == nil {
			commits.Add(1)
		}
	})
	var sum int64
	fail.note("store.view", db.View(func(tx *store.Txn) error {
		for k := 0; k < hotKeys; k++ {
			row, _, err := tx.Get("state", "hot/"+strconv.Itoa(k))
			if err != nil {
				return err
			}
			sum += row.Int("v")
		}
		return nil
	}))
	out["store.retry_frac_c4"] = float64(calls.Load()-commits.Load()) / float64(max(commits.Load(), 1))
	out["store.lost_updates_c4"] = float64(commits.Load() - sum)

	var exhausted atomic.Int64
	hammer(8, 500, func(int, int) {
		if err := db.Update(bump("hot/one", nil)); err != nil {
			exhausted.Add(1)
		}
	})
	out["store.exhausted_c8"] = float64(exhausted.Load())
	return nil
}

func probeActor(in *probeInput, out map[string]float64, fail *probeFailure) error {
	env := tca.NewEnv(1, envNodes)
	sys := actor.NewSystem(env.Cluster, actor.Config{})
	defer sys.Stop()
	coord := actor.NewCoordinator(sys)
	ref := func(key string) actor.Ref { return actor.Ref{Type: "probe", ID: key} }
	// A Payment-shaped transaction: two keys read and written under
	// 2PL, then 2PC across their nodes.
	transfer := func(a, b string) func(*actor.ActorTxn) error {
		return func(t *actor.ActorTxn) error {
			for _, k := range []string{a, b} {
				row, _, err := t.Read(ref(k))
				if err != nil {
					return err
				}
				if err := t.Write(ref(k), store.Row{"v": row.Int("v") + 1}); err != nil {
					return err
				}
			}
			return nil
		}
	}
	var hops int64
	ns, allocs := probeTimes(4000, 1, func(i int) {
		tr := fabric.NewTrace()
		fail.note("actor.txn", coord.Run(tr, transfer(in.key(2*i), in.key(2*i+1))))
		hops += int64(tr.Hops())
	})
	out["actor.txn_us"], out["actor.txn_allocs"], out["actor.txn_hops"] = ns/1e3, allocs, float64(hops)/4000
	ns, _ = probeTimes(4000, 1, func(i int) {
		fail.note("actor.readonly", coord.RunReadOnly(nil, func(t *actor.ActorTxn) error {
			for _, k := range []string{in.key(2 * i), in.key(2*i + 1)} {
				if _, _, err := t.Read(ref(k)); err != nil {
					return err
				}
			}
			return nil
		}))
	})
	out["actor.readonly_us"] = ns / 1e3

	counter := func(name string) int64 { return sys.Metrics().Counter(name).Value() }
	retries0, exhausted0 := counter("actor.txn_retries"), counter("actor.txn_exhausted")
	const hotKeys, perG = 8, 500
	hammer(4, perG, func(g, i int) {
		a := "hot/" + strconv.Itoa((g+i)%hotKeys)
		b := "hot/" + strconv.Itoa((g+3*i+1)%hotKeys)
		if a != b {
			coord.Run(nil, transfer(a, b)) // exhausted retries are the metric, not a probe failure
		}
	})
	out["actor.retries_per_txn_c4"] = float64(counter("actor.txn_retries")-retries0) / (4 * perG)
	out["actor.exhausted_frac_c4"] = float64(counter("actor.txn_exhausted")-exhausted0) / (4 * perG)
	out["actor.activations"] = float64(counter("actor.activations"))
	return nil
}

func probeFaas(in *probeInput, out map[string]float64, fail *probeFailure) error {
	env := tca.NewEnv(1, envNodes)
	p := faas.NewPlatform(env.Cluster, faas.DefaultConfig())
	defer p.Stop()
	entity := func(key string) faas.EntityID { return faas.EntityID{Type: "probe", ID: key} }
	// A Payment-shaped function: lock two entities, bump both.
	p.Register("bump", func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
		keys := strings.SplitN(string(payload), "|", 2)
		ids := []faas.EntityID{entity(keys[0]), entity(keys[1])}
		cs := ctx.Entities().Lock(ids...)
		defer cs.Unlock()
		for _, id := range ids {
			if err := cs.Update(id, func(s store.Row) (store.Row, error) {
				return store.Row{"v": s.Int("v") + 1}, nil
			}); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	const calls = 4000
	ns, allocs := probeTimes(calls, 1, func(i int) {
		a, b := in.key(2*i), in.key(2*i+1)
		_, err := p.InvokeID("probe/"+strconv.Itoa(i), "bump", a, []byte(a+"|"+b), nil)
		fail.note("faas.invoke", err)
	})
	out["faas.invoke_us"], out["faas.invoke_allocs"] = ns/1e3, allocs
	counter := func(name string) float64 { return float64(p.Metrics().Counter(name).Value()) }
	cold, warm := counter("faas.cold_starts"), counter("faas.warm_starts")
	out["faas.cold_start_frac"] = cold / max(cold+warm, 1)
	out["faas.critical_sections_per_invoke"] = counter("faas.critical_sections") / calls
	return nil
}

type probeApplyReq struct {
	Key   string `json:"key"`
	Delta int64  `json:"delta"`
}

type probeApplyResp struct {
	Value int64 `json:"value"`
}

func probeMicro(in *probeInput, out map[string]float64, fail *probeFailure) error {
	// rpc: one call to an echo endpoint on a healthy cluster, then the
	// retry count a seeded 5%-drop cluster costs 2000 calls.
	env := tca.NewEnv(1, envNodes)
	nodes := env.Cluster.Nodes()
	tp := rpc.NewTransport(env.Cluster)
	tp.Register("echo", nodes[1], func(_ *rpc.Call, req []byte) ([]byte, error) { return req, nil })
	out["rpc.call_ns"], out["rpc.call_allocs"] = probeTimes(20000, 8, func(i int) {
		_, err := tp.Call(nodes[0], "echo", in.arg(i), nil, rpc.CallOptions{Retries: 3, RetryBackoff: time.Millisecond})
		fail.note("rpc.call", err)
	})
	lossy := tca.NewChaosEnv(1, envNodes, 0.05, 0)
	ltp := rpc.NewTransport(lossy.Cluster)
	ltp.Register("echo", nodes[1], func(_ *rpc.Call, req []byte) ([]byte, error) { return req, nil })
	for i := 0; i < 2000; i++ {
		// A call that exhausts its retries is the chaos, not a probe failure.
		ltp.Call(nodes[0], "echo", in.arg(i), nil, rpc.CallOptions{Retries: 3, RetryBackoff: time.Millisecond, IdempotencyKey: strconv.Itoa(i)})
	}
	out["rpc.retries"] = float64(ltp.Metrics().Counter("rpc.retries").Value())

	// micro: a keyed apply on one service with idempotency middleware and
	// an OCC store update behind it — one saga step of the microservices cell.
	dep := micro.NewDeployment(env.Cluster)
	svc := dep.AddService(micro.ServiceConfig{Name: "kv", Idempotency: dedup.New(0)})
	svc.DB().CreateTable("state")
	svc.Handle("apply", micro.JSONHandler(func(c *micro.Ctx, r probeApplyReq) (probeApplyResp, error) {
		var resp probeApplyResp
		err := c.DB().Update(func(tx *store.Txn) error {
			row, _, err := tx.Get("state", r.Key)
			if err != nil {
				return err
			}
			resp.Value = row.Int("v") + r.Delta
			return tx.Put("state", r.Key, store.Row{"v": resp.Value})
		})
		return resp, err
	}))
	var codec micro.Codec
	ns, allocs := probeTimes(8000, 4, func(i int) {
		_, _, err := dep.Invoke("kv", "apply", codec.Marshal(probeApplyReq{Key: in.key(i), Delta: 1}),
			rpc.CallOptions{Retries: 3, RetryBackoff: time.Millisecond, IdempotencyKey: "p/" + strconv.Itoa(i)})
		fail.note("micro.invoke", err)
	})
	out["micro.invoke_us"], out["micro.invoke_allocs"] = ns/1e3, allocs

	// saga: the orchestrator's own cost for two no-op steps.
	orch := saga.NewOrchestrator(nil)
	step := func(*saga.Ctx) error { return nil }
	def := &saga.Definition{Name: "probe", Steps: []saga.Step{
		{Name: "a", Action: step, Compensate: step},
		{Name: "b", Action: step, Compensate: step},
	}}
	ns, allocs = probeTimes(8000, 4, func(i int) {
		fail.note("saga.execute", orch.Execute(def, "s/"+strconv.Itoa(i), nil))
	})
	out["saga.execute_us"], out["saga.execute_allocs"] = ns/1e3, allocs

	dd := dedup.New(0)
	out["dedup.do_ns"], _ = probeTimes(40000, 16, func(i int) {
		_, _, err := dd.Do(strconv.Itoa(i), func() ([]byte, error) { return nil, nil })
		fail.note("dedup.do", err)
	})
	return nil
}

func probeStatefun(in *probeInput, out map[string]float64, fail *probeFailure) error {
	egress := make(chan string, 64) // room for one fan-out's replies so the job never blocks on the probe
	app := statefun.NewApp(mq.NewBroker(), statefun.Config{
		Name: "probe", Parallelism: 2, Ingress: "probe-ingress",
		OnEgress: func(key string, _ []byte) { egress <- key },
	})
	// echo keeps a counter in scoped state and answers on the egress;
	// fan sends the payload on to eight echo instances.
	app.Register("echo", func(ctx *statefun.Ctx, payload []byte) error {
		raw, _ := ctx.Get("n")
		ctx.Set("n", tca.EncodeInt(tca.DecodeInt(raw)+1))
		ctx.SendEgress("done", payload)
		return nil
	})
	app.Register("fan", func(ctx *statefun.Ctx, payload []byte) error {
		for k := 0; k < 8; k++ {
			if err := ctx.Send(statefun.Ref{Type: "echo", ID: "leaf-" + strconv.Itoa(k)}, payload); err != nil {
				return err
			}
		}
		return nil
	})
	if err := app.Start(); err != nil {
		return fmt.Errorf("probe statefun: %w", err)
	}
	defer app.Stop()
	await := func(n int) {
		for ; n > 0; n-- {
			select {
			case <-egress:
			case <-time.After(5 * time.Second):
				fail.note("statefun", errors.New("egress timeout"))
				return
			}
		}
	}
	ns, allocs := probeTimes(1500, 1, func(i int) {
		fail.note("statefun.send", app.SendToIngress(statefun.Ref{Type: "echo", ID: in.key(i)}, in.arg(i)))
		await(1)
	})
	out["statefun.hop_us"], out["statefun.hop_allocs"] = ns/1e3, allocs
	ns, _ = probeTimes(500, 1, func(i int) {
		fail.note("statefun.send", app.SendToIngress(statefun.Ref{Type: "fan", ID: strconv.Itoa(i)}, in.arg(i)))
		await(8)
	})
	out["statefun.fanout8_us"] = ns / 1e3
	ns, _ = probeTimes(20, 1, func(int) {
		_, err := app.TriggerCheckpoint()
		fail.note("statefun.checkpoint", err)
	})
	out["statefun.checkpoint_ms"] = ns / 1e6
	return nil
}
