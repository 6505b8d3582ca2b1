package tca

import (
	"fmt"
	"time"

	"tca/internal/dedup"
	"tca/internal/fabric"
	"tca/internal/micro"
	"tca/internal/rpc"
	"tca/internal/saga"
	"tca/internal/store"
	"tca/internal/workload"
)

// microShards is the number of key-shard services a micro cell deploys —
// database-per-service, keys hash-routed (the even/odd account split of
// the original bank, generalized).
const microShards = 2

// microExec runs an App on the status-quo stack: stateless services with
// per-service databases behind REST. An op is one saga grouped by owning
// service: one get RPC per service reads its declared keys from one
// snapshot of its database, the body runs over the gathered values, and
// its writes run as one saga step per touched service — an idempotent
// apply that commits that service's writes as one local transaction and
// answers with their inverse, the step's compensation. Atomic eventually,
// not isolated: other sagas' steps land between this op's reads and
// writes, and between its services' steps (the cell's honest anomaly).
// The REST stack is synchronous per request, so pipelining is the pool's
// client-side concurrency: Options.Clients sagas in flight.
type microExec struct {
	c    *cell
	dep  *micro.Deployment
	svcs []*micro.Service // by shard
	orch *saga.Orchestrator
}

func newMicroExec(c *cell, env *Env) *microExec {
	e := &microExec{c: c, dep: micro.NewDeployment(env.Cluster), orch: saga.NewOrchestrator(nil)}
	for s := 0; s < microShards; s++ {
		// Idempotency middleware makes retries of the non-idempotent
		// "apply" safe on a lossy, duplicating network (§3.2).
		svc := e.dep.AddService(micro.ServiceConfig{
			Name:        fmt.Sprintf("%s-shard-%d", c.app.Name(), s),
			Idempotency: dedup.New(0),
		})
		svc.DB().CreateTable("state")
		svc.Handle("get", micro.JSONHandler(func(mc *micro.Ctx, keys []string) ([]keyVal, error) {
			return readKeys(mc.DB(), keys)
		}))
		svc.Handle("apply", micro.JSONHandler(func(mc *micro.Ctx, ws []write) ([]write, error) {
			return applyBatch(mc.DB(), ws)
		}))
		e.svcs = append(e.svcs, svc)
	}
	return e
}

func microShard(key string) int { return keyShard(key, microShards) }

// stateOf reads key's value in a shard database transaction.
func stateOf(tx *store.Txn, key string) ([]byte, bool, error) {
	row, found, err := tx.Get("state", key)
	if !found {
		return nil, false, err
	}
	return []byte(row.Str("v")), true, nil
}

// readKeys reads keys' committed values from one snapshot of a shard
// database.
func readKeys(db *store.DB, keys []string) ([]keyVal, error) {
	vals := make([]keyVal, len(keys))
	err := db.View(func(tx *store.Txn) error {
		for i, k := range keys {
			v, found, err := stateOf(tx, k)
			if err != nil {
				return err
			}
			vals[i] = keyVal{Key: k, Val: v, Found: found}
		}
		return nil
	})
	return vals, err
}

// applyBatch runs ws, in order, as one local transaction on a shard
// database and returns the batch that undoes it: each write's inverse over
// the value it replaced, in reverse order, so that a key written twice is
// restored to what it held before the first write.
func applyBatch(db *store.DB, ws []write) ([]write, error) {
	undo := make([]write, len(ws))
	err := db.Update(func(tx *store.Txn) error {
		for i, w := range ws {
			cur, found, err := stateOf(tx, w.Key)
			if err != nil {
				return err
			}
			undo[len(ws)-1-i] = w.inverse(cur, found)
			if val, keep := w.apply(cur, found); keep {
				err = tx.Put("state", w.Key, store.Row{"v": string(val)})
			} else {
				err = tx.Delete("state", w.Key)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	return undo, err
}

func (e *microExec) call(shard int, op, idemKey string, req, resp any, tr *fabric.Trace) error {
	var codec micro.Codec
	s := e.svcs[shard]
	raw, err := e.dep.Transport().Call(s.Node(), "svc/"+s.Name()+"/"+op, codec.Marshal(req), tr, rpc.CallOptions{
		Retries:        3,
		RetryBackoff:   time.Millisecond,
		IdempotencyKey: idemKey,
	})
	if err != nil || resp == nil {
		return err
	}
	return codec.Unmarshal(raw, resp)
}

func (e *microExec) guarantee() Guarantee {
	return Guarantee{Atomic: true, Isolated: false, ExactlyOnce: false,
		Note: "saga over REST: compensations on failure, dirty reads mid-saga"}
}

// run is one saga: one get per service that owns a declared key, the body
// over the gathered values, then one step per service its writes touch.
// It returns when the saga completes or compensates.
func (e *microExec) run(op Op, reqID string, args []byte, tr *fabric.Trace) ([]byte, error) {
	keys := e.c.app.keysOf(op, args)
	tx := &snapshotTxn{snapshot: make(map[string]keyVal, len(keys))}
	for _, group := range byShard(keys, microShards, func(k string) string { return k }, microShard) {
		var vals []keyVal
		if err := e.call(microShard(group[0]), "get", "", group, &vals, tr); err != nil {
			return nil, err
		}
		for _, v := range vals {
			tx.snapshot[v.Key] = v
		}
	}
	result, err := e.c.runBody(op, reqID, tx, args)
	if err != nil {
		return nil, err // business failure before any write: clean abort
	}
	if len(tx.writeBuffer) == 0 {
		// Queries pay only their get RPCs: no saga is staged, no apply
		// steps, no compensations registered.
		return result, nil
	}
	batches := byShard(tx.writeBuffer, microShards, func(w write) string { return w.Key }, microShard)
	steps := make([]saga.Step, len(batches))
	undos := make([][]write, len(batches)) // each step's inverse batch, as its apply answered it
	for i, batch := range batches {
		shard := microShard(batch[0].Key)
		steps[i] = saga.Step{
			Name: e.svcs[shard].Name(),
			Action: func(*saga.Ctx) error {
				return e.call(shard, "apply", workload.Join(reqID, "/s", int64(shard)), batch, &undos[i], tr)
			},
			Compensate: func(*saga.Ctx) error {
				return e.call(shard, "apply", workload.Join(reqID, "/c", int64(shard)), undos[i], nil, tr)
			},
		}
	}
	if err := e.orch.Execute(&saga.Definition{Name: op.Name, Steps: steps}, reqID, nil); err != nil {
		return nil, err
	}
	return result, nil
}

func (e *microExec) read(key string) ([]byte, bool, error) {
	vals, err := readKeys(e.svcs[microShard(key)].DB(), []string{key})
	return vals[0].Val, vals[0].Found, err
}

func (e *microExec) settle() error { return nil }
func (e *microExec) close()        {}
