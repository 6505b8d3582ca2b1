package tca

import (
	"fmt"
	"time"

	"tca/internal/dedup"
	"tca/internal/fabric"
	"tca/internal/micro"
	"tca/internal/mq"
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
//
// Every RPC body is an sfMsg frame, the dataflow cell's wire format: a get
// sends a read and gets a resp, an apply sends a write batch and gets its
// undo batch, which the compensation sends back as it is. micro.Codec is
// the framework's JSON convenience for other callers, not this cell's.
type microExec struct {
	c         *cell
	dep       *micro.Deployment
	svcs      []*micro.Service // by shard
	endpoints [][2]string      // by shard, then microGet or microApply
	orch      *saga.Orchestrator
}

// microGet and microApply name a shard service's two operations.
const (
	microGet = iota
	microApply
)

func newMicroExec(c *cell, env *Env) *microExec {
	e := &microExec{c: c, dep: micro.NewDeployment(env.Cluster), orch: saga.NewOrchestrator(nil)}
	for s := 0; s < microShards; s++ {
		// Idempotency middleware makes retries of the non-idempotent
		// "apply" safe on a lossy, duplicating network (§3.2).
		name := fmt.Sprintf("%s-shard-%d", c.app.Name(), s)
		svc := e.dep.AddService(micro.ServiceConfig{Name: name, Idempotency: dedup.New(0)})
		db := svc.DB()
		db.CreateTable("state")
		svc.Handle("get", func(_ *micro.Ctx, req []byte) ([]byte, error) {
			m, err := decodeKind(req, sfRead)
			if err != nil {
				return nil, err
			}
			vals, err := readKeys(db, m.Keys)
			if err != nil {
				return nil, err
			}
			return sfMsg{Kind: sfResp, Vals: vals}.encode(), nil
		})
		svc.Handle("apply", func(_ *micro.Ctx, req []byte) ([]byte, error) {
			m, err := decodeKind(req, sfWrite)
			if err != nil {
				return nil, err
			}
			undo, err := applyBatch(db, m.Writes)
			if err != nil {
				return nil, err
			}
			return sfMsg{Kind: sfWrite, Writes: undo}.encode(), nil
		})
		e.svcs = append(e.svcs, svc)
		e.endpoints = append(e.endpoints, [2]string{"svc/" + name + "/get", "svc/" + name + "/apply"})
	}
	return e
}

// decodeKind decodes a frame that must hold a message of kind k.
func decodeKind(frame []byte, k sfKind) (sfMsg, error) {
	m, err := decodeSfMsg(frame)
	if err == nil && m.Kind != k {
		return sfMsg{}, fmt.Errorf("tca: message of kind %d where kind %d was expected", m.Kind, k)
	}
	return m, err
}

func microShard(key string) int { return mq.PartitionForKey(key, microShards) }

// stateOf reads key's value in a shard database transaction.
func stateOf(tx *store.Txn, key string) ([]byte, bool, error) {
	row, found, err := tx.Get("state", key)
	if !found {
		return nil, false, err
	}
	return rowValue(row), true, nil
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
				err = tx.Put("state", w.Key, valueRow(val))
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

// call sends the frame req to a shard service's operation and returns the
// frame it answers with.
func (e *microExec) call(shard, op int, idemKey string, req []byte, tr *fabric.Trace) ([]byte, error) {
	return e.dep.Transport().Call(e.svcs[shard].Node(), e.endpoints[shard][op], req, tr, rpc.CallOptions{
		Retries:        3,
		RetryBackoff:   time.Millisecond,
		IdempotencyKey: idemKey,
	})
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
		resp, err := e.call(microShard(group[0]), microGet, "", sfMsg{Kind: sfRead, Keys: group}.encode(), tr)
		if err != nil {
			return nil, err
		}
		m, err := decodeKind(resp, sfResp)
		if err != nil {
			return nil, err
		}
		for _, v := range m.Vals {
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
	undos := make([][]byte, len(batches)) // each step's undo frame, as its apply answered it
	for i, batch := range batches {
		shard := microShard(batch[0].Key)
		steps[i] = saga.Step{
			Name: e.svcs[shard].Name(),
			Action: func(*saga.Ctx) (err error) {
				undos[i], err = e.call(shard, microApply, workload.Join(reqID, "/s", int64(shard)), sfMsg{Kind: sfWrite, Writes: batch}.encode(), tr)
				return err
			},
			Compensate: func(*saga.Ctx) error {
				_, err := e.call(shard, microApply, workload.Join(reqID, "/c", int64(shard)), undos[i], tr)
				return err
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
