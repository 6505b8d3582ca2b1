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
// per-service databases behind REST. The body's Gets are plain RPC reads
// with no coordination (dirty reads between saga steps are the cell's
// honest anomaly), and its writes run as a saga — one idempotent step per
// write record, compensated in reverse on failure. Atomic eventually, not
// isolated. The REST stack is synchronous per request, so pipelining is
// the pool's client-side concurrency: Options.Clients sagas in flight,
// each with its honest (un-isolated) interleavings.
type microExec struct {
	c    *cell
	dep  *micro.Deployment
	orch *saga.Orchestrator
}

// kvGetReq/kvGetResp are the shard services' read wire types. The "apply"
// service takes a write record and answers with its inverse over the value
// it replaced — the saga step's compensation, ready to send.
type kvGetReq struct {
	Key string `json:"key"`
}

type kvGetResp struct {
	Val   string `json:"val"`
	Found bool   `json:"found"`
}

func newMicroExec(c *cell, env *Env) *microExec {
	dep := micro.NewDeployment(env.Cluster)
	for s := 0; s < microShards; s++ {
		// Idempotency middleware makes retries of the non-idempotent
		// "apply" safe on a lossy, duplicating network (§3.2).
		svc := dep.AddService(micro.ServiceConfig{
			Name:        shardService(c.app, s),
			Idempotency: dedup.New(0),
		})
		svc.DB().CreateTable("state")
		svc.Handle("get", micro.JSONHandler(func(mc *micro.Ctx, r kvGetReq) (kvGetResp, error) {
			val, found, err := readState(mc.DB(), r.Key)
			return kvGetResp{Val: val, Found: found}, err
		}))
		svc.Handle("apply", micro.JSONHandler(func(mc *micro.Ctx, w write) (write, error) {
			var undo write
			err := mc.DB().Update(func(tx *store.Txn) error {
				var cur []byte
				row, found, err := tx.Get("state", w.Key)
				if err != nil {
					return err
				}
				if found {
					cur = []byte(row.Str("v"))
				}
				undo = w.inverse(cur, found)
				val, keep := w.apply(cur, found)
				if !keep {
					return tx.Delete("state", w.Key)
				}
				return tx.Put("state", w.Key, store.Row{"v": string(val)})
			})
			return undo, err
		}))
	}
	return &microExec{c: c, dep: dep, orch: saga.NewOrchestrator(nil)}
}

func shardService(app *App, shard int) string {
	return fmt.Sprintf("%s-shard-%d", app.Name(), shard)
}

func (e *microExec) shardOf(key string) string {
	return shardService(e.c.app, keyShard(key, microShards))
}

// readState reads one key's committed value from a shard database.
func readState(db *store.DB, key string) (val string, found bool, err error) {
	err = db.View(func(tx *store.Txn) error {
		row, ok, err := tx.Get("state", key)
		if ok {
			val, found = row.Str("v"), true
		}
		return err
	})
	return val, found, err
}

func (e *microExec) call(key, op, idemKey string, req, resp any, tr *fabric.Trace) error {
	var codec micro.Codec
	svcName := e.shardOf(key)
	s, err := e.dep.Service(svcName)
	if err != nil {
		return err
	}
	raw, err := e.dep.Transport().Call(s.Node(), "svc/"+svcName+"/"+op, codec.Marshal(req), tr, rpc.CallOptions{
		Retries:        3,
		RetryBackoff:   time.Millisecond,
		IdempotencyKey: idemKey,
	})
	if err != nil {
		return err
	}
	if resp != nil {
		return codec.Unmarshal(raw, resp)
	}
	return nil
}

// microTxn reads through uncoordinated RPC and buffers writes for the
// saga; Gets overlay the buffer so bodies read their own writes.
type microTxn struct {
	e  *microExec
	tr *fabric.Trace
	writeBuffer
}

func (t *microTxn) Get(key string) ([]byte, bool, error) {
	var resp kvGetResp
	if err := t.e.call(key, "get", "", kvGetReq{Key: key}, &resp, t.tr); err != nil {
		return nil, false, err
	}
	var raw []byte
	if resp.Found {
		raw = []byte(resp.Val)
	}
	raw, found := t.overlay(key, raw, resp.Found)
	return raw, found, nil
}

func (e *microExec) guarantee() Guarantee {
	return Guarantee{Atomic: true, Isolated: false, ExactlyOnce: false,
		Note: "saga over REST: compensations on failure, dirty reads mid-saga"}
}

// run is one saga: the body over uncoordinated reads, then one step per
// buffered write. It returns when the saga completes or compensates.
func (e *microExec) run(op Op, reqID string, args []byte, tr *fabric.Trace) ([]byte, error) {
	tx := &microTxn{e: e, tr: tr}
	result, err := e.c.runBody(op, reqID, tx, args)
	if err != nil {
		return nil, err // business failure before any write: clean abort
	}
	writes := tx.writeBuffer
	if len(writes) == 0 {
		// Queries pay only their uncoordinated RPC reads: no saga is
		// staged, no per-key apply steps, no compensations registered.
		return result, nil
	}
	steps := make([]saga.Step, len(writes))
	undos := make([]write, len(writes)) // each step's inverse, as its apply answered it
	for i := range writes {
		i := i
		steps[i] = saga.Step{
			Name: writes[i].Key,
			Action: func(*saga.Ctx) error {
				return e.call(writes[i].Key, "apply", workload.Join(reqID, "/w", int64(i)), &writes[i], &undos[i], tr)
			},
			Compensate: func(*saga.Ctx) error {
				return e.call(undos[i].Key, "apply", workload.Join(reqID, "/c", int64(i)), &undos[i], nil, tr)
			},
		}
	}
	if err := e.orch.Execute(&saga.Definition{Name: op.Name, Steps: steps}, reqID, nil); err != nil {
		return nil, err
	}
	return result, nil
}

func (e *microExec) read(key string) ([]byte, bool, error) {
	s, err := e.dep.Service(e.shardOf(key))
	if err != nil {
		return nil, false, err
	}
	val, found, err := readState(s.DB(), key)
	if err != nil || !found {
		return nil, false, err
	}
	return []byte(val), true, nil
}

func (e *microExec) settle() error { return nil }
func (e *microExec) close()        {}
