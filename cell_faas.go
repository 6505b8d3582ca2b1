package tca

import (
	"tca/internal/faas"
	"tca/internal/fabric"
	"tca/internal/store"
)

// faasExec runs an App on the FaaS platform with durable entities: every
// op becomes a registered function, every key a durable entity, and each
// invocation opens an explicit critical section over the op's declared key
// set (locks acquired in canonical order — deadlock-free, as Durable
// Functions requires entities to be declared up front). The section is one
// store transaction: the handler reads every declared key through it into
// a snapshotTxn, the body runs on that, and its buffered writes are staged
// through the section in order and commit in one store commit when the
// section unlocks — or, if the body or a staged write fails, none do.
// Invocation ids give exactly-once per op. The platform's invocation path
// is synchronous, so pipelining is the pool's client-side concurrency:
// concurrent submissions on overlapping entities serialize on the entity
// locks, the cell's honest contention behavior.
type faasExec struct {
	c *cell
	p *faas.Platform
}

func newFaasExec(c *cell, env *Env) *faasExec {
	e := &faasExec{c: c, p: faas.NewPlatform(env.Cluster, faas.DefaultConfig())}
	for _, name := range c.app.Ops() {
		op, _ := c.app.Op(name)
		e.p.Register(op.Name, func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
			keys := c.app.keysOf(op, payload)
			ids := make([]faas.EntityID, len(keys))
			for i, k := range keys {
				ids[i] = e.entity(k)
			}
			cs := e.p.Entities().Lock(ids...)
			defer cs.Unlock()
			tx := &snapshotTxn{snapshot: make(map[string]keyVal, len(keys))}
			for i, k := range keys {
				row, found, err := cs.Get(ids[i])
				if err != nil {
					return nil, err
				}
				tx.snapshot[k] = keyVal{Key: k, Val: rowValue(row), Found: found}
			}
			result, err := c.runBody(op, ctx.InvocationID(), tx, payload)
			if err != nil {
				return nil, err // nothing staged: the section commits nothing
			}
			for _, w := range tx.writeBuffer {
				// cur is shared, so the write is a new row. A failed Update
				// is kept: Unlock returns it and commits none of the op's
				// writes.
				cs.Update(e.entity(w.Key), func(cur store.Row) (store.Row, error) {
					val, _ := w.apply(rowValue(cur), cur != nil)
					return valueRow(val), nil
				})
			}
			if err := cs.Unlock(); err != nil {
				return nil, err
			}
			return result, nil
		})
	}
	return e
}

func (e *faasExec) entity(key string) faas.EntityID {
	return faas.EntityID{Type: e.c.app.Name(), ID: key}
}

func (e *faasExec) guarantee() Guarantee {
	return Guarantee{Atomic: true, Isolated: true, ExactlyOnce: true,
		Note: "Durable-Functions entities: explicit critical sections, dedup by op id; cold starts on the latency tail"}
}

// run is one function invocation, routed by its request id: acquire the
// critical section, run the body, commit its writes.
func (e *faasExec) run(op Op, reqID string, args []byte, tr *fabric.Trace) ([]byte, error) {
	return e.p.InvokeID(reqID, op.Name, reqID, args, tr)
}

func (e *faasExec) read(key string) ([]byte, bool, error) {
	row, found, err := e.p.Entities().Read(e.entity(key))
	return rowValue(row), found, err
}

func (e *faasExec) settle() error { return nil }
func (e *faasExec) close()        { e.p.Stop() }
