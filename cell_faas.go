package tca

import (
	"slices"

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
// a snapshotTxn, the body runs on that, and each key it wrote is staged
// through the section once, with its final value, in first-write order;
// they commit in one store commit when the section unlocks — or, if the
// body or a staged write fails, none do.
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
			// tx already holds each written key's final value: the stable
			// snapshot with the op's writes applied. Stage it once per key,
			// in first-write order. A failed Update (an undeclared key's,
			// whose Get fails too) is kept: Unlock returns it and commits
			// none of the op's writes.
			var val []byte
			set := func(store.Row) (store.Row, error) { return valueRow(val), nil }
			for i, w := range tx.writeBuffer {
				if !slices.ContainsFunc(tx.writeBuffer[:i], func(p write) bool { return p.Key == w.Key }) {
					val, _, _ = tx.Get(w.Key)
					cs.Update(e.entity(w.Key), set)
				}
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
