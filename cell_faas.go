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
// Functions requires entities to be declared up front). Writes are
// buffered and flushed only when the body succeeds, so a business failure
// leaves no partial state. Invocation ids give exactly-once per op. The
// platform's invocation path is synchronous, so pipelining is the pool's
// client-side concurrency: concurrent submissions on overlapping entities
// serialize on the entity locks, the cell's honest contention behavior.
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
			ftx := &faasTxn{e: e, cs: cs, writes: make(map[string][]byte)}
			result, err := c.runBody(op, ctx.InvocationID(), ftx, payload)
			if err != nil {
				return nil, err // buffered writes dropped: all-or-nothing
			}
			if op.ReadOnly {
				// Queries read the locked entities and return: the
				// buffered-write commit loop never runs.
				return result, nil
			}
			for _, k := range sortedKeys(ftx.writes) {
				value := ftx.writes[k]
				if err := cs.Update(e.entity(k), func(store.Row) (store.Row, error) {
					return store.Row{"v": string(value)}, nil
				}); err != nil {
					return nil, err
				}
			}
			return result, nil
		})
	}
	return e
}

func (e *faasExec) entity(key string) faas.EntityID {
	return faas.EntityID{Type: e.c.app.Name(), ID: key}
}

// faasTxn buffers writes inside the critical section; reads see the locked
// entities overlaid with the op's own writes. The buffer holds final
// values, not write records: the critical section holds every entity lock,
// so Add and PushCap are exact as read-modify-writes.
type faasTxn struct {
	e      *faasExec
	cs     *faas.CriticalSection
	writes map[string][]byte
}

func (t *faasTxn) Get(key string) ([]byte, bool, error) {
	if v, ok := t.writes[key]; ok {
		return v, true, nil
	}
	row, ok, err := t.cs.Get(t.e.entity(key))
	if err != nil || !ok {
		return nil, false, err // undeclared keys surface ErrNotInCriticalSection
	}
	return []byte(row.Str("v")), true, nil
}

func (t *faasTxn) Put(key string, value []byte) error {
	t.writes[key] = value
	return nil
}

func (t *faasTxn) Add(key string, delta int64) error {
	return rmw(t, write{Key: key, Verb: verbAdd, Delta: delta})
}

func (t *faasTxn) PushCap(key string, id int64, cap int) error {
	return rmw(t, write{Key: key, Verb: verbPush, ID: id, Cap: cap})
}

func (e *faasExec) guarantee() Guarantee {
	return Guarantee{Atomic: true, Isolated: true, ExactlyOnce: true,
		Note: "Durable-Functions entities: explicit critical sections, dedup by op id; cold starts on the latency tail"}
}

// run is one function invocation: acquire the critical section, run the
// body, commit the buffered writes.
func (e *faasExec) run(op Op, reqID string, args []byte, tr *fabric.Trace) ([]byte, error) {
	// Route by the first declared key (platform placement only).
	routing := reqID
	if keys := e.c.app.keysOf(op, args); len(keys) > 0 {
		routing = keys[0]
	}
	return e.p.InvokeID(reqID, op.Name, routing, args, tr)
}

func (e *faasExec) read(key string) ([]byte, bool, error) {
	row, ok, err := e.p.Entities().Read(e.entity(key))
	if err != nil || !ok {
		return nil, false, err
	}
	return []byte(row.Str("v")), true, nil
}

func (e *faasExec) settle() error { return nil }
func (e *faasExec) close()        { e.p.Stop() }
