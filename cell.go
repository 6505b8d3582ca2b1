package tca

import (
	"bytes"
	"fmt"

	"tca/internal/core"
	"tca/internal/fabric"
	"tca/internal/statefun"
)

// This file is the one Cell implementation: a fixed submit pipeline over a
// per-model executor. The pipeline owns what the five programming models do
// not disagree on — the op table and the unknown-op error, the read-only
// contract, the MaxPending rule (pendingBound), Invoke, and runBody, the
// only place a cell calls an application body. An executor (cell_*.go)
// keeps what is honestly different about its model.

// executor is what one programming model contributes to a cell: what it
// promises, how settled state is read and reached, and exactly one accept
// path (runner or submitter). An executor runs bodies through cell.runBody
// only, and derives an op's key set (App.keysOf) only if its protocol needs
// it and never before the admission verdict — which is what keeps accept
// latency at a map lookup plus a channel send or a spawn.
type executor interface {
	guarantee() Guarantee
	// read returns one key's committed value; an executor that must settle
	// first to know it is also a peeker.
	read(key string) ([]byte, bool, error)
	// settle waits until every accepted op has applied.
	settle() error
	close()
}

// runner is an executor whose protocol blocks its caller: the saga, the
// actor transaction, the entity critical section. The pipeline puts run
// behind the shared submitPool; admission is the pool's token.
type runner interface {
	executor
	run(op Op, reqID string, args []byte, tr *fabric.Trace) ([]byte, error)
}

// submitter is an executor that accepts natively: the deterministic core
// (acknowledged at durable append) and the dataflow (acknowledged at the
// ingress). Admission is its own bounded queue; it sheds with shedHandle.
type submitter interface {
	executor
	submit(op Op, reqID string, args []byte, tr *fabric.Trace) Handle
}

// peeker is an executor that can answer a read without settling: the dirty
// read an external observer performs mid-flight (E7, the live audit).
type peeker interface {
	peek(key string) ([]byte, bool, error)
}

// writeObserver is told the writes of every successful execution of a
// read-write op's body, by request id: after the body returned nil, before
// the executor commits. A cell that re-executes a body (conflict retry,
// recovery replay) reports again under the same id, so the last report
// before the handle resolves is the execution that committed. A shed
// submission, a read-only op and a failed body are never reported. Geo
// replication captures its write-sets here; the per-op lifecycle record and
// the commit-stage constraint check (ROADMAP item 4) belong here too.
type writeObserver func(reqID, op string, writes []write)

// cell is the Cell of every programming model.
type cell struct {
	app     *App
	model   ProgrammingModel
	observe writeObserver // may be nil
	exec    executor
	// Exactly one accept path is set: exec as a runner, behind pool, or
	// exec as a submitter.
	blocking runner
	pool     *submitPool
	native   submitter
}

// deploy builds the cell of model over app.
func deploy(model ProgrammingModel, app *App, env *Env, opts Options, observe writeObserver) (*cell, error) {
	c := &cell{app: app, model: model, observe: observe}
	var err error
	switch model {
	case Microservices:
		c.blocking = newMicroExec(c, env)
	case Actors:
		c.blocking = newActorExec(c, env)
	case CloudFunctions:
		c.blocking = newFaasExec(c, env)
	case StatefulDataflow:
		c.native, err = newStatefunExec(c, env, opts)
	case Deterministic:
		c.native, err = newCoreExec(c, env, opts)
	default:
		err = fmt.Errorf("tca: unknown model %v", model)
	}
	if err != nil {
		return nil, err
	}
	if c.blocking != nil {
		c.exec, c.pool = c.blocking, newSubmitPool(model, opts.Clients, opts.MaxPending)
	} else {
		c.exec = c.native
	}
	return c, nil
}

func (c *cell) Model() ProgrammingModel { return c.model }
func (c *cell) App() *App               { return c.app }
func (c *cell) Guarantee() Guarantee    { return c.exec.guarantee() }

// op resolves a registered op: the pipeline's only work before admission.
func (c *cell) op(name string) (Op, error) {
	op, ok := c.app.ops[name]
	if !ok {
		return op, opError(c.app, name)
	}
	return op, nil
}

// Submit is the pipeline: resolve the op, then take the executor's accept
// path. An unknown op resolves at once and consumes no admission slot.
func (c *cell) Submit(reqID, opName string, args []byte, tr *fabric.Trace) Handle {
	op, err := c.op(opName)
	if err != nil {
		return resolvedHandle(nil, err)
	}
	if c.pool == nil {
		return c.native.submit(op, reqID, args, tr)
	}
	return c.pool.submit(func() ([]byte, error) {
		return c.blocking.run(op, reqID, args, tr)
	})
}

// Invoke is Submit(...).Result() — TestInvokeIsSubmitResult pins the
// equivalence — taking the pool's inline path on the pooled cells: a
// caller that waits inline needs neither the goroutine nor the handle.
func (c *cell) Invoke(reqID, opName string, args []byte, tr *fabric.Trace) ([]byte, error) {
	if c.pool == nil {
		return c.Submit(reqID, opName, args, tr).Result()
	}
	op, err := c.op(opName)
	if err != nil {
		return nil, err
	}
	return c.pool.invoke(func() ([]byte, error) {
		return c.blocking.run(op, reqID, args, tr)
	})
}

// Read returns a copy of key's settled value, which the caller may change.
func (c *cell) Read(key string) ([]byte, bool, error) {
	val, found, err := c.exec.read(key)
	return bytes.Clone(val), found, err
}

func (c *cell) Settle() error { return c.exec.settle() }
func (c *cell) Close()        { c.exec.close() }

// runBody executes op's body over the executor's Txn: the single call site
// of Op.Body in a cell. It enforces the read-only contract (a ReadOnly
// body's writes get ErrReadOnlyOp, whatever the executor's write path) and
// reports a successful read-write body's writes to the observer.
func (c *cell) runBody(op Op, reqID string, tx Txn, args []byte) ([]byte, error) {
	var seen *observedTxn
	switch {
	case op.ReadOnly:
		tx = roTxn{tx}
	case c.observe != nil:
		seen = &observedTxn{Txn: tx}
		tx = seen
	}
	res, err := op.Body(tx, args)
	if seen != nil && err == nil {
		c.observe(reqID, op.Name, seen.writes)
	}
	return res, err
}

// roTxn enforces the ReadOnly contract over any executor's Txn.
type roTxn struct{ Txn }

func (roTxn) Put(string, []byte) error         { return ErrReadOnlyOp }
func (roTxn) Add(string, int64) error          { return ErrReadOnlyOp }
func (roTxn) PushCap(string, int64, int) error { return ErrReadOnlyOp }

// observedTxn forwards a body's writes to the executor's Txn and keeps a
// record of the ones it accepted. Reads pass through untouched.
type observedTxn struct {
	Txn
	writes writeBuffer
}

func (t *observedTxn) Put(key string, value []byte) error {
	if err := t.Txn.Put(key, value); err != nil {
		return err
	}
	return t.writes.Put(key, value)
}

func (t *observedTxn) Add(key string, delta int64) error {
	if err := t.Txn.Add(key, delta); err != nil {
		return err
	}
	return t.writes.Add(key, delta)
}

func (t *observedTxn) PushCap(key string, id int64, cap int) error {
	if err := t.Txn.PushCap(key, id, cap); err != nil {
		return err
	}
	return t.writes.PushCap(key, id, cap)
}

// The accessors below are the only code that looks inside a Cell; for a
// Cell that is not this package's own they answer nil or fall back.

// CoreRuntime returns the deterministic cell's underlying runtime — the
// checkpoint and crash/replay control surface — or nil for any other cell,
// so demos and drivers can exercise recovery without depending on the
// cell's concrete type.
func CoreRuntime(c Cell) *core.Runtime {
	if cc, ok := c.(*cell); ok {
		if e, ok := cc.exec.(*coreExec); ok {
			return e.rt
		}
	}
	return nil
}

// StatefunRuntime returns the eventual cell's underlying statefun app —
// the checkpoint and crash/recover control surface — or nil for any
// other cell, the dataflow counterpart of CoreRuntime.
func StatefunRuntime(c Cell) *statefun.App {
	if cc, ok := c.(*cell); ok {
		if e, ok := cc.exec.(*statefunExec); ok {
			return e.sf
		}
	}
	return nil
}

// Peek reads a copy of a key's value without settling the cell: the
// dataflow executor's dirty peek (what an outside observer sees
// mid-choreography), any other cell's Read of committed state. A failed
// read counts as not found.
func Peek(c Cell, key string) ([]byte, bool) {
	read := c.Read
	if cc, ok := c.(*cell); ok {
		read = cc.exec.read
		if p, ok := cc.exec.(peeker); ok {
			read = p.peek
		}
	}
	raw, found, err := read(key)
	if err != nil {
		return nil, false
	}
	return bytes.Clone(raw), found
}
