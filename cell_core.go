package tca

import (
	"errors"
	"time"

	"tca/internal/core"
	"tca/internal/fabric"
)

// coreExec runs an App on the deterministic transactional dataflow
// runtime (internal/core): every op becomes a registered deterministic
// transaction, scheduled by its declared key set on the partitioned input
// log. Serializable and exactly-once by construction — the §5 opportunity
// cell.
type coreExec struct {
	c  *cell
	rt *core.Runtime
}

func newCoreExec(c *cell, env *Env, opts Options) (*coreExec, error) {
	// Admission control: the batcher queue bound defaults to 4× the group
	// size (a queue that can feed four full group appends).
	group := opts.MaxGroupAppend
	if group <= 0 {
		group = 128
	}
	rt := core.NewRuntime(env.Broker, core.Config{
		Name:           "cell-" + c.app.Name(),
		Cluster:        env.Cluster,
		Partitions:     opts.Partitions,
		Workers:        opts.Workers,
		SequenceDelay:  opts.SequenceDelay,
		LogDir:         opts.LogDir,
		Fsync:          opts.Fsync,
		MaxGroupAppend: opts.MaxGroupAppend,
		MaxPending:     pendingBound(opts.MaxPending, 4*group),
	})
	for _, name := range c.app.Ops() {
		op, _ := c.app.Op(name)
		rt.Register(op.Name, func(tx *core.Tx, args []byte) ([]byte, error) {
			return c.runBody(op, tx.ReqID(), coreTxn{tx}, args)
		})
	}
	if err := rt.Start(); err != nil {
		return nil, err
	}
	return &coreExec{c: c, rt: rt}, nil
}

// coreTxn adapts core.Tx to the uniform Txn surface (a direct fit: the
// runtime already exposes a byte-valued key space). Add and PushCap are
// plain read-modify-writes: the conflict-chain schedule serializes every
// access to the key.
type coreTxn struct{ tx *core.Tx }

func (t coreTxn) Get(key string) ([]byte, bool, error) { return t.tx.Get(key) }
func (t coreTxn) Put(key string, value []byte) error   { return t.tx.Put(key, value) }

func (t coreTxn) Add(key string, delta int64) error {
	return rmw(t, write{Key: key, Verb: verbAdd, Delta: delta})
}

func (t coreTxn) PushCap(key string, id int64, cap int) error {
	return rmw(t, write{Key: key, Verb: verbPush, ID: id, Cap: cap})
}

func (e *coreExec) guarantee() Guarantee {
	return Guarantee{Atomic: true, Isolated: true, ExactlyOnce: true,
		Note: "deterministic transactional dataflow (Styx-like): serializable, log-ordered, no 2PC"}
}

// submit pipelines natively: the runtime acknowledges once the transaction
// is durably appended — concurrent submissions share group log appends,
// amortizing the modeled SequenceDelay — and the handle, the runtime's own
// (its Seq is the log position handleSeq reads), resolves when the
// scheduled transaction commits. Handles survive Crash/Recover: the
// request is already in the log, so replay resolves them exactly once.
func (e *coreExec) submit(op Op, reqID string, args []byte, tr *fabric.Trace) Handle {
	if op.ReadOnly {
		// Queries execute against a consistent cut of the committed MVCC
		// view: no log append, no write-schedule slot, no conflict chain
		// entry — the write pipeline never sees them. They run off the
		// caller's goroutine, key derivation included, so read-heavy
		// clients still pipeline and acceptance costs one spawn.
		h := newOpHandle()
		go func() {
			h.resolve(e.rt.SubmitReadOnly(reqID, op.Name, e.c.app.keysOf(op, args), args, tr))
		}()
		return h
	}
	h, err := e.rt.SubmitAsync(reqID, op.Name, e.c.app.keysOf(op, args), args, tr)
	if err != nil {
		var oe *core.OverloadError
		if errors.As(err, &oe) {
			return shedHandle(Deterministic, oe.Pending, oe.RetryAfter)
		}
		return resolvedHandle(nil, err)
	}
	return h
}

func (e *coreExec) read(key string) ([]byte, bool, error) {
	raw, ok := e.rt.Read(key)
	return raw, ok, nil
}

func (e *coreExec) settle() error { return e.rt.Quiesce(10 * time.Second) }
func (e *coreExec) close()        { e.rt.Stop() }
