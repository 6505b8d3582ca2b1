package tca

import (
	"tca/internal/actor"
	"tca/internal/fabric"
	"tca/internal/store"
)

// actorExec runs an App on the actor model with Orleans-style
// transactions: every key is a virtual actor's transactional state, and an
// op runs as one ACID transaction (2PL + 2PC) across the actors it
// touches. Serializable but blocking — lock acquisition plus two commit
// rounds per participant node is exactly the coordination cost E1 and the
// actor rows of E17/E20 measure. 2PL + 2PC is blocking per transaction, so pipelining is the
// pool's client-side concurrency — and with it come the lock conflicts,
// wounds, and retries the serial drivers never provoked.
type actorExec struct {
	c     *cell
	sys   *actor.System
	coord *actor.Coordinator
}

func newActorExec(c *cell, env *Env) *actorExec {
	sys := actor.NewSystem(env.Cluster, actor.Config{})
	return &actorExec{c: c, sys: sys, coord: actor.NewCoordinator(sys)}
}

func (e *actorExec) ref(key string) actor.Ref {
	return actor.Ref{Type: e.c.app.Name(), ID: key}
}

// actorTxn adapts ActorTxn to the Txn surface. Values live in a single
// "v" column of the actor's transactional row (the store copies rows, so
// the string conversion also decouples the caller's byte slice). Add and
// PushCap are plain read-modify-writes: the 2PL exclusive lock on the key
// actor serializes them.
type actorTxn struct {
	e  *actorExec
	tx *actor.ActorTxn
}

func (t *actorTxn) Get(key string) ([]byte, bool, error) {
	row, ok, err := t.tx.Read(t.e.ref(key))
	if err != nil || !ok {
		return nil, false, err
	}
	return []byte(row.Str("v")), true, nil
}

func (t *actorTxn) Put(key string, value []byte) error {
	return t.tx.Write(t.e.ref(key), store.Row{"v": string(value)})
}

func (t *actorTxn) Add(key string, delta int64) error {
	return rmw(t, write{Key: key, Verb: verbAdd, Delta: delta})
}

func (t *actorTxn) PushCap(key string, id int64, cap int) error {
	return rmw(t, write{Key: key, Verb: verbPush, ID: id, Cap: cap})
}

func (e *actorExec) guarantee() Guarantee {
	return Guarantee{Atomic: true, Isolated: true, ExactlyOnce: false,
		Note: "Orleans-style 2PL+2PC: serializable but blocking and retry-heavy under contention"}
}

// run is one actor transaction: it returns at commit, or when the
// coordinator's retries exhaust.
func (e *actorExec) run(op Op, reqID string, args []byte, tr *fabric.Trace) ([]byte, error) {
	var result []byte
	body := func(t *actor.ActorTxn) error {
		var bodyErr error
		result, bodyErr = e.c.runBody(op, reqID, &actorTxn{e: e, tx: t}, args)
		return bodyErr
	}
	var err error
	if op.ReadOnly {
		// Queries take shared 2PL locks and skip the prepare/commit rounds
		// — the read-only optimization of 2PC, two round trips per
		// participant node saved.
		err = e.coord.RunReadOnly(tr, body)
	} else {
		err = e.coord.Run(tr, body)
	}
	if err != nil {
		return nil, err
	}
	return result, nil
}

func (e *actorExec) read(key string) ([]byte, bool, error) {
	row, ok, err := e.coord.ReadState(e.ref(key))
	if err != nil || !ok {
		return nil, false, err
	}
	return []byte(row.Str("v")), true, nil
}

func (e *actorExec) settle() error { return nil }
func (e *actorExec) close()        { e.sys.Stop() }
