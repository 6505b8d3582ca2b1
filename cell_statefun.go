package tca

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tca/internal/fabric"
	"tca/internal/statefun"
)

// statefunExec runs an App on stateful dataflow functions. Every key's
// state lives in a keyed "key" function; an op runs as a message
// choreography coordinated by a per-request "txn" function, with one
// message per touched partition other than the txn function's own:
//
//  1. submit appends the op to the app's topic (acceptance, not
//     completion);
//  2. the txn function groups the declared keys by partition and sends
//     one read message to the group on the other partition, if any, to
//     its first key;
//  3. that key function answers the whole group in one response, reading
//     its partition's other key functions through statefun.Ctx.StateOf;
//  4. when the response arrives (at once, if no read was sent) the
//     txn function reads its own partition's group the same way, runs the
//     body over the snapshot, applies its own partition's writes in place
//     and sends the other partition's write batch, if any, applied the
//     same way: a Put as a full value, an Add as a commutative delta, a
//     PushCap as a bounded-list merge.
//
// A scatter sends at most sfParallelism−1 messages, so no op, however
// wide, nears the runtime's per-invocation send budget (statefun.MaxSends).
//
// Every message is exactly-once (the statefun runtime's idempotent
// produce), so deltas never double-apply — but an op that spans both
// partitions reads the other one at a different time from when it writes
// it: no isolation across keys, the §4.2 gap E7/E17 show. Only an op whose
// keys all live on its txn function's partition runs in one invocation.
type statefunExec struct {
	c  *cell
	sf *statefun.App

	probeSeq atomic.Int64
	mu       sync.Mutex
	probes   map[string]chan keyVal

	// resolvers holds the in-flight Submit handles by reqID, resolved when
	// the choreography's result record lands on the egress. The egress
	// callback is at-least-once, so resolution is remove-then-resolve (and
	// the handle itself resolves idempotently). Its size is the cell's
	// acknowledged-not-yet-applied watermark: maxInflight bounds it
	// (Options.MaxPending; 0 = unbounded), and submit sheds at the bound —
	// before the ingress produce, so a shed op never enters the dataflow.
	resMu       sync.Mutex
	resolvers   map[string]sfPending
	maxInflight int

	// handlerErrs counts handler invocations that returned an error —
	// the cell's honest drop count, which the conformance tests pin to
	// zero (in particular: statefun.ErrTooManySends must be unreachable,
	// and so must statefun.ErrOtherPartition, since every group is sent
	// to a key on its own partition or served in place on the txn
	// function's own).
	handlerErrs    atomic.Int64
	lastHandlerErr atomic.Value // sfErrBox
}

// sfErrBox wraps handler errors in one concrete type: atomic.Value
// panics on stores of inconsistently typed values, and handler errors
// legitimately vary in dynamic type.
type sfErrBox struct{ err error }

// A probe is the one payload that is not an sfMsg (the frame in
// cell_write.go, shared with the microservices cell): a probe id is its own
// payload, and its answer on the egress is the key's found byte (1 or 0)
// followed by its value.
const sfProbePrefix = "probe-"

// sfPending pairs an in-flight handle with its trace (the result hop is
// charged at resolution).
type sfPending struct {
	h  *opHandle
	tr *fabric.Trace
}

// sfDonePrefix keys result records on the egress. A result record is
// sfDoneOK and the body's result, or sfDoneErr and the text of the body's
// error — the drop an asynchronous cell could never report to its caller
// before Submit. sfResultTimeout bounds how long a Submit handle waits
// for its result record. It is a hang backstop, not a rejection policy —
// an accepted op is exactly-once in the ingress and will still apply even
// if its handle times out — so the bound is generous (3× Settle's quiesce
// timeout) to keep a deep pipelined backlog on a loaded machine from
// resolving live handles spuriously.
const (
	sfDonePrefix        = "done/"
	sfDoneOK, sfDoneErr = byte(0), byte(1)
	sfResultTimeout     = 30 * time.Second
)

// sfKeyFn owns one key's state; sfCoordFn, the "txn" function, is keyed
// by request id and coordinates one op.
const (
	sfKeyFn   = "key"
	sfCoordFn = "txn"
)

// sfParallelism is the cell's partition count, and so one more than the
// most messages one scatter sends. At 2, an op awaits at most one
// response; a larger count would need a gather counter again.
const sfParallelism = 2

// sfDefaultMaxInflight is the default bound on acknowledged-not-yet-applied
// ingress records (Options.MaxPending == 0). The dataflow cell pipelines
// deeply by design, so its default headroom is wider than the worker-pool
// cells'; what matters is that it is finite — open-loop overload otherwise
// grows the ingress backlog, and every apply latency, without bound.
const sfDefaultMaxInflight = 1024

func newStatefunExec(cl *cell, env *Env, opts Options) (*statefunExec, error) {
	c := &statefunExec{
		c:           cl,
		probes:      make(map[string]chan keyVal),
		resolvers:   make(map[string]sfPending),
		maxInflight: pendingBound(opts.MaxPending, sfDefaultMaxInflight),
	}
	name := "cell-" + cl.app.Name()
	sf := statefun.NewApp(env.Broker, statefun.Config{
		Name: name, Parallelism: sfParallelism, Ingress: name + "-ingress",
		// OnEgress may run on both partitions' goroutines at once: the
		// resolver and probe maps are taken under their locks, and a
		// probe channel is buffered and taken once.
		OnEgress: func(key string, value []byte) {
			if req, ok := strings.CutPrefix(key, sfDonePrefix); ok {
				c.resolveDone(req, value)
				return
			}
			if ch, ok := c.takeProbe(key); ok && len(value) > 0 {
				ch <- keyVal{Found: value[0] == 1, Val: nonEmpty(value[1:])} // buffered, taken once: never blocks
			}
		},
	})
	sf.Register(sfKeyFn, c.trap(c.keyHandler))
	sf.Register(sfCoordFn, c.trap(c.txnHandler))
	if err := sf.Start(); err != nil {
		return nil, err
	}
	c.sf = sf
	return c, nil
}

// trap wraps a handler to count (and keep) errors: asynchronous cells drop
// failed ops — the honest dataflow failure mode — but the tests assert the
// drop count stays zero on conforming workloads.
func (c *statefunExec) trap(h statefun.Handler) statefun.Handler {
	return func(ctx *statefun.Ctx, payload []byte) error {
		err := h(ctx, payload)
		if err != nil {
			c.handlerErrs.Add(1)
			c.lastHandlerErr.Store(sfErrBox{err})
		}
		return err
	}
}

// resolveDone completes the in-flight handle whose result record landed.
func (c *statefunExec) resolveDone(reqID string, value []byte) {
	c.resMu.Lock()
	p, ok := c.resolvers[reqID]
	if ok {
		delete(c.resolvers, reqID)
	}
	c.resMu.Unlock()
	if !ok {
		return // duplicate delivery or an abandoned (timed-out) handle
	}
	p.tr.Charge(time.Millisecond / 2) // result record -> client
	if len(value) == 0 || value[0] == sfDoneErr {
		p.h.resolve(nil, fmt.Errorf("tca: statefun op dropped: %s", value[1:]))
		return
	}
	p.h.resolve(nonEmpty(value[1:]), nil)
}

// keyHandler owns one key's state (scoped under the function instance).
// A read or write message addressed to it serves its whole partition's
// group of keys through StateOf.
func (c *statefunExec) keyHandler(ctx *statefun.Ctx, payload []byte) error {
	if bytes.HasPrefix(payload, []byte(sfProbePrefix)) {
		val, ok := ctx.Get("v")
		ctx.SendEgress(string(payload), append([]byte{flagByte(ok)}, val...))
		return nil
	}
	m, err := decodeSfMsg(payload)
	if err != nil {
		return err
	}
	switch m.Kind {
	case sfRead:
		vals, err := readGroup(ctx, m.Keys)
		if err != nil {
			return err
		}
		return ctx.Send(ctx.Caller, sfMsg{Kind: sfResp, Vals: vals}.encode())
	case sfWrite:
		return applyGroup(ctx, m.Writes)
	}
	return nil
}

// readGroup reads keys on the invocation's own partition: a key
// function's read, or a coordinator's in-place read.
func readGroup(ctx *statefun.Ctx, keys []string) ([]keyVal, error) {
	vals := make([]keyVal, len(keys))
	for i, k := range keys {
		st, err := ctx.StateOf(sfKeyRef(k))
		if err != nil {
			return nil, err
		}
		val, found := st.Get("v")
		vals[i] = keyVal{Key: k, Val: val, Found: found}
	}
	return vals, nil
}

// applyGroup applies a write batch, in order, on the invocation's own
// partition: a key function's write, or a coordinator's in-place batch.
func applyGroup(ctx *statefun.Ctx, writes []write) error {
	for _, w := range writes {
		st, err := ctx.StateOf(sfKeyRef(w.Key))
		if err != nil {
			return err
		}
		val, _ := w.apply(st.Get("v"))
		st.Set("v", val)
	}
	return nil
}

// txnHandler coordinates one op. On the op it sends one read to the
// other partition if the op touches it, and keeps the op in its scoped
// state (keyed by the reqID) until the response lands. The response runs
// the op, or the op itself does if it touches no other partition.
func (c *statefunExec) txnHandler(ctx *statefun.Ctx, payload []byte) error {
	m, err := decodeSfMsg(payload)
	if err != nil {
		return err
	}
	first, remote := m.Kind == sfOp, m.Vals
	if !first {
		payload, _ = ctx.Get("op")
		ctx.Del("op")
		if m, err = decodeSfMsg(payload); err != nil {
			return err
		}
	}
	op, err := c.c.op(m.Op)
	if err != nil {
		return err
	}
	keys := c.c.app.keysOf(op, m.Args)
	if first {
		own := c.sf.PartitionOf(ctx.Self)
		for _, group := range byShard(keys, sfParallelism, func(k string) string { return k }, c.partitionOf) {
			if c.partitionOf(group[0]) == own {
				continue
			}
			if err := ctx.Send(sfKeyRef(group[0]), sfMsg{Kind: sfRead, Keys: group}.encode()); err != nil {
				return err
			}
			ctx.Set("op", payload)
			return nil // sfParallelism is 2: this is the only other group
		}
	}
	return c.execute(ctx, op, m.Args, keys, remote)
}

// partitionOf is the partition of key's key function.
func (c *statefunExec) partitionOf(key string) int { return c.sf.PartitionOf(sfKeyRef(key)) }

func sfKeyRef(key string) statefun.Ref { return statefun.Ref{Type: sfKeyFn, ID: key} }

// execute reads the coordinator's own partition in place, so that half of
// the op is read and written in one invocation, completes the snapshot
// with the other partition's response (remote), runs the body, applies
// its own partition's writes in place, sends the other partition's write
// batch, and emits the result record. Body errors drop the op — the
// honest dataflow failure mode — but the result record carries the error.
func (c *statefunExec) execute(ctx *statefun.Ctx, op Op, args []byte, keys []string, remote []keyVal) error {
	own := c.sf.PartitionOf(ctx.Self)
	snapshot := make(map[string]keyVal, len(keys))
	for _, v := range remote {
		snapshot[v.Key] = v
	}
	var local []string
	for _, k := range keys {
		if c.partitionOf(k) == own {
			local = append(local, k)
		}
	}
	vals, err := readGroup(ctx, local)
	if err != nil {
		return err
	}
	for _, v := range vals {
		snapshot[v.Key] = v
	}
	tx := &snapshotTxn{snapshot: snapshot}
	result, err := c.c.runBody(op, ctx.Self.ID, tx, args)
	if err != nil {
		c.sendDone(ctx, nil, err)
		return nil
	}
	// A query's buffer is empty (runBody refuses its writes). Otherwise
	// every batch is applied or in its partition's log before the result
	// record is emitted (the sends are exactly-once produces), so a read
	// submitted once the handle resolves sees this op's writes.
	for _, batch := range byShard(tx.writeBuffer, sfParallelism, func(w write) string { return w.Key }, c.partitionOf) {
		if c.partitionOf(batch[0].Key) == own {
			if err := applyGroup(ctx, batch); err != nil {
				return err
			}
			continue
		}
		if err := ctx.Send(sfKeyRef(batch[0].Key), sfMsg{Kind: sfWrite, Writes: batch}.encode()); err != nil {
			return err
		}
	}
	c.sendDone(ctx, result, nil)
	return nil
}

// sendDone emits the choreography's result record on the egress. The txn
// function instance is keyed by the reqID, so Self.ID addresses the
// in-flight handle.
func (c *statefunExec) sendDone(ctx *statefun.Ctx, val []byte, err error) {
	out := append([]byte{sfDoneOK}, val...)
	if err != nil {
		out = append([]byte{sfDoneErr}, err.Error()...)
	}
	ctx.SendEgress(sfDonePrefix+ctx.Self.ID, out)
}

func (c *statefunExec) guarantee() Guarantee {
	return Guarantee{Atomic: true, Isolated: false, ExactlyOnce: true,
		Note: "exactly-once processing; NO isolation across functions (§4.2) — ops settle eventually"}
}

// submit appends the op to the ingress — acceptance, one produce hop —
// and the handle resolves when the choreography's result record lands on
// the egress: the body ran over its gathered snapshot and every write
// batch is durably in its partition's log. That is the
// cell's honest accept/apply gap, now visible as two latency numbers per
// request (E20). Per-key settlement of the writes still needs Settle;
// the guarantee is unchanged.
func (c *statefunExec) submit(op Op, reqID string, args []byte, tr *fabric.Trace) Handle {
	h := newOpHandle()
	c.resMu.Lock()
	if prev, dup := c.resolvers[reqID]; dup {
		// A retry of an in-flight request joins it instead of stranding
		// the first handle: one choreography, one result record, every
		// caller resolved by it. (Retries of *completed* requests
		// re-execute — the cell has no result cache; its idempotence is
		// per message, not per request, which Guarantee reports.) The
		// retry's own produce hop is charged here; the result hop lands
		// on the first caller's trace, where the result record resolves.
		c.resMu.Unlock()
		tr.Charge(time.Millisecond / 2)
		return prev.h
	}
	if c.maxInflight > 0 && len(c.resolvers) >= c.maxInflight {
		// The acknowledged-not-yet-applied watermark is at its bound:
		// shed before the ingress produce, so the op never enters the
		// dataflow — nothing to un-apply, nothing for the auditor.
		depth := len(c.resolvers)
		c.resMu.Unlock()
		return shedHandle(StatefulDataflow, depth, time.Millisecond)
	}
	c.resolvers[reqID] = sfPending{h: h, tr: tr}
	c.resMu.Unlock()
	payload := sfMsg{Kind: sfOp, Op: op.Name, Args: args}.encode()
	tr.Charge(time.Millisecond / 2) // acceptance: one produce hop
	if err := c.sf.SendToIngress(statefun.Ref{Type: sfCoordFn, ID: reqID}, payload); err != nil {
		c.resMu.Lock()
		delete(c.resolvers, reqID)
		c.resMu.Unlock()
		h.resolve(nil, err)
		return h
	}
	// Watchdog: a result record that never lands (the cell stopped, a
	// poison payload) must not hang the handle forever.
	go func() {
		timer := time.NewTimer(sfResultTimeout)
		defer timer.Stop()
		select {
		case <-h.done:
		case <-timer.C:
			c.resMu.Lock()
			delete(c.resolvers, reqID)
			c.resMu.Unlock()
			h.resolve(nil, errors.New("tca: statefun result timeout"))
		}
	}()
	return h
}

// read settles, then probes the key function's scoped state through the
// egress.
func (c *statefunExec) read(key string) ([]byte, bool, error) {
	if err := c.settle(); err != nil {
		return nil, false, err
	}
	return c.peek(key)
}

// peek reads a key without settling — the dirty read an external observer
// performs mid-flight (experiment E7).
func (c *statefunExec) peek(key string) ([]byte, bool, error) {
	probe := fmt.Sprintf("%s%d", sfProbePrefix, c.probeSeq.Add(1))
	ch := make(chan keyVal, 1)
	c.mu.Lock()
	c.probes[probe] = ch
	c.mu.Unlock()
	err := c.sf.SendToIngress(statefun.Ref{Type: sfKeyFn, ID: key}, []byte(probe))
	if err == nil {
		select {
		case resp := <-ch:
			return resp.Val, resp.Found, nil
		case <-time.After(5 * time.Second):
			err = errors.New("tca: statefun read probe timeout")
		}
	}
	c.takeProbe(probe) // unanswered: nothing else would ever remove it
	return nil, false, err
}

// takeProbe removes and returns a registered probe's reply channel.
func (c *statefunExec) takeProbe(probe string) (chan keyVal, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch, ok := c.probes[probe]
	delete(c.probes, probe)
	return ch, ok
}

func (c *statefunExec) settle() error { return c.sf.WaitIdle(10 * time.Second) }
func (c *statefunExec) close()        { c.sf.Stop() }
