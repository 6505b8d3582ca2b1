package tca

import (
	"bytes"
	"encoding/json"
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
// message per touched partition rather than per key:
//
//  1. submit appends the op to the app's topic (acceptance, not
//     completion);
//  2. the txn function groups the declared keys by partition and sends
//     one read message per group, to the group's first key;
//  3. that key function answers the whole group in one response, reading
//     its partition's other key functions through statefun.Ctx.StateOf;
//  4. when the last response arrives the body runs over the gathered
//     snapshot, and its writes go out as one write batch per touched
//     partition, applied the same way: a Put as a full value, an Add as a
//     commutative delta, a PushCap as a bounded-list merge.
//
// A scatter sends at most sfParallelism messages, so no op, however wide,
// nears the runtime's per-invocation send budget (statefun.MaxSends).
//
// Every message is exactly-once (the statefun runtime's idempotent
// produce), so deltas never double-apply — but the snapshot is gathered
// asynchronously and writes land asynchronously: the partitions are read
// at different times and there is no isolation across keys, the §4.2 gap
// E7/E17 demonstrate.
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
	// to a key on its own partition).
	handlerErrs    atomic.Int64
	lastHandlerErr atomic.Value // sfErrBox
}

// sfErrBox wraps handler errors in one concrete type: atomic.Value
// panics on stores of inconsistently typed values, and handler errors
// legitimately vary in dynamic type.
type sfErrBox struct{ err error }

// sfMsg is the wire format of the choreography's messages: the "op" a
// txn function receives on submit, a "read" listing one partition's keys,
// its "resp" carrying their values, and a "write" batch of one
// partition's writes, in buffer order. Probes are the one exception: a
// probe id is its own payload, and its answer on the egress is a keyVal.
type sfMsg struct {
	Kind   string   `json:"k,omitempty"` // "op", "read", "resp", "write"
	Op     string   `json:"o,omitempty"`
	Args   []byte   `json:"a,omitempty"`
	Keys   []string `json:"ks,omitempty"`
	Vals   []keyVal `json:"vs,omitempty"`
	Writes []write  `json:"w,omitempty"`
}

const sfProbePrefix = "probe-"

// sfDone is the choreography's result record, emitted on the egress under
// the key "done/<reqID>" when the txn function has run the body and
// shipped its write batches. Err carries a body failure — the drop an
// asynchronous cell could never report to its caller before Submit.
type sfDone struct {
	Val []byte `json:"v,omitempty"`
	Err string `json:"e,omitempty"`
}

// sfPending pairs an in-flight handle with its trace (the result hop is
// charged at resolution).
type sfPending struct {
	h  *opHandle
	tr *fabric.Trace
}

// sfDonePrefix keys result records on the egress; sfResultTimeout bounds
// how long a Submit handle waits for its result record. It is a hang
// backstop, not a rejection policy — an accepted op is exactly-once in
// the ingress and will still apply even if its handle times out — so the
// bound is generous (3× Settle's quiesce timeout) to keep a deep
// pipelined backlog on a loaded machine from resolving live handles
// spuriously.
const (
	sfDonePrefix    = "done/"
	sfResultTimeout = 30 * time.Second
)

// sfKeyFn owns one key's state; sfCoordFn, the "txn" function, is keyed
// by request id and coordinates one op.
const (
	sfKeyFn   = "key"
	sfCoordFn = "txn"
)

// sfParallelism is the cell's partition count, and so the most messages
// one scatter sends.
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
			var resp keyVal
			if json.Unmarshal(value, &resp) != nil {
				return
			}
			if ch, ok := c.takeProbe(key); ok {
				ch <- resp // buffered, and taken exactly once: never blocks
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
	var out sfDone
	if json.Unmarshal(value, &out) != nil {
		return
	}
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
	if out.Err != "" {
		p.h.resolve(nil, fmt.Errorf("tca: statefun op dropped: %s", out.Err))
		return
	}
	p.h.resolve(out.Val, nil)
}

// keyHandler owns one key's state (scoped under the function instance).
// A read or write message addressed to it serves its whole partition's
// group of keys through StateOf.
func (c *statefunExec) keyHandler(ctx *statefun.Ctx, payload []byte) error {
	if bytes.HasPrefix(payload, []byte(sfProbePrefix)) {
		val, found := ctx.Get("v")
		out, _ := json.Marshal(keyVal{Val: val, Found: found})
		ctx.SendEgress(string(payload), out)
		return nil
	}
	var m sfMsg
	if err := json.Unmarshal(payload, &m); err != nil {
		return err
	}
	switch m.Kind {
	case "read":
		resp := sfMsg{Kind: "resp", Vals: make([]keyVal, len(m.Keys))}
		for i, k := range m.Keys {
			st, err := ctx.StateOf(sfKeyRef(k))
			if err != nil {
				return err
			}
			val, found := st.Get("v")
			resp.Vals[i] = keyVal{Key: k, Val: val, Found: found}
		}
		reply, _ := json.Marshal(resp)
		return ctx.Send(ctx.Caller, reply)
	case "write":
		for _, w := range m.Writes {
			st, err := ctx.StateOf(sfKeyRef(w.Key))
			if err != nil {
				return err
			}
			val, _ := w.apply(st.Get("v"))
			st.Set("v", val)
		}
	}
	return nil
}

// txnHandler coordinates one op: it sends one read per touched partition,
// gathers the responses in its scoped state (keyed by the reqID), and runs
// the body when the last one lands.
func (c *statefunExec) txnHandler(ctx *statefun.Ctx, payload []byte) error {
	var m sfMsg
	if err := json.Unmarshal(payload, &m); err != nil {
		return err
	}
	switch m.Kind {
	case "op":
		op, err := c.c.op(m.Op)
		if err != nil {
			return err
		}
		keys := c.c.app.keysOf(op, m.Args)
		if len(keys) == 0 {
			return c.execute(ctx, op, m.Args, nil)
		}
		groups := byShard(keys, sfParallelism, func(k string) string { return k }, c.partitionOf)
		for _, group := range groups {
			read, _ := json.Marshal(sfMsg{Kind: "read", Keys: group})
			if err := ctx.Send(sfKeyRef(group[0]), read); err != nil {
				return err
			}
		}
		ctx.Set("op", payload)
		ctx.Set("want", EncodeInt(int64(len(groups))))
		ctx.Set("got", EncodeInt(0))
	case "resp":
		for _, v := range m.Vals {
			if v.Found {
				ctx.Set("val/"+v.Key, v.Val)
			}
		}
		raw, _ := ctx.Get("got")
		got := DecodeInt(raw) + 1
		ctx.Set("got", EncodeInt(got))
		wantRaw, ok := ctx.Get("want")
		if !ok || got < DecodeInt(wantRaw) {
			return nil
		}
		opRaw, ok := ctx.Get("op")
		if !ok {
			return nil
		}
		var om sfMsg
		if err := json.Unmarshal(opRaw, &om); err != nil {
			return err
		}
		op, err := c.c.op(om.Op)
		if err != nil {
			return err
		}
		keys := c.c.app.keysOf(op, om.Args)
		snapshot := make(map[string]keyVal, len(keys))
		for _, k := range keys {
			v, found := ctx.Get("val/" + k)
			snapshot[k] = keyVal{Val: v, Found: found}
			ctx.Del("val/" + k)
		}
		ctx.Del("op")
		ctx.Del("want")
		ctx.Del("got")
		return c.execute(ctx, op, om.Args, snapshot)
	}
	return nil
}

// partitionOf is the partition of key's key function.
func (c *statefunExec) partitionOf(key string) int { return c.sf.PartitionOf(sfKeyRef(key)) }

func sfKeyRef(key string) statefun.Ref { return statefun.Ref{Type: sfKeyFn, ID: key} }

// execute runs the body over the gathered snapshot, sends one write batch
// per touched partition, and emits the result record. Body errors drop
// the op — the honest dataflow failure mode — but the result record
// carries the error, so a Submit handle learns about the drop. The txn
// function instance is keyed by the request id.
func (c *statefunExec) execute(ctx *statefun.Ctx, op Op, args []byte, snapshot map[string]keyVal) error {
	tx := &snapshotTxn{snapshot: snapshot}
	result, err := c.c.runBody(op, ctx.Self.ID, tx, args)
	if err != nil {
		c.sendDone(ctx, nil, err)
		return nil
	}
	// A query's buffer is empty (runBody refuses its writes), so it is
	// answered by the gather alone. Otherwise every batch is in its
	// partition's log before the result record is emitted (the sends are
	// exactly-once produces), so a read submitted once the handle
	// resolves gathers a snapshot that includes this op's writes.
	for _, batch := range byShard(tx.writeBuffer, sfParallelism, func(w write) string { return w.Key }, c.partitionOf) {
		msg, _ := json.Marshal(sfMsg{Kind: "write", Writes: batch})
		if err := ctx.Send(sfKeyRef(batch[0].Key), msg); err != nil {
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
	out := sfDone{Val: val}
	if err != nil {
		out.Err = err.Error()
	}
	raw, _ := json.Marshal(out)
	ctx.SendEgress(sfDonePrefix+ctx.Self.ID, raw)
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
	payload, _ := json.Marshal(sfMsg{Kind: "op", Op: op.Name, Args: args})
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
