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
// choreography coordinated by a per-request "txn" function:
//
//  1. submit appends the op to the ingress (acceptance, not completion);
//  2. the txn function sends a read request to each declared key;
//  3. key functions reply with their current values;
//  4. when the last reply arrives the body runs over the gathered
//     snapshot, and its writes go out as messages, one write record each:
//     the key function applies a Put as a full value, an Add as a
//     commutative delta, a PushCap as a bounded-list merge.
//
// Wide transactions chunk: the runtime budgets statefun.MaxSends sends
// per invocation, so both the read-scatter and the write-emit reserve the
// last slot for a SendSelf continuation and resume from the
// continuation's own invocation (cursor and pending writes held in the
// txn function's scoped state, checkpoint-consistent with the messages).
// A compose-post to 128 followers is no longer a hard failure — it is
// ⌈129/31⌉ scatter rounds and ⌈129/31⌉ emit rounds, each exactly-once.
//
// Every message is exactly-once (the statefun runtime's idempotent
// produce), so deltas never double-apply — but the snapshot is gathered
// asynchronously and writes land asynchronously: there is no isolation
// across keys, the §4.2 gap E7/E17 demonstrate. Chunking widens the
// gather window, it does not change the guarantee.
type statefunExec struct {
	c  *cell
	sf *statefun.App

	probeSeq atomic.Int64
	mu       sync.Mutex
	probes   map[string]chan sfMsg

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
	// zero (in particular: statefun.ErrTooManySends must be unreachable
	// now that both choreography phases chunk).
	handlerErrs    atomic.Int64
	lastHandlerErr atomic.Value // sfErrBox
}

// sfErrBox wraps handler errors in one concrete type: atomic.Value
// panics on stores of inconsistently typed values, and handler errors
// legitimately vary in dynamic type.
type sfErrBox struct{ err error }

// sfMsg is the wire format of what a txn function receives and of a key
// function's answers (a "resp" to the txn function, a probe's value on the
// egress). A key function itself receives no sfMsg: its payload is either a
// write record as JSON — the write message is the record — or one of two
// control words, sfReadReq or a probe id, which need no encoding at all.
type sfMsg struct {
	Kind  string `json:"k,omitempty"` // "op", "cont", "resp", "flush"
	Op    string `json:"o,omitempty"`
	Args  []byte `json:"a,omitempty"`
	Key   string `json:"key,omitempty"`
	Val   []byte `json:"v,omitempty"`
	Found bool   `json:"f,omitempty"`
}

var sfReadReq = []byte("read")

const sfProbePrefix = "probe-"

// sfDone is the choreography's result record, emitted on the egress under
// the key "done/<reqID>" when the txn function has run the body and
// shipped the last write chunk. Err carries a body failure — the drop an
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

const (
	sfKeyFn = "key"
	sfTxnFn = "txn"
)

// sfDefaultMaxInflight is the default bound on acknowledged-not-yet-applied
// ingress records (Options.MaxPending == 0). The dataflow cell pipelines
// deeply by design, so its default headroom is wider than the worker-pool
// cells'; what matters is that it is finite — open-loop overload otherwise
// grows the ingress backlog, and every apply latency, without bound.
const sfDefaultMaxInflight = 1024

func newStatefunExec(cl *cell, env *Env, opts Options) (*statefunExec, error) {
	c := &statefunExec{
		c:           cl,
		probes:      make(map[string]chan sfMsg),
		resolvers:   make(map[string]sfPending),
		maxInflight: pendingBound(opts.MaxPending, sfDefaultMaxInflight),
	}
	name := "cell-" + cl.app.Name()
	sf := statefun.NewApp(env.Broker, statefun.Config{
		Name: name, Parallelism: 2, Ingress: name + "-ingress",
		OnEgress: func(key string, value []byte) {
			if req, ok := strings.CutPrefix(key, sfDonePrefix); ok {
				c.resolveDone(req, value)
				return
			}
			var resp sfMsg
			if json.Unmarshal(value, &resp) != nil {
				return
			}
			if ch, ok := c.takeProbe(key); ok {
				ch <- resp // buffered, and taken exactly once: never blocks
			}
		},
	})
	sf.Register(sfKeyFn, c.trap(c.keyHandler))
	sf.Register(sfTxnFn, c.trap(c.txnHandler))
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
func (c *statefunExec) keyHandler(ctx *statefun.Ctx, payload []byte) error {
	switch {
	case bytes.Equal(payload, sfReadReq):
		val, found := ctx.Get("v")
		reply, _ := json.Marshal(sfMsg{Kind: "resp", Key: ctx.Self.ID, Val: val, Found: found})
		return ctx.Send(ctx.Caller, reply)
	case bytes.HasPrefix(payload, []byte(sfProbePrefix)):
		val, found := ctx.Get("v")
		out, _ := json.Marshal(sfMsg{Val: val, Found: found})
		ctx.SendEgress(string(payload), out)
	default:
		var w write
		if err := json.Unmarshal(payload, &w); err != nil {
			return err
		}
		val, _ := w.apply(ctx.Get("v"))
		ctx.Set("v", val)
	}
	return nil
}

// txnHandler coordinates one op: gathers the declared snapshot (chunked
// across continuation rounds past the send budget), runs the body, and
// emits the writes (chunked the same way). Its scoped state (keyed by the
// reqID) holds the pending op, the scatter cursor, and the un-emitted
// writes between rounds.
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
		ctx.Set("op", payload)
		ctx.Set("want", EncodeInt(int64(len(keys))))
		ctx.Set("got", EncodeInt(0))
		return c.scatterReads(ctx, keys, 0)
	case "cont":
		// Continuation of the read scatter: recompute the declared key
		// set from the stored op and resume from the cursor.
		opRaw, ok := ctx.Get("op")
		if !ok {
			return nil // already completed (replayed continuation)
		}
		op, args, err := c.pendingOp(opRaw)
		if err != nil {
			return err
		}
		cursorRaw, _ := ctx.Get("next")
		return c.scatterReads(ctx, c.c.app.keysOf(op, args), int(DecodeInt(cursorRaw)))
	case "resp":
		if m.Found {
			ctx.Set("val/"+m.Key, m.Val)
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
		op, args, err := c.pendingOp(opRaw)
		if err != nil {
			return err
		}
		snapshot := make(map[string][]byte)
		for _, k := range c.c.app.keysOf(op, args) {
			if v, found := ctx.Get("val/" + k); found {
				snapshot[k] = v
			}
			ctx.Del("val/" + k)
		}
		ctx.Del("op")
		ctx.Del("want")
		ctx.Del("got")
		ctx.Del("next")
		return c.execute(ctx, op, args, snapshot)
	case "flush":
		// Continuation of the write emit: ship the next chunk of the
		// writes stored by the previous round.
		pendRaw, ok := ctx.Get("pend")
		if !ok {
			return nil // already flushed (replayed continuation)
		}
		var writes []write
		if err := json.Unmarshal(pendRaw, &writes); err != nil {
			return err
		}
		return c.emitWrites(ctx, writes)
	}
	return nil
}

// pendingOp decodes the "op" message a choreography keeps in scoped state
// between rounds and resolves its op.
func (c *statefunExec) pendingOp(raw []byte) (Op, []byte, error) {
	var m sfMsg
	if err := json.Unmarshal(raw, &m); err != nil {
		return Op{}, nil, err
	}
	op, err := c.c.op(m.Op)
	return op, m.Args, err
}

// scatterReads sends read requests for keys[from:], reserving the last
// send slot for a SendSelf continuation when the remainder exceeds the
// invocation's budget. The cursor persists in scoped state so the
// continuation round resumes where this one stopped.
func (c *statefunExec) scatterReads(ctx *statefun.Ctx, keys []string, from int) error {
	n := len(keys) - from
	budget := ctx.SendsRemaining()
	chunked := n > budget
	if chunked {
		n = budget - 1
	}
	for _, k := range keys[from : from+n] {
		if err := ctx.Send(statefun.Ref{Type: sfKeyFn, ID: k}, sfReadReq); err != nil {
			return err
		}
	}
	if !chunked {
		return nil
	}
	ctx.Set("next", EncodeInt(int64(from+n)))
	cont, _ := json.Marshal(sfMsg{Kind: "cont"})
	return ctx.SendSelf(cont)
}

// emitWrites ships writes to the key functions, reserving the last send
// slot for a SendSelf continuation when the remainder exceeds the
// invocation's budget; the tail persists in scoped state until the flush
// round picks it up.
func (c *statefunExec) emitWrites(ctx *statefun.Ctx, writes []write) error {
	n := len(writes)
	budget := ctx.SendsRemaining()
	chunked := n > budget
	if chunked {
		n = budget - 1
	}
	for i := range writes[:n] {
		w := &writes[i]
		msg, _ := json.Marshal(w)
		if err := ctx.Send(statefun.Ref{Type: sfKeyFn, ID: w.Key}, msg); err != nil {
			return err
		}
	}
	if !chunked {
		// Final round: every write is in its key's partition log (the sends
		// above are exactly-once produces), so the result record emitted
		// here orders after them — a read submitted once the handle
		// resolves gathers a snapshot that includes this op's writes.
		ctx.Del("pend")
		res, _ := ctx.Get("res")
		ctx.Del("res")
		c.sendDone(ctx, res, nil)
		return nil
	}
	rest, err := json.Marshal(writes[n:])
	if err != nil {
		return err
	}
	ctx.Set("pend", rest)
	cont, _ := json.Marshal(sfMsg{Kind: "flush"})
	return ctx.SendSelf(cont)
}

// execute runs the body over the gathered snapshot and sends its writes
// to the key functions. Body errors drop the op — the honest dataflow
// failure mode — but the result record carries the error, so a Submit
// handle (unlike the fire-and-forget ingress append of old) learns about
// the drop. The txn function instance is keyed by the request id.
func (c *statefunExec) execute(ctx *statefun.Ctx, op Op, args []byte, snapshot map[string][]byte) error {
	tx := &sfTxn{snapshot: snapshot}
	result, err := c.c.runBody(op, ctx.Self.ID, tx, args)
	if err != nil {
		c.sendDone(ctx, nil, err)
		return nil
	}
	if op.ReadOnly {
		// A query is answered by the read-gather phase itself: the body ran
		// over the gathered snapshot and there is no write-emit round —
		// half the choreography's messages, and the key functions never
		// see the op. The result record is the answer.
		c.sendDone(ctx, result, nil)
		return nil
	}
	// The result rides in scoped state until the last write chunk ships:
	// a chunked emit finishes in a later "flush" invocation, and the
	// result record must order after every write.
	ctx.Set("res", result)
	return c.emitWrites(ctx, tx.writeBuffer)
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

// sfTxn runs a body over the choreography's gathered snapshot. Writes are
// buffered and shipped as messages after the body succeeds (the tail of a
// chunked emit round persists JSON-encoded in the txn function's scoped
// state between invocations); Gets overlay the op's own writes on the
// snapshot.
type sfTxn struct {
	snapshot map[string][]byte
	writeBuffer
}

func (t *sfTxn) Get(key string) ([]byte, bool, error) {
	raw, found := t.snapshot[key]
	raw, found = t.overlay(key, raw, found)
	return raw, found, nil
}

func (c *statefunExec) guarantee() Guarantee {
	return Guarantee{Atomic: true, Isolated: false, ExactlyOnce: true,
		Note: "exactly-once processing; NO isolation across functions (§4.2) — ops settle eventually"}
}

// submit appends the op to the ingress — acceptance, one produce hop —
// and the handle resolves when the choreography's result record lands on
// the egress: the body ran over its gathered snapshot and the final write
// chunk is durably in the key functions' partition logs. That is the
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
	if err := c.sf.SendToIngress(statefun.Ref{Type: sfTxnFn, ID: reqID}, payload); err != nil {
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
	ch := make(chan sfMsg, 1)
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
func (c *statefunExec) takeProbe(probe string) (chan sfMsg, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch, ok := c.probes[probe]
	delete(c.probes, probe)
	return ch, ok
}

func (c *statefunExec) settle() error { return c.sf.WaitIdle(10 * time.Second) }
func (c *statefunExec) close()        { c.sf.Stop() }
