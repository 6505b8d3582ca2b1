package tca

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"

	"tca/internal/fabric"
)

// This file is the application layer of the taxonomy: a model-agnostic way
// to define a transactional cloud application once and deploy it under any
// programming model of Figure 1.
//
// An App registers named Ops. Each Op declares the key set it touches
// (derived from its arguments) and a Body over the uniform Txn read/write
// surface. A Cell is one deployment of an App under one taxonomy cell.
// There is one Cell implementation (cell.go): a fixed submit pipeline —
// resolve the op, admit or shed, execute, resolve the handle — over one of
// five executors (cell_*.go), which map the same Op onto a saga over
// microservices, an Orleans-style actor transaction, a FaaS entity
// critical section, a stateful-dataflow message choreography, or a
// deterministic log-ordered transaction — each with the honest guarantees
// of that model. What a Put, an Add or a PushCap does to a value is
// decided once, by the write record under every executor
// (cell_write.go).

// Txn is the uniform state surface an Op body executes over. Every
// executor provides an implementation backed by its own state management:
// the deterministic core's MVCC view, actor transactional state under 2PL,
// locked FaaS entities, per-service databases behind RPC, or dataflow
// function state reached by messages.
type Txn interface {
	// Get returns the value of key as visible to this operation. Cells
	// without isolation (sagas, dataflow) may return stale or dirty values
	// — that is their honest semantics, not a bug. The bytes may be the
	// stored value itself: do not change them.
	Get(key string) ([]byte, bool, error)
	// Put replaces the value of key. Writes are all-or-nothing per op
	// where the cell supports it: synchronous cells buffer or stage writes
	// until the body returns nil. The cell may keep value without a copy:
	// do not change it afterwards.
	Put(key string, value []byte) error
	// Add atomically adds delta to the EncodeInt-encoded value of key
	// (missing keys count as zero). Add commutes, so eventual cells apply
	// it as an exactly-once delta message instead of a read-modify-write —
	// which is what keeps them conserving totals under concurrency.
	Add(key string, delta int64) error
	// PushCap inserts id into the EncodeIntList-encoded bounded id list at
	// key, keeping only the cap largest ids (newest-first for monotonically
	// assigned ids). The retained set is the cap largest of every id ever
	// pushed, so PushCap commutes and is idempotent per id: eventual cells
	// apply it as an exactly-once merge message instead of a
	// read-modify-write — the list analogue of Add, and what keeps bounded
	// timelines exact under concurrency.
	PushCap(key string, id int64, cap int) error
}

// EncodeInt is the canonical numeric value encoding of the App layer:
// canonical decimal, the bytes json.Marshal(int64) produces — what Txn.Add
// maintains and application bodies should use for counter-like keys.
func EncodeInt(v int64) []byte {
	return strconv.AppendInt(nil, v, 10)
}

// DecodeInt decodes an EncodeInt value; nil or garbage decodes to zero.
// Canonical decimal — digits after an optional '-', no leading zero —
// goes through strconv; anything else decodes as json.Unmarshal into an
// int64 decodes it.
func DecodeInt(raw []byte) int64 {
	if len(raw) == 0 {
		return 0
	}
	digits := bytes.TrimPrefix(raw, []byte("-"))
	if len(digits) > 0 && ('1' <= digits[0] && digits[0] <= '9' || len(digits) == 1) {
		if v, err := strconv.ParseInt(string(raw), 10, 64); err == nil {
			return v
		}
	}
	var v int64
	json.Unmarshal(raw, &v)
	return v
}

// EncodeIntList is the canonical list encoding of the App layer: a JSON
// array of int64, sorted descending (newest-first for monotonically
// assigned ids). Txn.PushCap maintains it; bodies should use it for
// list-valued keys such as timelines and post logs.
func EncodeIntList(vs []int64) []byte {
	if vs == nil {
		vs = []int64{}
	}
	raw, _ := json.Marshal(vs)
	return raw
}

// DecodeIntList decodes an EncodeIntList value; nil or garbage decodes to
// an empty list.
func DecodeIntList(raw []byte) []int64 {
	var vs []int64
	if raw != nil {
		json.Unmarshal(raw, &vs)
	}
	return vs
}

// mergeBounded inserts id into list (dedup), sorts descending, and trims
// to the cap largest ids — the canonical, order-insensitive PushCap merge
// every cell applies, which is what makes PushCap commute.
func mergeBounded(list []int64, id int64, cap int) []int64 {
	for _, v := range list {
		if v == id {
			return list
		}
	}
	list = append(list, id)
	sort.Slice(list, func(i, j int) bool { return list[i] > list[j] })
	if cap > 0 && len(list) > cap {
		list = list[:cap]
	}
	return list
}

// Op is one named transactional operation of an application.
type Op struct {
	// Name identifies the op within its App.
	Name string
	// Keys derives the declared key set from the op's arguments.
	// Deterministic cells schedule on it, locking cells lock it up front,
	// sharded cells route with it, and the dataflow, microservices and
	// cloud-functions cells gather every read from it (one request per
	// owning partition or service, or one critical section) before the
	// body runs. Bodies must confine their Gets to these keys: on those
	// three cells any other Get fails with ErrUndeclaredKey.
	Keys func(args []byte) []string
	// ReadOnly declares the op a pure query: its body reads its declared
	// keys and returns a result without writing. Cells use the hint to
	// skip their write machinery — the saga cell stages no compensated
	// steps, the actor cell takes shared locks and skips 2PC, the entity
	// cell skips the buffered-write commit, the dataflow cell answers
	// from the read-gather phase without a write-emit round, and the
	// deterministic cell reads its committed state without consuming a
	// write-schedule slot. The contract is enforced: a ReadOnly body that
	// calls Put, Add, or PushCap gets ErrReadOnlyOp on every cell.
	ReadOnly bool
	// Body executes the op over the cell's Txn. It must be deterministic
	// (same visible state + args => same writes and result) and safe to
	// re-execute: cells retry it on concurrency-control conflicts and
	// replay it for recovery. Returning an error aborts the op where the
	// cell supports atomicity — no buffered writes apply.
	Body func(tx Txn, args []byte) ([]byte, error)
}

// ErrReadOnlyOp rejects writes from the body of an Op declared ReadOnly.
var ErrReadOnlyOp = errors.New("tca: write attempted by read-only op")

// ErrUndeclaredKey rejects a body's Get of a key its Op.Keys did not
// declare, on the cells that gather reads before the body runs.
var ErrUndeclaredKey = errors.New("tca: get of an undeclared key")

// App is a model-agnostic transactional application: a named set of Ops
// over uniform keyed state. Build one with NewApp + Register, then deploy
// it under any programming model with Deploy.
type App struct {
	name  string
	ops   map[string]Op
	order []string
}

// NewApp creates an empty application.
func NewApp(name string) *App {
	return &App{name: name, ops: make(map[string]Op)}
}

// Name returns the application name.
func (a *App) Name() string { return a.name }

// Register adds an op. Registering after Deploy, a nil Keys/Body, or a
// duplicate name panics: op sets are static application code, not runtime
// data, so misuse is a programming error.
func (a *App) Register(op Op) *App {
	if op.Name == "" || op.Keys == nil || op.Body == nil {
		panic(fmt.Sprintf("tca: app %q: op needs Name, Keys and Body", a.name))
	}
	if _, dup := a.ops[op.Name]; dup {
		panic(fmt.Sprintf("tca: app %q: duplicate op %q", a.name, op.Name))
	}
	a.ops[op.Name] = op
	a.order = append(a.order, op.Name)
	return a
}

// Op returns a registered op.
func (a *App) Op(name string) (Op, bool) {
	op, ok := a.ops[name]
	return op, ok
}

// Ops returns the registered op names in registration order.
func (a *App) Ops() []string { return append([]string(nil), a.order...) }

// with returns a copy of a that also registers op — how a layer deploys
// the application plus an infrastructure op of its own (geo replication's
// apply) without touching the caller's App.
func (a *App) with(op Op) *App {
	b := NewApp(a.name)
	for _, name := range a.order {
		b.Register(a.ops[name])
	}
	return b.Register(op)
}

// keysOf resolves an op's declared key set, deduplicated in first-seen
// order (bodies may legitimately derive the same key twice). The result
// is a fresh slice: Keys may return shared or cached storage, and cells
// call keysOf from concurrent invocations.
func (a *App) keysOf(op Op, args []byte) []string {
	keys := op.Keys(args)
	seen := make(map[string]struct{}, len(keys))
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, k)
	}
	return out
}

// Cell is one deployment of an App under one taxonomy cell. The same
// methods mean honestly different things per cell — Submit on an eventual
// cell acknowledges acceptance, and its Handle resolves at completion —
// which Guarantee reports.
type Cell interface {
	// Model returns the cell's programming model.
	Model() ProgrammingModel
	// Guarantee describes the cell's real semantics.
	Guarantee() Guarantee
	// App returns the deployed application.
	App() *App
	// Submit starts the named op with args and returns a Handle that
	// resolves when the op has applied. reqID identifies the logical
	// request for idempotence where the cell supports it; tr accumulates
	// simulated latency. Submit's return is acceptance: synchronous cells
	// run the op on a bounded worker pool (Options.Clients), the
	// deterministic cell acknowledges once the transaction is durably
	// appended (concurrent submissions share group log appends), and the
	// dataflow cell acknowledges at the ingress — the per-cell accept/apply
	// split E20 measures.
	Submit(reqID, op string, args []byte, tr *fabric.Trace) Handle
	// Invoke runs the named op to completion: Submit(reqID, op, args,
	// tr).Result() on every cell.
	Invoke(reqID, op string, args []byte, tr *fabric.Trace) ([]byte, error)
	// Read returns the settled value of one key (eventual cells quiesce
	// first). Use it for audits, not as part of an op.
	Read(key string) ([]byte, bool, error)
	// Settle waits until all accepted ops have applied (no-op for
	// synchronous cells).
	Settle() error
	// Close releases resources.
	Close()
}

// Deploy instantiates app under the given model on env with default
// options.
func Deploy(model ProgrammingModel, app *App, env *Env) (Cell, error) {
	return DeployWith(model, app, env, Options{})
}

// DeployWith instantiates app under the given model on env.
func DeployWith(model ProgrammingModel, app *App, env *Env, opts Options) (Cell, error) {
	c, err := deploy(model, app, env, opts, nil)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// opError is the unknown-op error of every cell.
func opError(app *App, op string) error {
	return fmt.Errorf("tca: app %q has no op %q", app.Name(), op)
}

// sortedKeys returns map keys in deterministic order (bodies and adapters
// iterate state deterministically by contract).
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
