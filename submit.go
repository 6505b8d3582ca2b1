package tca

import (
	"sync"
	"time"
)

// This file is the asynchronous half of the invocation surface: the Handle
// a Cell.Submit returns at acceptance and resolves at completion, and the
// bounded worker pool the pipeline (cell.go) puts a blocking executor
// behind. What acceptance and completion mean under each programming model
// is in the package doc, "Driving a cell".

// Handle is an in-flight op submission.
type Handle interface {
	// Done is closed when the op has completed: committed, applied, or
	// failed. On the dataflow cell completion means the choreography's
	// result record landed — writes are durably in flight exactly-once,
	// but per-key settlement still needs Cell.Settle.
	Done() <-chan struct{}
	// Result blocks until completion and returns the op's result. Calling
	// it more than once returns the same outcome.
	Result() ([]byte, error)
}

// opHandle is the shared Handle implementation. Resolution is idempotent
// (sync.Once) because some completion paths race a watchdog or an
// at-least-once egress delivery.
type opHandle struct {
	done chan struct{}
	once sync.Once
	res  []byte
	err  error
}

func newOpHandle() *opHandle { return &opHandle{done: make(chan struct{})} }

func (h *opHandle) resolve(res []byte, err error) {
	h.once.Do(func() {
		h.res, h.err = res, err
		close(h.done)
	})
}

func (h *opHandle) Done() <-chan struct{} { return h.done }

func (h *opHandle) Result() ([]byte, error) {
	<-h.done
	return h.res, h.err
}

// resolvedHandle returns a Handle that is already complete — the path for
// submissions rejected before they reach the cell's pipeline.
func resolvedHandle(res []byte, err error) Handle {
	h := newOpHandle()
	h.resolve(res, err)
	return h
}

// handleSeq returns the serialization position a handle was stamped with:
// the deterministic core's log position (its *core.Handle is returned
// unwrapped, and a sequenced replica group forwards the home core's),
// zero on every cell that does not know its own commit order.
func handleSeq(h Handle) int64 {
	if sh, ok := h.(interface{ Seq() int64 }); ok {
		return sh.Seq()
	}
	return 0
}

// pendingBound resolves Options.MaxPending against an executor's default:
// zero means the default bound, negative means no admission control, which
// every bounded queue below spells as a bound of zero.
func pendingBound(maxPending, def int) int {
	switch {
	case maxPending == 0:
		return def
	case maxPending < 0:
		return 0
	}
	return maxPending
}

// defaultClients bounds a pooled cell's concurrently executing
// submissions when Options.Clients is zero.
const defaultClients = 16

// poolRetryAfter is the shed hint for the worker-pool cells: the order of
// one short op's service time, coarse on purpose.
const poolRetryAfter = 500 * time.Microsecond

// submitPool runs submissions for the executors whose protocol blocks
// (saga, 2PL+2PC, entity critical section): Submit returns a Handle
// immediately, at most Options.Clients ops execute at once, and up to
// Options.MaxPending accepted submissions wait for a slot. It turns a
// blocking call into a pipelined one without changing the cell's
// guarantees, and its bound keeps an open-loop arrival process from growing
// an unbounded backlog (E23). Unbounded (MaxPending < 0), submit blocks for
// a slot instead and never sheds.
type submitPool struct {
	model ProgrammingModel
	slots chan struct{}
	// tokens bounds accepted-but-unfinished submissions (executing plus
	// queued): capacity clients+maxPending, nil when unbounded.
	tokens chan struct{}
}

func newSubmitPool(model ProgrammingModel, clients, maxPending int) *submitPool {
	if clients <= 0 {
		clients = defaultClients
	}
	p := &submitPool{model: model, slots: make(chan struct{}, clients)}
	if bound := pendingBound(maxPending, 4*clients); bound > 0 {
		p.tokens = make(chan struct{}, clients+bound)
	}
	return p
}

// submit admits one op to the pool and returns its handle. Acceptance is a
// token for the bounded pipeline, granted or refused at once — accept
// latency is admission, not queueing — and the op waits for an executing
// slot inside its own goroutine. Unbounded, the caller waits for the slot
// itself: its own backpressure, instead of a pile of goroutines.
func (p *submitPool) submit(run func() ([]byte, error)) Handle {
	if p.tokens != nil {
		select {
		case p.tokens <- struct{}{}:
		default:
			return shedHandle(p.model, cap(p.tokens), poolRetryAfter)
		}
		h := newOpHandle()
		go func() {
			defer func() { <-p.tokens }()
			p.slots <- struct{}{}
			defer func() { <-p.slots }()
			h.resolve(run())
		}()
		return h
	}
	h := newOpHandle()
	p.slots <- struct{}{}
	go func() {
		defer func() { <-p.slots }()
		h.resolve(run())
	}()
	return h
}

// invoke runs one op on the pool inline, for a caller that blocks anyway:
// same cap, same outcome as submit(run).Result() without the goroutine and
// the handle. It never sheds — a caller that waits inline is its own
// backpressure, so admission control has nothing to bound.
func (p *submitPool) invoke(run func() ([]byte, error)) ([]byte, error) {
	p.slots <- struct{}{}
	defer func() { <-p.slots }()
	return run()
}
