package tca

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"tca/internal/backoff"
	"tca/internal/fabric"
	"tca/internal/workload"
)

// SessionOptions tunes a client session. The zero value is a pipelined
// session with the default in-flight cap and no ordering.
type SessionOptions struct {
	// MaxInFlight caps the session's outstanding (accepted but not yet
	// applied) submissions; Submit blocks when the cap is reached — the
	// client-side pipelining depth. Zero means 32.
	MaxInFlight int
	// OrderKeys serializes the session's ops on overlapping declared key
	// sets: Submit waits for the session's previous op touching any of the
	// same keys to complete before submitting. On the eventual cells this
	// is what buys a session read-your-writes — a read submitted after a
	// write to the same key gathers its snapshot only after the write's
	// choreography finished shipping, so the write is already in the key's
	// partition log. Ops on disjoint keys still pipeline freely. Ordering
	// is per submitting goroutine: concurrent Submit calls racing on the
	// same key are not ordered against each other.
	OrderKeys bool
	// RetryBudget caps the total attempts (the first submission plus
	// retries) for a submission the cell sheds (ErrOverloaded). Between
	// attempts the session backs off exponentially with full jitter
	// (from retryBackoff, doubling per attempt up to 64× it),
	// honoring the shed hint's RetryAfter as a floor, and resubmits the
	// same request id — safe, since a shed op never entered the cell.
	// Zero means 8 attempts; negative disables retries (one attempt, shed
	// errors surface to the caller). Non-shed errors never retry.
	RetryBudget int
}

// retryBackoff is the base delay before a session's first retry. The
// jitter is drawn from a generator seeded from the session id (FNV-1a),
// so a rerun with the same session ids draws the identical jitter
// sequence — what keeps audited overload runs seed-stable end to end (the
// arrival schedules already are).
const retryBackoff = 200 * time.Microsecond

// Session is a client of one deployed Cell: it assigns the session's
// request ids, caps how many submissions are in flight, and (optionally)
// orders ops that touch the same keys. Every workload driver in the
// concurrency experiments (E20) holds one Session per simulated client —
// the unit the paper's "millions of users" decompose into.
type Session struct {
	cell Cell
	id   string
	opts SessionOptions

	seq     atomic.Int64
	errs    atomic.Int64
	retries atomic.Int64
	slots   chan struct{}
	wg      sync.WaitGroup

	// jitter draws retry waits: retry chains for distinct submissions run
	// concurrently and share it.
	jitter *backoff.Jitter

	mu   sync.Mutex
	last map[string]Handle // OrderKeys: latest handle per declared key
}

// NewSession opens a session on cell. id prefixes the session's request
// ids, so distinct sessions submitting the same logical stream never
// collide in the cell's idempotence layer.
func NewSession(cell Cell, id string, opts SessionOptions) *Session {
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = 32
	}
	if opts.RetryBudget == 0 {
		opts.RetryBudget = 8
	} else if opts.RetryBudget < 0 {
		opts.RetryBudget = 1
	}
	return &Session{
		cell:   cell,
		id:     id,
		opts:   opts,
		jitter: backoff.Named(id),
		slots:  make(chan struct{}, opts.MaxInFlight),
		last:   make(map[string]Handle),
	}
}

// Submit starts the named op with a session-assigned request id and
// returns its Handle. Blocks while the session is at its in-flight cap,
// and — with OrderKeys — until the session's previous ops on overlapping
// keys have completed.
func (s *Session) Submit(opName string, args []byte, tr *fabric.Trace) Handle {
	// <id>/<n>: the '/' keeps sessions whose ids prefix each other apart
	// (s1/12 vs s11/2).
	reqID := workload.Join(s.id, "/", s.seq.Add(1))
	var keys []string
	if s.opts.OrderKeys {
		if op, ok := s.cell.App().Op(opName); ok {
			keys = s.cell.App().keysOf(op, args)
			s.mu.Lock()
			waits := make([]Handle, 0, len(keys))
			for _, k := range keys {
				if h, ok := s.last[k]; ok {
					waits = append(waits, h)
				}
			}
			s.mu.Unlock()
			for _, h := range waits {
				<-h.Done()
			}
		}
	}
	s.slots <- struct{}{}
	h := s.submitWithRetry(reqID, opName, args, tr)
	if keys != nil {
		// Recorded before the completion watcher starts, so the watcher's
		// cleanup below can never race ahead of the registration.
		s.mu.Lock()
		for _, k := range keys {
			s.last[k] = h
		}
		s.mu.Unlock()
	}
	s.wg.Add(1)
	go func() {
		<-h.Done()
		if _, err := h.Result(); err != nil {
			s.errs.Add(1)
		}
		if keys != nil {
			// A completed handle can never make a later Submit wait —
			// drop it (unless a newer op on the key already replaced it)
			// so s.last tracks in-flight ops, not every key ever touched.
			s.mu.Lock()
			for _, k := range keys {
				if s.last[k] == h {
					delete(s.last, k)
				}
			}
			s.mu.Unlock()
		}
		<-s.slots
		s.wg.Done()
	}()
	return h
}

// submitWithRetry submits once and, when the cell sheds synchronously
// (admission control — the handle resolves before Submit returns),
// retries the same request id under the session's budget with jittered
// exponential backoff. A submission that is genuinely in flight was
// accepted, so an unresolved handle passes through untouched — the hot
// path adds one non-blocking Done check.
func (s *Session) submitWithRetry(reqID, opName string, args []byte, tr *fabric.Trace) Handle {
	h := s.cell.Submit(reqID, opName, args, tr)
	retryAfter, shed := sheddedSync(h)
	if !shed || s.opts.RetryBudget <= 1 {
		return h
	}
	out := newOpHandle()
	go func() {
		window := retryBackoff
		for attempt := 2; ; attempt++ {
			s.retries.Add(1)
			time.Sleep(s.retryWait(window, retryAfter))
			window = backoff.Grow(window, retryBackoff)
			h := s.cell.Submit(reqID, opName, args, tr)
			res, err := h.Result()
			if err == nil || !errors.Is(err, ErrOverloaded) || attempt >= s.opts.RetryBudget {
				out.resolve(res, err)
				return
			}
			var se *ShedError
			if errors.As(err, &se) {
				retryAfter = se.RetryAfter
			}
		}
	}()
	return out
}

// retryWait draws full jitter over the current backoff window from the
// session's seeded generator, floored by the cell's own retry-after
// hint. Seeded (not the global math/rand) so the draw sequence is a
// function of the session id alone — pinned in TestSessionJitterSeeded.
func (s *Session) retryWait(window, floor time.Duration) time.Duration {
	return max(s.jitter.Draw(window), floor)
}

// sheddedSync reports whether a just-returned handle already resolved to
// a shed rejection, and the rejection's retry hint.
func sheddedSync(h Handle) (time.Duration, bool) {
	select {
	case <-h.Done():
	default:
		return 0, false
	}
	_, err := h.Result()
	var se *ShedError
	if errors.As(err, &se) {
		return se.RetryAfter, true
	}
	return 0, false
}

// Invoke is the session's blocking call: Submit(...).Result().
func (s *Session) Invoke(opName string, args []byte, tr *fabric.Trace) ([]byte, error) {
	return s.Submit(opName, args, tr).Result()
}

// Drain blocks until every submission accepted so far has completed.
func (s *Session) Drain() {
	s.wg.Wait()
}

// Errors returns how many of the session's completed submissions failed.
func (s *Session) Errors() int64 { return s.errs.Load() }

// Retries returns how many shed-retry attempts the session has made
// beyond first submissions.
func (s *Session) Retries() int64 { return s.retries.Load() }
