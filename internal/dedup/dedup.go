// Package dedup implements idempotency-key stores: the application-level
// mechanism the paper identifies (§3.2) as the standard defence against
// duplicated messages from sender retries and redelivery-after-timeout.
// A receiver records each unique request id together with its response;
// replays return the recorded response instead of re-executing the
// (possibly non-idempotent) operation.
package dedup

import (
	"sync"
	"time"
)

// Store is a TTL-bounded idempotency-key store. Safe for concurrent use.
// Keys expire after the window, modeling the bounded dedup horizon every
// real deployment chooses (an infinite window is an unbounded-state
// liability, which is why exactly-once "at the edge" is never free).
type Store struct {
	ttl time.Duration
	now func() time.Time

	mu       sync.Mutex
	m        map[string]entry
	inflight map[string]chan struct{}

	// Stats for the benchmarks.
	hits   int64
	misses int64
}

type entry struct {
	resp    []byte
	err     error
	addedAt time.Time
}

// New creates a store with the given dedup window. ttl <= 0 means keys
// never expire.
func New(ttl time.Duration) *Store {
	return &Store{ttl: ttl, now: time.Now, m: make(map[string]entry)}
}

// Check returns the recorded response for key, if any.
func (s *Store) Check(key string) (resp []byte, err error, seen bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[key]
	if !ok || s.expired(e) {
		if ok {
			delete(s.m, key)
		}
		s.misses++
		return nil, nil, false
	}
	s.hits++
	return e.resp, e.err, true
}

// Save records the response for key.
func (s *Store) Save(key string, resp []byte, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = entry{resp: resp, err: err, addedAt: s.now()}
}

// Do executes fn exactly once per key within the dedup window: the first
// call runs fn and records its result; replays return the recorded result
// with dup=true. Concurrent callers with the same key serialize on the
// store lock for the check, then at most one runs fn (the others see its
// saved result only if it finished first — matching real idempotency-key
// services, which race unless they add in-flight locking; use DoLocked for
// the stricter variant).
func (s *Store) Do(key string, fn func() ([]byte, error)) (resp []byte, dup bool, err error) {
	if r, e, seen := s.Check(key); seen {
		return r, true, e
	}
	resp, err = fn()
	s.Save(key, resp, err)
	return resp, false, err
}

// DoLocked is Do with in-flight locking: a concurrent duplicate blocks
// until the first execution finishes, then returns its result. This is the
// stronger (and costlier) idempotency contract.
func (s *Store) DoLocked(key string, fn func() ([]byte, error)) (resp []byte, dup bool, err error) {
	s.mu.Lock()
	if e, ok := s.m[key]; ok && !s.expired(e) {
		s.hits++
		s.mu.Unlock()
		return e.resp, true, e.err
	}
	ch, waiting := s.locks()[key]
	if waiting {
		s.mu.Unlock()
		<-ch
		// First execution finished; its result is recorded.
		r, e, seen := s.Check(key)
		if seen {
			return r, true, e
		}
		// Window expired immediately or first caller failed to record —
		// fall through to execute ourselves.
		return s.DoLocked(key, fn)
	}
	done := make(chan struct{})
	s.locks()[key] = done
	s.misses++
	s.mu.Unlock()

	resp, err = fn()

	s.mu.Lock()
	s.m[key] = entry{resp: resp, err: err, addedAt: s.now()}
	delete(s.locks(), key)
	close(done)
	s.mu.Unlock()
	return resp, false, err
}

// locks lazily allocates the in-flight map. Caller holds s.mu.
func (s *Store) locks() map[string]chan struct{} {
	if s.inflight == nil {
		s.inflight = make(map[string]chan struct{})
	}
	return s.inflight
}

func (s *Store) expired(e entry) bool {
	return s.ttl > 0 && s.now().Sub(e.addedAt) > s.ttl
}

// Sweep removes expired keys and returns how many were removed.
func (s *Store) Sweep() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for k, e := range s.m {
		if s.expired(e) {
			delete(s.m, k)
			n++
		}
	}
	return n
}

// Len returns the number of live keys (the memory cost of the window).
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// Stats returns cumulative (hits, misses).
func (s *Store) Stats() (hits, misses int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses
}
