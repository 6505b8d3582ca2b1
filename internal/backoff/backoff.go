// Package backoff draws the waits of full-jitter exponential backoff: a
// retry loop doubles its window per attempt (up to MaxFactor × its base)
// and sleeps a uniform draw over [0, window]. The draw is the one piece
// every retry loop shares — the client session's shed retries and the
// store's OCC retries — so it lives here once.
package backoff

import (
	"hash/fnv"
	"math/rand"
	"sync"
	"time"
)

// MaxFactor caps a backoff window at this multiple of its base.
const MaxFactor = 64

// Jitter is a seeded generator that concurrent retry loops may share: a
// *rand.Rand is not safe for concurrent use, so draws are serialized.
// Seeded (not the global math/rand) so a rerun draws the same sequence.
type Jitter struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// New returns a Jitter drawing from rng. rng must not be used elsewhere.
func New(rng *rand.Rand) *Jitter { return &Jitter{rng: rng} }

// Named returns a Jitter seeded from name (FNV-1a), so the same name always
// draws the same sequence and distinct names draw distinct ones.
func Named(name string) *Jitter {
	h := fnv.New64a()
	h.Write([]byte(name))
	return New(rand.New(rand.NewSource(int64(h.Sum64()))))
}

// Draw returns a wait uniform over [0, window].
func (j *Jitter) Draw(window time.Duration) time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	return time.Duration(j.rng.Int63n(int64(window) + 1))
}

// Grow returns the window after one more failed attempt: doubled, capped
// at MaxFactor × base.
func Grow(window, base time.Duration) time.Duration {
	if window < MaxFactor*base {
		return 2 * window
	}
	return window
}
