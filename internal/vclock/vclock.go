// Package vclock provides logical time primitives: Lamport clocks, hybrid
// logical clocks (HLC), and vector clocks. Lamport clocks stamp the geo
// layer's last-writer-wins versions and the auditor's serial instants;
// vector clocks back the causally consistent shared-state store of the
// cloud-functions runtime (the Cloudburst-style design surveyed in §4.2 of
// the paper). Nothing in the system uses the HLC.
package vclock

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Lamport is a thread-safe Lamport logical clock.
type Lamport struct {
	mu sync.Mutex
	t  uint64
}

// Tick advances the clock for a local event and returns the new time.
func (l *Lamport) Tick() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.t++
	return l.t
}

// Observe merges a remote timestamp and returns the new local time.
func (l *Lamport) Observe(remote uint64) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if remote > l.t {
		l.t = remote
	}
	l.t++
	return l.t
}

// Now returns the current time without advancing the clock.
func (l *Lamport) Now() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.t
}

// HLC is a hybrid logical clock: physical time with a logical component to
// break ties, monotone even when the wall clock goes backwards.
type HLC struct {
	mu      sync.Mutex
	wall    int64
	logical uint32
	nowFn   func() int64
}

// HLCTimestamp is a single HLC reading. Timestamps are totally ordered.
type HLCTimestamp struct {
	Wall    int64
	Logical uint32
}

// Compare returns -1, 0, or +1 ordering two timestamps.
func (t HLCTimestamp) Compare(o HLCTimestamp) int {
	switch {
	case t.Wall < o.Wall:
		return -1
	case t.Wall > o.Wall:
		return 1
	case t.Logical < o.Logical:
		return -1
	case t.Logical > o.Logical:
		return 1
	default:
		return 0
	}
}

// Before reports whether t orders strictly before o.
func (t HLCTimestamp) Before(o HLCTimestamp) bool { return t.Compare(o) < 0 }

func (t HLCTimestamp) String() string {
	return fmt.Sprintf("%d.%d", t.Wall, t.Logical)
}

// NewHLC returns an HLC reading physical time from the real clock.
func NewHLC() *HLC {
	return &HLC{nowFn: func() int64 { return time.Now().UnixNano() }}
}

// NewHLCWithSource returns an HLC with a custom physical time source,
// used by deterministic tests.
func NewHLCWithSource(now func() int64) *HLC { return &HLC{nowFn: now} }

// Now returns the next timestamp for a local or send event.
func (c *HLC) Now() HLCTimestamp {
	c.mu.Lock()
	defer c.mu.Unlock()
	pt := c.nowFn()
	if pt > c.wall {
		c.wall = pt
		c.logical = 0
	} else {
		c.logical++
	}
	return HLCTimestamp{Wall: c.wall, Logical: c.logical}
}

// Observe merges a remote timestamp (receive event) and returns the new
// local timestamp, which is strictly greater than both the previous local
// timestamp and the remote one.
func (c *HLC) Observe(remote HLCTimestamp) HLCTimestamp {
	c.mu.Lock()
	defer c.mu.Unlock()
	pt := c.nowFn()
	switch {
	case pt > c.wall && pt > remote.Wall:
		c.wall = pt
		c.logical = 0
	case remote.Wall > c.wall:
		c.wall = remote.Wall
		c.logical = remote.Logical + 1
	case c.wall > remote.Wall:
		c.logical++
	default: // equal walls
		if remote.Logical > c.logical {
			c.logical = remote.Logical
		}
		c.logical++
	}
	return HLCTimestamp{Wall: c.wall, Logical: c.logical}
}

// Vector is a vector clock mapping replica IDs to counters. The zero value
// is an empty clock. Vectors are value types; methods returning a Vector
// never alias the receiver's map.
type Vector map[string]uint64

// NewVector returns an empty vector clock.
func NewVector() Vector { return Vector{} }

// Copy returns a deep copy.
func (v Vector) Copy() Vector {
	c := make(Vector, len(v))
	for k, n := range v {
		c[k] = n
	}
	return c
}

// Tick increments the component for id and returns the updated copy.
func (v Vector) Tick(id string) Vector {
	c := v.Copy()
	c[id]++
	return c
}

// Merge returns the component-wise maximum of v and o.
func (v Vector) Merge(o Vector) Vector {
	c := v.Copy()
	for k, n := range o {
		if n > c[k] {
			c[k] = n
		}
	}
	return c
}

// Ordering relates two vector clocks.
type Ordering int

// Possible causal relations between two vector clocks.
const (
	Equal Ordering = iota
	Before
	After
	Concurrent
)

func (o Ordering) String() string {
	switch o {
	case Equal:
		return "equal"
	case Before:
		return "before"
	case After:
		return "after"
	default:
		return "concurrent"
	}
}

// Compare reports the causal relation of v to o.
func (v Vector) Compare(o Vector) Ordering {
	less, greater := false, false
	for k, n := range v {
		m := o[k]
		if n < m {
			less = true
		}
		if n > m {
			greater = true
		}
	}
	for k, m := range o {
		if _, ok := v[k]; !ok && m > 0 {
			less = true
		}
	}
	switch {
	case less && greater:
		return Concurrent
	case less:
		return Before
	case greater:
		return After
	default:
		return Equal
	}
}

// DominatesOrEqual reports whether v >= o component-wise, i.e. every event
// in o is also reflected in v.
func (v Vector) DominatesOrEqual(o Vector) bool {
	r := v.Compare(o)
	return r == Equal || r == After
}

func (v Vector) String() string {
	keys := make([]string, 0, len(v))
	for k := range v {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s:%d", k, v[k]))
	}
	return "{" + strings.Join(parts, ",") + "}"
}
