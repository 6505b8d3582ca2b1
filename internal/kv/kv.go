// Package kv implements the embedded key-value store that plays RocksDB's
// role in this reproduction (§3.3 "Dataflows" — operators keep local state in
// an embedded LSM-based store). It is an LSM-lite design: a mutable memtable
// absorbs writes, immutable sorted runs hold flushed data, and a background
// compaction merges runs. Every version carries a sequence number, so
// consistent snapshots — the basis of dataflow checkpointing (§4.1) — are
// reads "as of seq".
//
// Durability: when opened with a directory, every write batch is appended to
// a write-ahead log before being applied; Open replays the log. Checkpoint
// serializes the full state to a file and truncates the log, exactly the
// "checkpoint then trim" protocol stream processors use.
package kv

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"tca/internal/wal"
)

// Common store errors.
var (
	ErrClosed = errors.New("kv: closed")
)

// version is one MVCC version of a key.
type version struct {
	seq       uint64
	value     []byte
	tombstone bool
}

// entry is the full version chain of one key, newest first.
type entry struct {
	key      string
	versions []version // sorted descending by seq
}

// memtable is the mutable in-memory table: map for point ops plus a sorted
// key slice maintained incrementally for scans.
type memtable struct {
	m    map[string]*entry
	keys []string // sorted; may contain keys whose newest version is a tombstone
	size int      // approximate bytes
}

func newMemtable() *memtable {
	return &memtable{m: make(map[string]*entry)}
}

func (t *memtable) put(key string, v version) {
	e, ok := t.m[key]
	if !ok {
		e = &entry{key: key}
		t.m[key] = e
		i := sort.SearchStrings(t.keys, key)
		t.keys = append(t.keys, "")
		copy(t.keys[i+1:], t.keys[i:])
		t.keys[i] = key
	}
	e.versions = append(e.versions, version{})
	copy(e.versions[1:], e.versions)
	e.versions[0] = v
	t.size += len(key) + len(v.value) + 24
}

// get returns the newest version with seq <= atSeq.
func (t *memtable) get(key string, atSeq uint64) (version, bool) {
	e, ok := t.m[key]
	if !ok {
		return version{}, false
	}
	for _, v := range e.versions {
		if v.seq <= atSeq {
			return v, true
		}
	}
	return version{}, false
}

// run is an immutable sorted run produced by flushing a memtable.
type run struct {
	entries []entry // sorted ascending by key
}

func (r *run) get(key string, atSeq uint64) (version, bool) {
	i := sort.Search(len(r.entries), func(i int) bool { return r.entries[i].key >= key })
	if i >= len(r.entries) || r.entries[i].key != key {
		return version{}, false
	}
	for _, v := range r.entries[i].versions {
		if v.seq <= atSeq {
			return v, true
		}
	}
	return version{}, false
}

// Options configure a store.
type Options struct {
	// FlushBytes is the memtable size that triggers a flush to an
	// immutable run. Zero means the default (1 MiB).
	FlushBytes int
	// MaxRuns is the number of immutable runs that triggers compaction.
	// Zero means the default (4).
	MaxRuns int
}

// Store is the embedded key-value store. Safe for concurrent use.
type Store struct {
	opts Options
	dir  string

	seq    atomic.Uint64 // last assigned sequence number
	closed atomic.Bool

	mu   sync.RWMutex
	mem  *memtable
	runs []*run // newest first
	log  *wal.Log

	// snapshot bookkeeping: compaction must not discard versions that an
	// open snapshot can still see.
	snapMu    sync.Mutex
	openSnaps map[uint64]int // seq -> refcount
}

// Open opens a durable store rooted at dir, replaying any existing
// checkpoint and WAL. Pass dir == "" for a volatile in-memory store.
func Open(dir string, opts Options) (*Store, error) {
	if opts.FlushBytes <= 0 {
		opts.FlushBytes = 1 << 20
	}
	if opts.MaxRuns <= 0 {
		opts.MaxRuns = 4
	}
	s := &Store{
		opts:      opts,
		dir:       dir,
		mem:       newMemtable(),
		openSnaps: make(map[uint64]int),
	}
	if dir == "" {
		return s, nil
	}
	if err := s.loadCheckpoint(filepath.Join(dir, "CHECKPOINT")); err != nil {
		return nil, err
	}
	l, err := wal.Open(filepath.Join(dir, "wal"), wal.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("kv: open wal: %w", err)
	}
	s.log = l
	if err := s.replayWAL(); err != nil {
		return nil, err
	}
	return s, nil
}

// NewMemory returns a volatile store with default options.
func NewMemory() *Store {
	s, err := Open("", Options{})
	if err != nil {
		panic(err) // cannot happen for in-memory stores
	}
	return s
}

func (s *Store) replayWAL() error {
	return s.log.Replay(func(payload []byte) error {
		b, err := decodeBatch(payload)
		if err != nil {
			return err
		}
		s.applyBatch(b, false)
		return nil
	})
}

// Seq returns the last assigned sequence number.
func (s *Store) Seq() uint64 { return s.seq.Load() }

// Put stores value under key.
func (s *Store) Put(key string, value []byte) error {
	b := NewBatch()
	b.Put(key, value)
	return s.Write(b)
}

// Delete removes key (writes a tombstone).
func (s *Store) Delete(key string) error {
	b := NewBatch()
	b.Delete(key)
	return s.Write(b)
}

// Write applies a batch atomically: one WAL record, one sequence range.
func (s *Store) Write(b *Batch) error {
	if s.closed.Load() {
		return ErrClosed
	}
	if len(b.ops) == 0 {
		return nil
	}
	if s.log != nil {
		if _, err := s.log.Append(b.encode()); err != nil {
			return fmt.Errorf("kv: wal append: %w", err)
		}
	}
	s.applyBatch(b, true)
	return nil
}

// applyBatch assigns sequence numbers and installs the ops in the memtable.
// flushOK controls whether this write may trigger a flush (replay defers
// flushes until the end).
func (s *Store) applyBatch(b *Batch, flushOK bool) {
	s.mu.Lock()
	for _, op := range b.ops {
		seq := s.seq.Add(1)
		s.mem.put(op.key, version{seq: seq, value: op.value, tombstone: op.del})
	}
	needFlush := flushOK && s.mem.size >= s.opts.FlushBytes
	if needFlush {
		s.flushLocked()
	}
	s.mu.Unlock()
}

// flushLocked converts the memtable into an immutable run. Caller holds mu.
func (s *Store) flushLocked() {
	if len(s.mem.m) == 0 {
		return
	}
	r := &run{entries: make([]entry, 0, len(s.mem.m))}
	for _, k := range s.mem.keys {
		e := s.mem.m[k]
		r.entries = append(r.entries, entry{key: k, versions: e.versions})
	}
	s.runs = append([]*run{r}, s.runs...)
	s.mem = newMemtable()
	if len(s.runs) >= s.opts.MaxRuns {
		s.compactLocked()
	}
}

// compactLocked merges all runs into one, discarding versions invisible to
// every open snapshot. Caller holds mu.
func (s *Store) compactLocked() {
	floor := s.snapshotFloor()
	merged := make(map[string]*entry)
	var keys []string
	// Iterate oldest run first so that appending keeps versions sorted
	// descending when we prepend newer versions.
	for i := len(s.runs) - 1; i >= 0; i-- {
		for _, e := range s.runs[i].entries {
			m, ok := merged[e.key]
			if !ok {
				m = &entry{key: e.key}
				merged[e.key] = m
				keys = append(keys, e.key)
			}
			// e.versions are newer than what's in m (runs are newest
			// first, we iterate oldest first), so prepend.
			m.versions = append(append([]version(nil), e.versions...), m.versions...)
		}
	}
	sort.Strings(keys)
	out := &run{entries: make([]entry, 0, len(keys))}
	for _, k := range keys {
		e := merged[k]
		e.versions = pruneVersions(e.versions, floor)
		if len(e.versions) == 0 {
			continue
		}
		if len(e.versions) == 1 && e.versions[0].tombstone && floor == 0 {
			continue // fully dead key
		}
		out.entries = append(out.entries, *e)
	}
	s.runs = []*run{out}
}

// pruneVersions discards history no snapshot can observe: with floor being
// the oldest open snapshot seq (0 = none), every version newer than the
// floor stays (some snapshot between floor and now may read it), plus the
// first version at or below the floor (what the oldest snapshot reads).
// Anything older is unreachable.
func pruneVersions(vs []version, floor uint64) []version {
	if len(vs) <= 1 {
		return vs
	}
	if floor == 0 {
		return vs[:1:1]
	}
	out := make([]version, 0, len(vs))
	for _, v := range vs {
		out = append(out, v)
		if v.seq <= floor {
			break
		}
	}
	return out
}

// snapshotFloor returns the smallest open snapshot seq, or 0 when none.
func (s *Store) snapshotFloor() uint64 {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	var floor uint64
	for seq := range s.openSnaps {
		if floor == 0 || seq < floor {
			floor = seq
		}
	}
	return floor
}

// Get returns the current value of key.
func (s *Store) Get(key string) ([]byte, bool, error) {
	if s.closed.Load() {
		return nil, false, ErrClosed
	}
	return s.getAt(key, s.seq.Load())
}

func (s *Store) getAt(key string, atSeq uint64) ([]byte, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if v, ok := s.mem.get(key, atSeq); ok {
		if v.tombstone {
			return nil, false, nil
		}
		return v.value, true, nil
	}
	for _, r := range s.runs {
		if v, ok := r.get(key, atSeq); ok {
			if v.tombstone {
				return nil, false, nil
			}
			return v.value, true, nil
		}
	}
	return nil, false, nil
}

// Len returns the number of live keys (linear scan; intended for tests and
// checkpoint sizing, not hot paths).
func (s *Store) Len() int {
	n := 0
	_ = s.Scan("", "", func(string, []byte) bool { n++; return true })
	return n
}

// Scan calls fn for every live key in [start, end) in ascending key order.
// An empty end means "to the last key". fn returning false stops the scan.
func (s *Store) Scan(start, end string, fn func(key string, value []byte) bool) error {
	if s.closed.Load() {
		return ErrClosed
	}
	return s.scanAt(start, end, s.seq.Load(), fn)
}

func (s *Store) scanAt(start, end string, atSeq uint64, fn func(string, []byte) bool) error {
	s.mu.RLock()
	// Collect candidate key lists: memtable + each run. Merge by key,
	// memtable wins, then newer runs.
	sources := make([][]string, 0, len(s.runs)+1)
	sources = append(sources, s.mem.keys)
	for _, r := range s.runs {
		ks := make([]string, len(r.entries))
		for i := range r.entries {
			ks[i] = r.entries[i].key
		}
		sources = append(sources, ks)
	}
	s.mu.RUnlock()

	seen := make(map[string]struct{})
	var keys []string
	for _, src := range sources {
		i := sort.SearchStrings(src, start)
		for ; i < len(src); i++ {
			k := src[i]
			if end != "" && k >= end {
				break
			}
			if _, dup := seen[k]; !dup {
				seen[k] = struct{}{}
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		v, ok, err := s.getAt(k, atSeq)
		if err != nil {
			return err
		}
		if !ok {
			continue // newest visible version is a tombstone
		}
		if !fn(k, v) {
			return nil
		}
	}
	return nil
}

// Close releases resources. Outstanding snapshots become invalid.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	if s.log != nil {
		return s.log.Close()
	}
	return nil
}
