// Package store implements the "external database system" of the paper's
// state-management taxonomy (§3.3): the DBMS that microservices, actors and
// workflows delegate state to. It is a multi-version store with selectable
// isolation levels:
//
//   - ReadCommitted: each read sees the latest committed version.
//   - SnapshotIsolation: reads at a start-of-transaction snapshot;
//     first-committer-wins on write-write conflicts.
//   - Serializable: snapshot reads plus commit-time read-set validation
//     (OCC in the style of Silo), which admits only serializable schedules.
//   - Locking2PL: strict two-phase locking with wound-wait deadlock
//     avoidance. This mode supports Prepare (locks held across the prepare
//     window), which is what the Orleans-style actor transaction
//     coordinator (internal/actor) builds on — and is the source of the
//     "blocking protocol" costs §4.2 discusses.
//
// Each key keeps a version chain, oldest first: a commit appends, a read
// scans from the newest end. Every transaction, whatever its isolation,
// registers its start timestamp at Begin and unregisters it when it commits
// or aborts; the oldest registered timestamp (or the clock, when none is
// open) is the low-water mark, and a commit drops every version of the keys
// it writes that is older than the newest one at or below the mark. A
// chain therefore holds only what open transactions may still read, and a
// steady-state commit neither copies history nor allocates for it.
//
// Rows are never copied (see Row): a version holds the row its transaction
// was given, and every reader of the version shares it.
//
// Update retries OCC conflicts with full-jitter exponential backoff, for at
// least ten attempts and at least LockWaitTimeout.
//
// The database also models shared infrastructure contention: a configurable
// admission limit and per-operation service time let the benchmarks
// reproduce the shared-database "noisy neighbor" effect versus
// database-per-service isolation (§3.3, experiment E4).
package store

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tca/internal/backoff"
)

// Common database errors.
var (
	ErrConflict      = errors.New("store: serialization conflict")
	ErrWriteConflict = errors.New("store: write-write conflict")
	ErrTxnDone       = errors.New("store: transaction already finished")
	ErrNoTable       = errors.New("store: no such table")
	ErrWounded       = errors.New("store: transaction wounded by deadlock avoidance")
	ErrLockTimeout   = errors.New("store: lock wait timeout")
	ErrNotPrepared   = errors.New("store: transaction not prepared")
)

// IsRetryable reports whether err is a transient concurrency-control error
// that the application should retry with a fresh transaction.
func IsRetryable(err error) bool {
	return errors.Is(err, ErrConflict) ||
		errors.Is(err, ErrWriteConflict) ||
		errors.Is(err, ErrWounded) ||
		errors.Is(err, ErrLockTimeout)
}

// Isolation selects the concurrency-control regime of a transaction.
type Isolation int

// Supported isolation levels.
const (
	ReadCommitted Isolation = iota
	SnapshotIsolation
	Serializable
	Locking2PL
)

func (i Isolation) String() string {
	switch i {
	case ReadCommitted:
		return "read-committed"
	case SnapshotIsolation:
		return "snapshot"
	case Serializable:
		return "serializable"
	case Locking2PL:
		return "2pl"
	default:
		return fmt.Sprintf("isolation(%d)", int(i))
	}
}

// Row is one record, passed by reference: Put keeps the row it is given,
// and Get and Scan return the installed (or staged) row, shared with every
// reader. A caller changes neither; it builds a new row (Clone, then set).
type Row map[string]any

// Clone returns a shallow copy of the row.
func (r Row) Clone() Row {
	if r == nil {
		return nil
	}
	c := make(Row, len(r))
	for k, v := range r {
		c[k] = v
	}
	return c
}

// Int reads column col as an int64 (coercing int), returning 0 when absent.
func (r Row) Int(col string) int64 {
	switch v := r[col].(type) {
	case int64:
		return v
	case int:
		return int64(v)
	default:
		return 0
	}
}

// Str reads column col as a string, returning "" when absent.
func (r Row) Str(col string) string {
	s, _ := r[col].(string)
	return s
}

// Float reads column col as a float64, returning 0 when absent.
func (r Row) Float(col string) float64 {
	switch v := r[col].(type) {
	case float64:
		return v
	case int64:
		return float64(v)
	case int:
		return float64(v)
	default:
		return 0
	}
}

// version is one committed version of a row.
type version struct {
	ts      uint64 // commit timestamp
	row     Row    // nil for deletes
	deleted bool
}

// record is a key's committed version chain, oldest first, pruned below
// the low-water mark: every version older than the newest one at or below
// the mark is dropped on the next install, since no open or future
// transaction reads below the mark.
type record struct {
	versions []version
}

// latest returns the newest version with ts <= at.
func (rec *record) latest(at uint64) (version, bool) {
	for i := len(rec.versions) - 1; i >= 0; i-- {
		if v := rec.versions[i]; v.ts <= at {
			return v, true
		}
	}
	return version{}, false
}

// install appends v (newer than every version in the chain) and drops the
// versions no reader at or above lowWater can see, compacting in place so
// a steady-state chain never reallocates.
func (rec *record) install(v version, lowWater uint64) {
	keep := 0 // index of the newest version at or below lowWater
	for keep+1 < len(rec.versions) && rec.versions[keep+1].ts <= lowWater {
		keep++
	}
	if keep > 0 {
		n := copy(rec.versions, rec.versions[keep:])
		clear(rec.versions[n:])
		rec.versions = rec.versions[:n]
	}
	rec.versions = append(rec.versions, v)
}

// table holds records and maintains a sorted key slice for range scans.
type table struct {
	mu     sync.RWMutex
	recs   map[string]*record
	keys   []string
	sorted bool
}

func newTable() *table {
	return &table{recs: make(map[string]*record)}
}

func (t *table) get(key string) (*record, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	rec, ok := t.recs[key]
	return rec, ok
}

// install adds a committed version for key, pruning its chain below
// lowWater. Caller serializes commits.
func (t *table) install(key string, v version, lowWater uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec, ok := t.recs[key]
	if !ok {
		rec = &record{}
		t.recs[key] = rec
		t.keys = append(t.keys, key)
		t.sorted = false
	}
	rec.install(v, lowWater)
}

func (t *table) sortedKeys() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.sorted {
		sort.Strings(t.keys)
		t.sorted = true
	}
	out := make([]string, len(t.keys))
	copy(out, t.keys)
	return out
}

// Config tunes the database's simulated resource envelope.
type Config struct {
	// Name labels the instance in metrics and errors.
	Name string
	// MaxConcurrent caps in-flight operations; 0 means unlimited. A low cap
	// with ServiceTime > 0 models a small connection pool / buffer-pool
	// bound instance whose tenants contend (the shared-database mode).
	MaxConcurrent int
	// ServiceTime is the per-operation busy time actually spent while a
	// slot is held, making the admission cap bite under load.
	ServiceTime time.Duration
	// LockWaitTimeout bounds 2PL lock waits, and is the time Update keeps
	// retrying conflicts for. Zero means 1s.
	LockWaitTimeout time.Duration
}

// DB is an in-memory multi-version database instance.
type DB struct {
	cfg Config

	clock    atomic.Uint64 // last committed timestamp
	txnSeq   atomic.Uint64 // transaction id source (age for wound-wait)
	commitMu sync.Mutex    // serializes validation + install

	// openMu guards open: one start timestamp per open transaction, in
	// ascending order — begin reads the clock and appends under openMu,
	// and the clock never goes back. Its head is the low-water mark.
	openMu sync.Mutex
	open   []uint64

	mu     sync.RWMutex
	tables map[string]*table

	locks  *lockManager
	sem    chan struct{}
	jitter *backoff.Jitter // Update's retry waits, seeded from Name

	// Stats observable by benchmarks.
	Commits   atomic.Int64
	Aborts    atomic.Int64
	Wounds    atomic.Int64
	Conflicts atomic.Int64
}

// NewDB creates an empty database.
func NewDB(cfg Config) *DB {
	if cfg.LockWaitTimeout <= 0 {
		cfg.LockWaitTimeout = time.Second
	}
	db := &DB{
		cfg:    cfg,
		tables: make(map[string]*table),
		jitter: backoff.Named(cfg.Name),
	}
	db.locks = newLockManager(db)
	if cfg.MaxConcurrent > 0 {
		db.sem = make(chan struct{}, cfg.MaxConcurrent)
	}
	return db
}

// Name returns the configured instance name.
func (db *DB) Name() string { return db.cfg.Name }

// CreateTable ensures a table exists. Idempotent.
func (db *DB) CreateTable(name string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[name]; !ok {
		db.tables[name] = newTable()
	}
}

func (db *DB) table(name string) (*table, error) {
	db.mu.RLock()
	t, ok := db.tables[name]
	db.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	return t, nil
}

// admit models occupying one unit of the shared database resource for the
// configured service time. The wait is real, so co-located tenants actually
// contend — this is what experiment E4 measures.
func (db *DB) admit() func() {
	if db.sem == nil {
		if db.cfg.ServiceTime > 0 {
			spin(db.cfg.ServiceTime)
		}
		return func() {}
	}
	db.sem <- struct{}{}
	if db.cfg.ServiceTime > 0 {
		spin(db.cfg.ServiceTime)
	}
	return func() { <-db.sem }
}

// spin busy-waits for roughly d, modeling CPU-bound database work (a sleep
// would yield the slot's pressure to the scheduler and mask contention).
func spin(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

// Now returns the latest commit timestamp.
func (db *DB) Now() uint64 { return db.clock.Load() }

// register returns a new transaction's start timestamp and records it as
// open. Reading the clock under the same mutex lowWater takes is what
// keeps the mark at or below every timestamp a reader may still use.
func (db *DB) register() uint64 {
	db.openMu.Lock()
	defer db.openMu.Unlock()
	ts := db.clock.Load()
	db.open = append(db.open, ts)
	return ts
}

// unregister removes one open transaction started at ts.
func (db *DB) unregister(ts uint64) {
	db.openMu.Lock()
	defer db.openMu.Unlock()
	i, _ := slices.BinarySearch(db.open, ts)
	db.open = slices.Delete(db.open, i, i+1)
}

// lowWater returns the oldest timestamp any open or future transaction can
// read at: the minimum start timestamp over open transactions — under every
// isolation, since ReadCommitted and Locking2PL read at the clock and the
// clock has only moved up since they began — or the published clock when
// none are open.
func (db *DB) lowWater() uint64 {
	db.openMu.Lock()
	defer db.openMu.Unlock()
	if len(db.open) == 0 {
		return db.clock.Load()
	}
	return db.open[0]
}

// View runs fn in a read-only snapshot transaction and always releases it.
func (db *DB) View(fn func(tx *Txn) error) error {
	tx := db.Begin(SnapshotIsolation)
	defer tx.Abort()
	return fn(tx)
}

// Update runs fn in a Serializable transaction, retrying on transient
// conflicts with full-jitter exponential backoff (updateBackoff doubling up
// to backoff.MaxFactor × itself) until at least updateMinAttempts attempts
// and LockWaitTimeout have both passed. fn may be invoked multiple times.
func (db *DB) Update(fn func(tx *Txn) error) error {
	var deadline time.Time
	window := updateBackoff
	for attempt := 1; ; attempt++ {
		tx := db.Begin(Serializable)
		err := fn(tx)
		if err == nil {
			err = tx.Commit()
		} else {
			tx.Abort()
		}
		if err == nil || !IsRetryable(err) {
			return err
		}
		if attempt == 1 {
			deadline = time.Now().Add(db.cfg.LockWaitTimeout)
		} else if attempt >= updateMinAttempts && !time.Now().Before(deadline) {
			return fmt.Errorf("store: retries exhausted after %d attempts: %w", attempt, err)
		}
		time.Sleep(db.jitter.Draw(window))
		window = backoff.Grow(window, updateBackoff)
	}
}

// Update's retry policy. A budget of attempts alone is used up by a few
// writers racing on one hot key, so the time budget (LockWaitTimeout) must
// pass too; the jittered backoff spreads the racing writers' retries apart.
const (
	updateMinAttempts = 10
	updateBackoff     = 20 * time.Microsecond
)
