// Package core implements the paper's forward-looking contribution: the
// transactional cloud-application runtime §5 calls for — "a programming
// model and system with transparent parallelization, scalability, and
// consistency". It is a deterministic transactional stateful-functions
// engine in the style of Styx [52] and the transactional-dataflow line of
// work the authors survey (§4.2, refs [21, 22, 51]):
//
//   - Every transaction is appended to a durable input log; its log position
//     is its global transaction id. The log IS the sequencer.
//   - Execution is deterministic: transactions apply in log order, with
//     non-conflicting transactions (disjoint key sets) running in
//     parallel. The schedule is conflict-equivalent to the serial order of
//     the log, so the system is serializable *without* locks held across
//     messages and *without* 2PC — the cost the Orleans-style coordinator
//     pays (E1 and the actor rows of E17/E20 quantify the difference).
//   - Exactly-once: state snapshots are taken together with the input
//     offsets; recovery reloads the snapshot and replays the log suffix.
//     Determinism makes the replay bit-for-bit identical, and a result
//     cache keyed by client request id makes Submit idempotent.
//
// # Sharding
//
// The key space is hash-partitioned across Config.Partitions input-log
// partitions (Calvin-style; E16 measures the scaling curve). Each partition
// owns one input log and one scheduler loop:
//
//   - A transaction whose declared keys all hash to one partition appends to
//     that partition's log and executes with zero cross-shard coordination —
//     its position in the home partition's log is its order.
//   - A transaction spanning partitions appends to the global sequence
//     (gseq) log. A lone sequencer goroutine interleaves each such
//     transaction into every involved partition's log as a marker stamped
//     with its gseq offset (at most once per partition: a stamp watermark
//     drops re-sequenced markers), so all partitions agree on the relative
//     order of cross-partition transactions. Each partition executor wires
//     the transaction into its own per-key dependency chains at the
//     marker's log position; the last partition to reach its marker
//     launches execution.
//
// The combined schedule stays conflict-equivalent to a serial order: keys
// are owned by exactly one partition, so conflicts within a partition
// follow that partition's log order, and every partition log agrees with
// the global sequence order on cross-partition transactions — the conflict
// graph is acyclic. Partitions = 1 degenerates to exactly the single-log
// runtime (no gseq log, no extra machinery).
//
// Transactions declare their key set up front (Calvin-style reconnaissance;
// Styx discovers it dynamically — the declared-keys simplification keeps the
// scheduler compact while preserving the performance shape: no coordination
// round trips, conflict-driven parallelism).
package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tca/internal/fabric"
	"tca/internal/metrics"
	"tca/internal/mq"
)

// Common runtime errors.
var (
	ErrNoFunction = errors.New("core: no registered function")
	ErrUndeclared = errors.New("core: access to undeclared key")
	ErrAborted    = errors.New("core: transaction aborted")
	ErrNotRunning = errors.New("core: runtime not running")
	ErrTimeout    = errors.New("core: result wait timeout")
	ErrReadOnly   = errors.New("core: write in read-only transaction")
	// ErrOverloaded is the admission-control sentinel: a bounded submission
	// queue (Config.MaxPending) was full and the runtime shed the request
	// instead of queueing it. Match with errors.Is; the concrete error is
	// an *OverloadError carrying the rejection's context.
	ErrOverloaded = errors.New("core: overloaded")
)

// OverloadError is the typed shed rejection SubmitAsync returns when
// admission control (Config.MaxPending) refuses a submission. The request
// never reached the log: nothing was appended, nothing will execute, and
// the same reqID may simply be resubmitted after RetryAfter.
type OverloadError struct {
	// Partition is the home partition whose batcher queue was full, or -1
	// when the global-sequence (cross-partition) path was saturated.
	Partition int
	// Pending is the queue depth observed at rejection.
	Pending int
	// RetryAfter is a coarse hint: roughly how long until the appender has
	// drained enough to plausibly accept a retry.
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	where := fmt.Sprintf("partition %d", e.Partition)
	if e.Partition < 0 {
		where = "global sequence"
	}
	return fmt.Sprintf("core: overloaded: %s queue full (%d pending, retry after %v)",
		where, e.Pending, e.RetryAfter)
}

// Is makes errors.Is(err, ErrOverloaded) match.
func (e *OverloadError) Is(target error) bool { return target == ErrOverloaded }

// Tx is the transactional context passed to functions. All state access is
// restricted to the transaction's declared keys; writes buffer and apply
// atomically at commit. Read-only transactions (SubmitReadOnly) run over a
// consistent snapshot instead of live state and reject writes.
type Tx struct {
	rt     *Runtime
	tid    int64
	reqID  string
	keys   map[string]struct{}
	writes map[string][]byte
	dels   map[string]struct{}
	ro     bool
	snap   map[string][]byte
}

// TID returns the transaction's global id. A single-partition transaction's
// id encodes (home-partition log offset, partition); a cross-partition
// transaction's id is its global sequence offset.
func (t *Tx) TID() int64 { return t.tid }

// ReqID returns the request id the transaction was submitted under — the
// same on every re-execution of it (recovery replay).
func (t *Tx) ReqID() string { return t.reqID }

// Get reads a declared key.
func (t *Tx) Get(key string) ([]byte, bool, error) {
	if _, ok := t.keys[key]; !ok {
		return nil, false, fmt.Errorf("%w: %s", ErrUndeclared, key)
	}
	if t.ro {
		v, ok := t.snap[key]
		if !ok {
			return nil, false, nil
		}
		return append([]byte(nil), v...), true, nil
	}
	if _, deleted := t.dels[key]; deleted {
		return nil, false, nil
	}
	if v, ok := t.writes[key]; ok {
		return v, true, nil
	}
	t.rt.stateMu.Lock()
	v, ok := t.rt.state[key]
	t.rt.stateMu.Unlock()
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), v...), true, nil
}

// Put buffers a write to a declared key.
func (t *Tx) Put(key string, value []byte) error {
	if t.ro {
		return fmt.Errorf("%w: %s", ErrReadOnly, key)
	}
	if _, ok := t.keys[key]; !ok {
		return fmt.Errorf("%w: %s", ErrUndeclared, key)
	}
	delete(t.dels, key)
	t.writes[key] = append([]byte(nil), value...)
	return nil
}

// Del buffers a delete of a declared key.
func (t *Tx) Del(key string) error {
	if t.ro {
		return fmt.Errorf("%w: %s", ErrReadOnly, key)
	}
	if _, ok := t.keys[key]; !ok {
		return fmt.Errorf("%w: %s", ErrUndeclared, key)
	}
	delete(t.writes, key)
	t.dels[key] = struct{}{}
	return nil
}

// TxnFunc is a transactional function: it reads and writes its declared
// keys through tx and returns a result for the client. Returning an error
// aborts the transaction (no writes apply) — the error is the result.
// Functions must be deterministic: same state + args => same outcome.
type TxnFunc func(tx *Tx, args []byte) ([]byte, error)

// Config tunes the runtime.
type Config struct {
	// Name labels the runtime for its callers; the runtime does not read it.
	Name string
	// Workers bounds concurrently executing transactions. Zero means 8.
	Workers int
	// Partitions shards the key space across that many input-log partitions,
	// each with its own scheduler loop. Zero or one means a single log —
	// exactly the pre-sharding semantics.
	Partitions int
	// SequenceDelay models the per-record latency of durably appending and
	// order-stamping one record at an input log — the fsync/replication
	// await of a real durable log (cf. store.Config.ServiceTime, which
	// models CPU-bound database work by spinning; an append await leaves
	// the CPU free, so it sleeps). It is paid serially at each partition's
	// appender (the group-append batcher: submissions arriving while an
	// append is in flight join the next group and split one record's
	// delay — the group-commit amortization E20 measures) and per
	// cross-partition record at the global sequencer, but overlaps across
	// partitions — the latency sharding hides, which E16 measures. Zero
	// (the default) disables the model. Model mode only: with LogDir set, a
	// real disk's own append+fsync cost replaces the model.
	SequenceDelay time.Duration
	// LogDir, when set, attaches a disk to every input log: a write-ahead
	// log under <LogDir>/p<partition> (and <LogDir>/gseq for the gseq log).
	// Every append — batcher groups, cross-partition submissions, sequencer
	// markers — is persisted (header record with a Merkle root over the
	// members, then one JSON record per member) before it enters the log's
	// in-memory tail, which then keeps only what its reader has not yet
	// scheduled. Every Start, Recover included, rebuilds the tails from the
	// disks through Merkle verification — persist, then act, measured
	// instead of modeled. See internal/core/wal.go.
	LogDir string
	// Fsync selects the durable log's sync policy (LogDir mode only):
	// every batch (default), interval (FsyncEvery), or none.
	Fsync FsyncPolicy
	// FsyncEvery is the FsyncInterval flush period. Zero means 1ms.
	FsyncEvery time.Duration
	// MaxGroupAppend caps how many concurrent submissions one group append
	// may carry. Zero means 128. E22 sweeps it to map batch size against
	// fsync policy.
	MaxGroupAppend int
	// MaxPending, when positive, turns on admission control: each
	// partition's batcher queue holds at most MaxPending un-appended
	// submissions and SubmitAsync sheds (returns *OverloadError,
	// errors.Is-matching ErrOverloaded) instead of blocking when it is
	// full; the cross-partition path bounds its in-flight un-sequenced
	// submissions the same way. Zero or negative keeps the legacy
	// behavior: a MaxGroupAppend-deep queue with blocking admission. E23
	// sweeps offered load past saturation against this knob.
	MaxPending int
	// ResultTimeout bounds Submit waits. Zero means 10s.
	ResultTimeout time.Duration
	// Cluster, when set, charges Submit's sequencer and reply hops to the
	// caller's trace for latency comparisons.
	Cluster *fabric.Cluster
}

// Result is a transaction outcome. Seq is the transaction's position in
// the runtime's serialization order — derived from its log offset, with
// group-append members sub-ordered by their batch index (members share a
// log entry and therefore a TID, but are scheduled, and so serialized, in
// batch order). Zero means unknown (e.g. a timed-out handle).
type Result struct {
	Value []byte
	Err   string // "" = committed
	TID   int64
	Seq   int64
}

// request is one transaction as an input log holds it: a group append
// (SubmitAsync batching concurrent submissions) is a []request — one log
// entry, many transactions, one SequenceDelay: the amortization that makes
// pipelined clients scale the log's serial append rate. Its JSON is the
// disk's member record format (wal.go). GSeq is zero for transactions
// appended directly to their home partition; the sequencer stamps
// cross-partition markers, each a group of one, with their global sequence
// offset + 1. A request is immutable once appended.
type request struct {
	ReqID string   `json:"r,omitempty"`
	Fn    string   `json:"f,omitempty"`
	Keys  []string `json:"k,omitempty"`
	Args  []byte   `json:"a,omitempty"`
	GSeq  int64    `json:"g,omitempty"`
}

// maxGroupAppend is the default bound on how many concurrent submissions
// one group append may carry; Config.MaxGroupAppend overrides it.
const maxGroupAppend = 128

// pendingSubmit is one submission waiting for its group append. acked is
// buffered so a batcher shutting down never blocks on a submitter that
// already gave up.
type pendingSubmit struct {
	req   request
	acked chan error
}

// crossTxn gathers one cross-partition transaction while the involved
// partition executors reach its markers. Every joiner splices the shared
// done channel into the chains of the keys its partition owns, so
// successors in every partition wait on the same completion event; the last
// joiner launches execution.
type crossTxn struct {
	tid    int64
	req    request
	need   int
	joined map[int]bool
	waits  []chan struct{}
	done   chan struct{}
}

// Runtime is the deterministic transactional engine.
type Runtime struct {
	cfg        Config
	nparts     int
	maxGroup   int
	maxPending int // >0: bounded batcher queues + shedding (Config.MaxPending)
	m          *metrics.Registry

	// crossPending counts cross-partition submissions appended to the gseq
	// log but not yet consumed by the sequencer — the gseq path's bounded
	// queue when maxPending > 0.
	crossPending atomic.Int64

	// logs are the input logs: one per partition, then (when sharded) the
	// global-sequence log, which gseq also names. Each owns its reader's
	// position. In LogDir mode each has a disk, replayed by every Start,
	// kept attached across Crash (the disk survives a crash), detached by
	// Stop.
	logs []*inputLog
	gseq *inputLog

	// per-partition commit counters, resolved once, off the hot path.
	partCommits []*metrics.Counter

	fnMu sync.RWMutex
	fns  map[string]TxnFunc

	stateMu sync.Mutex
	state   map[string][]byte

	// scheduler: per-key tail of the dependency chain. A key is owned by
	// exactly one partition, so two executors never race on the same
	// entry's order, only on the map itself.
	schedMu sync.Mutex
	tails   map[string]chan struct{}
	sem     chan struct{}

	// results: cache (exactly-once client semantics) + waiters. scheduled
	// guards against double execution when the same request id appears
	// twice in a partition log (concurrent client retries).
	resMu     sync.Mutex
	results   map[string]Result
	waiters   map[string][]chan Result
	scheduled map[string]struct{}

	// cross-partition transactions currently being gathered.
	crossMu sync.Mutex
	cross   map[string]*crossTxn

	// checkpoint survives Crash, like the dataflow checkpoint store
	// (models durable snapshot storage).
	ckMu       sync.Mutex
	checkpoint *snapshot

	runMu    sync.Mutex
	running  bool
	stop     chan struct{}
	batchCh  []chan *pendingSubmit // per-partition group-append queues
	wg       sync.WaitGroup
	inflight sync.WaitGroup

	// inflightN counts the same scheduled-transaction goroutines as
	// inflight. Crash waits on the WaitGroup after the schedulers have
	// stopped; Quiesce runs while they still schedule — where
	// WaitGroup.Wait must not race an Add from zero — and polls this.
	inflightN atomic.Int64

	seqMu   sync.Mutex
	seqSeen map[string]struct{} // request ids already sequenced (dedup)
}

type snapshot struct {
	offsets []int64 // reader positions, one per log in logs order
	seqSeen map[string]struct{}
	state   map[string][]byte
	results map[string]Result
}

// NewRuntime creates a runtime with cfg.Partitions input logs, plus a gseq
// log ordering cross-partition transactions when there is more than one.
// The input logs live in the runtime itself (and on disk in LogDir mode);
// they do not use the broker.
func NewRuntime(_ *mq.Broker, cfg Config) *Runtime {
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.Partitions <= 0 {
		cfg.Partitions = 1
	}
	if cfg.ResultTimeout <= 0 {
		cfg.ResultTimeout = 10 * time.Second
	}
	nparts := cfg.Partitions
	maxGroup := cfg.MaxGroupAppend
	if maxGroup <= 0 {
		maxGroup = maxGroupAppend
	}
	r := &Runtime{
		cfg:         cfg,
		nparts:      nparts,
		maxGroup:    maxGroup,
		maxPending:  cfg.MaxPending,
		m:           metrics.NewRegistry(),
		partCommits: make([]*metrics.Counter, nparts),
		fns:         make(map[string]TxnFunc),
		state:       make(map[string][]byte),
		tails:       make(map[string]chan struct{}),
		sem:         make(chan struct{}, cfg.Workers),
		results:     make(map[string]Result),
		waiters:     make(map[string][]chan Result),
		scheduled:   make(map[string]struct{}),
		cross:       make(map[string]*crossTxn),
		seqSeen:     make(map[string]struct{}),
	}
	for p := 0; p < nparts; p++ {
		r.partCommits[p] = r.m.Counter(fmt.Sprintf("core.partition.%d.commits", p))
		r.logs = append(r.logs, r.newInputLog(fmt.Sprintf("p%d", p)))
	}
	if nparts > 1 {
		r.gseq = r.newInputLog("gseq")
		r.logs = append(r.logs, r.gseq)
	}
	return r
}

// Metrics returns the runtime's instruments.
func (r *Runtime) Metrics() *metrics.Registry { return r.m }

// Partitions returns the number of input-log partitions the runtime shards
// the key space across.
func (r *Runtime) Partitions() int { return r.nparts }

// PartitionOf returns the home partition of a key.
func (r *Runtime) PartitionOf(key string) int { return mq.PartitionForKey(key, r.nparts) }

// Register binds a function name to its body.
func (r *Runtime) Register(name string, fn TxnFunc) {
	r.fnMu.Lock()
	defer r.fnMu.Unlock()
	r.fns[name] = fn
}

// partitionsOf returns the sorted distinct home partitions of a key set.
// An empty key set homes on partition 0.
func (r *Runtime) partitionsOf(keys []string) []int {
	if r.nparts == 1 || len(keys) == 0 {
		return []int{0}
	}
	seen := make(map[int]struct{}, len(keys))
	parts := make([]int, 0, len(keys))
	for _, k := range keys {
		p := mq.PartitionForKey(k, r.nparts)
		if _, ok := seen[p]; !ok {
			seen[p] = struct{}{}
			parts = append(parts, p)
		}
	}
	sort.Ints(parts)
	return parts
}

// Start launches the partition executors (and, when sharded, the global
// sequencer) from the latest checkpoint. In LogDir mode it first rebuilds
// every input log from its disk.
func (r *Runtime) Start() error {
	r.runMu.Lock()
	defer r.runMu.Unlock()
	if r.running {
		return nil
	}
	// In LogDir mode every start — the first, after Crash, after Stop —
	// rebuilds each log's tail from its disk through Merkle verification:
	// persist-then-act's recovery half, one path for every restart.
	if r.cfg.LogDir != "" {
		for _, l := range r.logs {
			if err := l.replay(); err != nil {
				for _, l := range r.logs {
					l.close()
				}
				return err
			}
		}
	}
	r.ckMu.Lock()
	ck := r.checkpoint
	if ck == nil {
		ck = &snapshot{offsets: make([]int64, len(r.logs))}
	}
	r.stateMu.Lock()
	r.state = cloneState(ck.state)
	r.stateMu.Unlock()
	r.resMu.Lock()
	r.results = cloneResults(ck.results)
	r.resMu.Unlock()
	for i, l := range r.logs {
		l.seek(ck.offsets[i])
	}
	r.seqMu.Lock()
	r.seqSeen = cloneSet(ck.seqSeen)
	r.seqMu.Unlock()
	r.ckMu.Unlock()
	// Handles registered before a crash survive it (they are client-side
	// state): deliver any whose result the restored checkpoint already
	// holds — replay re-executes the rest and delivers them the normal
	// way. Each waiter is removed when notified, so a handle resolves
	// exactly once across any number of crash/recovery cycles.
	r.resMu.Lock()
	for reqID, ws := range r.waiters {
		if res, ok := r.results[reqID]; ok {
			delete(r.waiters, reqID)
			for _, w := range ws {
				w <- res
			}
		}
	}
	r.resMu.Unlock()
	r.stop = make(chan struct{})
	// Fresh group-append queues per incarnation: a submission stranded in
	// a dead incarnation's queue already failed its caller via the closed
	// stop channel and must not be appended by the next incarnation.
	r.batchCh = make([]chan *pendingSubmit, r.nparts)
	r.running = true
	qcap := r.maxGroup
	if r.maxPending > 0 {
		// Bounded admission: the queue capacity IS the admission bound —
		// SubmitAsync sheds on a full channel instead of blocking.
		qcap = r.maxPending
	}
	for p := 0; p < r.nparts; p++ {
		r.batchCh[p] = make(chan *pendingSubmit, qcap)
		r.wg.Add(2)
		go r.runExecutor(p, r.stop)
		go r.runBatcher(p, r.batchCh[p], r.stop)
	}
	if r.nparts > 1 {
		r.wg.Add(1)
		go r.runSequencer(r.stop)
	}
	return nil
}

// retryAfterHint is the coarse backoff hint attached to shed rejections:
// the modeled append delay when one is configured (the queue drains at
// roughly one group per SequenceDelay), otherwise a millisecond — the
// order of one fsync-interval tick.
func (r *Runtime) retryAfterHint() time.Duration {
	if d := r.cfg.SequenceDelay; d > 0 {
		return d
	}
	return time.Millisecond
}

// admitCross reserves one of the gseq path's MaxPending slots — one Add,
// then the bound, so concurrent submitters cannot both pass a check made
// before either counted — and sheds when none is free.
func (r *Runtime) admitCross() error {
	if r.maxPending <= 0 {
		return nil
	}
	if n := r.crossPending.Add(1); n > int64(r.maxPending) {
		r.crossPending.Add(-1)
		r.m.Counter("core.shed").Inc()
		return &OverloadError{Partition: -1, Pending: int(n - 1), RetryAfter: r.retryAfterHint()}
	}
	return nil
}

// crossDone retires one counted cross-partition submission. The clamp
// absorbs gseq records that were never counted (disk replay,
// pre-bound incarnations), which can only make admission
// temporarily more permissive, never wedge it.
func (r *Runtime) crossDone() {
	for {
		v := r.crossPending.Load()
		if v <= 0 {
			return
		}
		if r.crossPending.CompareAndSwap(v, v-1) {
			return
		}
	}
}

// pace throttles an appending loop (the partition batchers, the global
// sequencer) to one record per SequenceDelay, modeling the serial
// durable-append/ordering latency of a real log partition. Owed delay
// accumulates and is slept in quanta of at least a millisecond —
// group-commit style — so coarse OS timer granularity cannot distort the
// modeled rate; measured oversleep is credited back.
func (r *Runtime) pace(owed time.Duration, records int) time.Duration {
	owed += r.cfg.SequenceDelay * time.Duration(records)
	if owed >= time.Millisecond {
		start := time.Now()
		time.Sleep(owed)
		owed -= time.Since(start)
	}
	return owed
}

// runExecutor consumes one input-log partition in order and schedules its
// transactions. One loop per partition is the parallelism sharding buys:
// decoding and scheduling of disjoint partitions never serializes behind a
// single goroutine. The consumption itself is unpaced: SequenceDelay was
// already paid when each record was appended (batcher or sequencer), and
// a recovery replay reads the local log without re-paying the append —
// which is also why replay outruns original ingestion.
func (r *Runtime) runExecutor(part int, stop chan struct{}) {
	defer r.wg.Done()
	r.logs[part].consume(stop, func(from int64, groups [][]request) {
		for i, reqs := range groups {
			r.schedule(part, from+int64(i), reqs, stop)
		}
	})
}

// runSequencer consumes the gseq log and interleaves each cross-partition
// transaction into every involved partition's log, in global sequence
// order. A single writer means all partitions observe cross-partition
// transactions in the same relative order, which keeps the combined
// conflict graph acyclic. The reader's position advances only after a
// batch's fan-out, so a drained gseq log implies every sequenced
// transaction's markers are in the partition logs — what Quiesce relies on.
// Each partition log drops a marker it already holds (its stamp
// watermark), so re-sequencing the gseq suffix after a crash never
// duplicates one.
func (r *Runtime) runSequencer(stop chan struct{}) {
	defer r.wg.Done()
	var owed time.Duration
	r.gseq.consume(stop, func(from int64, groups [][]request) {
		if r.cfg.SequenceDelay > 0 && r.cfg.LogDir == "" {
			owed = r.pace(owed, len(groups))
		}
		for i, reqs := range groups {
			for _, req := range reqs {
				r.sequenceOne(req, from+int64(i), stop)
				r.crossDone()
			}
		}
	})
}

// sequenceOne fans the gseq entry at offset off out to its involved
// partitions. Duplicate request ids (client retries racing Submit's fast
// path) are dropped here, so each partition log carries at most one marker
// per cross-partition request. req is a copy of the gseq entry, so
// stamping it leaves the tail as appended.
func (r *Runtime) sequenceOne(req request, off int64, stop chan struct{}) {
	r.seqMu.Lock()
	_, dup := r.seqSeen[req.ReqID]
	if !dup {
		r.seqSeen[req.ReqID] = struct{}{}
	}
	r.seqMu.Unlock()
	if dup {
		r.m.Counter("core.seq_dup_drops").Inc()
		return
	}
	req.GSeq = off + 1
	marker := []request{req}
	for _, p := range r.partitionsOf(req.Keys) {
		if err := r.logs[p].appendGroup(marker, req.GSeq, stop); err != nil {
			r.m.Counter("core.wal_errors").Inc()
		}
		r.logs[p].notify()
	}
	r.m.Counter("core.cross_sequenced").Inc()
}

// runBatcher is the partition's appender: it turns concurrent submissions
// into group log appends. Each appended record pays the modeled
// SequenceDelay serially (pace; the fsync/replication await of a real
// log), and submissions arriving while that pay is in flight join the
// current group — classic group commit. A group of N concurrent
// submissions therefore costs one record's delay instead of N, which is
// why the deterministic cell's throughput grows with client count in E20.
func (r *Runtime) runBatcher(part int, ch chan *pendingSubmit, stop chan struct{}) {
	defer r.wg.Done()
	var owed time.Duration
	for {
		var first *pendingSubmit
		select {
		case <-stop:
			// Fail-ack anything still queued so no submitter blocks on a
			// dead incarnation.
			for {
				select {
				case ps := <-ch:
					ps.acked <- ErrNotRunning
				default:
					return
				}
			}
		case first = <-ch:
		}
		batch := []*pendingSubmit{first}
		// The durable append ahead of this group: pay one record's delay,
		// then sweep in everything that queued while it was in flight. With
		// a disk attached (LogDir) the append itself is the delay — the
		// modeled pace is not charged on top.
		if r.cfg.SequenceDelay > 0 && r.cfg.LogDir == "" {
			owed = r.pace(owed, 1)
		}
		// Sweep in everything already queued. In WAL mode, yield the
		// processor a few times between sweeps: submitters woken by the
		// previous group's acks are runnable but may not have re-enqueued
		// yet (acute on few cores), and a scheduler pass costs ~µs against
		// the fsync this group is about to pay — so letting them join
		// multiplies the records amortizing it.
		yields := 0
	drain:
		for len(batch) < r.maxGroup {
			select {
			case ps := <-ch:
				batch = append(batch, ps)
			default:
				if r.cfg.LogDir == "" || yields >= 4 {
					break drain
				}
				yields++
				runtime.Gosched()
			}
		}
		if len(batch) > 1 {
			r.m.Counter("core.group_appends").Inc()
			r.m.Counter("core.grouped_txns").Add(int64(len(batch)))
		}
		// The group is one log entry. In LogDir mode the ack below means
		// "on disk per the fsync policy".
		reqs := make([]request, len(batch))
		for i, ps := range batch {
			reqs[i] = ps.req
		}
		err := r.logs[part].appendGroup(reqs, 0, stop)
		if err == nil && r.cfg.LogDir != "" {
			r.m.Counter("core.wal_group_appends").Inc()
			r.m.Counter("core.wal_records").Add(int64(len(reqs)))
		}
		for _, ps := range batch {
			ps.acked <- err
		}
		r.logs[part].notify()
	}
}

// schedule routes one log entry: a group of one with a global-sequence
// stamp is a cross-partition marker written by the sequencer; any other
// group's members are home-partition transactions, scheduled in group
// order (so chain order still equals log order). Members share the entry's
// transaction id and are sub-ordered by their index, and replay rebuilds
// the identical group.
func (r *Runtime) schedule(part int, off int64, reqs []request, stop chan struct{}) {
	if len(reqs) == 1 && reqs[0].GSeq != 0 {
		r.scheduleCross(part, r.partitionsOf(reqs[0].Keys), reqs[0], stop)
		return
	}
	tid := off*int64(r.nparts) + int64(part)
	for i, req := range reqs {
		r.scheduleSingle(part, tid, tid*int64(r.maxGroup)+int64(i)+1, req, stop)
	}
}

// scheduleSingle wires a home-partition transaction into the per-key
// dependency chains and launches it. Scheduling happens in partition-log
// order, so chain order == log order; execution may interleave but only
// between non-conflicting transactions — conflict-equivalent to the serial
// log order.
func (r *Runtime) scheduleSingle(part int, tid, seq int64, req request, stop chan struct{}) {
	// Deduplicate: a replayed request whose result is already cached, or a
	// duplicate log entry whose first copy is already scheduled, must not
	// re-execute.
	r.resMu.Lock()
	_, done := r.results[req.ReqID]
	_, inFlight := r.scheduled[req.ReqID]
	if !done && !inFlight {
		r.scheduled[req.ReqID] = struct{}{}
	}
	r.resMu.Unlock()
	if done || inFlight {
		return
	}
	myDone := make(chan struct{})
	waits := r.splice(append([]string(nil), req.Keys...), myDone, make([]chan struct{}, 0, len(req.Keys)))
	r.launch(waits, myDone, stop, tid, seq, req, part)
}

// splice makes done the new tail of each key's dependency chain, in sorted
// key order (it sorts keys in place), and returns waits extended by the
// tails it replaced.
func (r *Runtime) splice(keys []string, done chan struct{}, waits []chan struct{}) []chan struct{} {
	sort.Strings(keys)
	r.schedMu.Lock()
	for _, k := range keys {
		if tail, ok := r.tails[k]; ok {
			waits = append(waits, tail)
		}
		r.tails[k] = done
	}
	r.schedMu.Unlock()
	return waits
}

// launch executes a scheduled transaction once every chain tail it waits on
// has completed and a worker slot is free, then closes done (also when the
// incarnation stops first). part < 0 marks a cross-partition transaction,
// whose gathering entry is dropped when it finishes.
func (r *Runtime) launch(waits []chan struct{}, done, stop chan struct{}, tid, seq int64, req request, part int) {
	r.inflight.Add(1)
	r.inflightN.Add(1)
	go func() {
		defer r.inflight.Done()
		defer r.inflightN.Add(-1)
		defer close(done)
		if part < 0 {
			defer func() {
				r.crossMu.Lock()
				delete(r.cross, req.ReqID)
				r.crossMu.Unlock()
			}()
		}
		for _, w := range waits {
			select {
			case <-w:
			case <-stop:
				return
			}
		}
		select {
		case r.sem <- struct{}{}:
			defer func() { <-r.sem }()
		case <-stop:
			return
		}
		r.execute(tid, seq, req, part)
	}()
}

// scheduleCross contributes one partition's view of a cross-partition
// transaction. The marker sits at a deterministic position in this
// partition's log, so splicing the keys this partition owns into the chains
// here orders this partition's conflicts against the transaction exactly as
// the log says. The last involved partition to reach its marker launches
// execution.
func (r *Runtime) scheduleCross(part int, parts []int, req request, stop chan struct{}) {
	r.resMu.Lock()
	_, done := r.results[req.ReqID]
	r.resMu.Unlock()
	if done {
		return
	}
	r.crossMu.Lock()
	ct, ok := r.cross[req.ReqID]
	if !ok {
		ct = &crossTxn{
			tid:    req.GSeq - 1,
			req:    req,
			need:   len(parts),
			joined: make(map[int]bool, len(parts)),
			waits:  make([]chan struct{}, 0, len(req.Keys)),
			done:   make(chan struct{}),
		}
		r.cross[req.ReqID] = ct
	}
	if ct.joined[part] {
		r.crossMu.Unlock()
		return
	}
	ct.joined[part] = true
	myKeys := make([]string, 0, len(req.Keys))
	for _, k := range req.Keys {
		if mq.PartitionForKey(k, r.nparts) == part {
			myKeys = append(myKeys, k)
		}
	}
	ct.waits = r.splice(myKeys, ct.done, ct.waits)
	launch := len(ct.joined) == ct.need
	r.crossMu.Unlock()
	if launch {
		r.launch(ct.waits, ct.done, stop, ct.tid, ct.tid*int64(r.maxGroup)+1, ct.req, -1)
	}
}

// execute runs one transaction and publishes its result. part is the home
// partition, or -1 for a cross-partition transaction; seq is the
// transaction's serialization stamp (Result.Seq).
func (r *Runtime) execute(tid, seq int64, req request, part int) {
	r.fnMu.RLock()
	fn, ok := r.fns[req.Fn]
	r.fnMu.RUnlock()
	var res Result
	if !ok {
		res = Result{Err: ErrNoFunction.Error() + ": " + req.Fn, TID: tid, Seq: seq}
	} else {
		tx := &Tx{
			rt:     r,
			tid:    tid,
			reqID:  req.ReqID,
			keys:   make(map[string]struct{}, len(req.Keys)),
			writes: make(map[string][]byte),
			dels:   make(map[string]struct{}),
		}
		for _, k := range req.Keys {
			tx.keys[k] = struct{}{}
		}
		// The body gets its own copy of the args: the log entry must
		// replay as appended.
		value, err := fn(tx, slices.Clone(req.Args))
		if err != nil {
			res = Result{Err: err.Error(), TID: tid, Seq: seq}
			r.m.Counter("core.aborts").Inc()
		} else {
			// Commit: apply buffered writes atomically.
			r.stateMu.Lock()
			for k, v := range tx.writes {
				r.state[k] = v
			}
			for k := range tx.dels {
				delete(r.state, k)
			}
			r.stateMu.Unlock()
			res = Result{Value: value, TID: tid, Seq: seq}
			r.m.Counter("core.commits").Inc()
			if part >= 0 {
				r.partCommits[part].Inc()
			} else {
				r.m.Counter("core.cross_commits").Inc()
			}
		}
	}
	r.resMu.Lock()
	r.results[req.ReqID] = res
	delete(r.scheduled, req.ReqID)
	ws := r.waiters[req.ReqID]
	delete(r.waiters, req.ReqID)
	r.resMu.Unlock()
	for _, w := range ws {
		w <- res
	}
}

// Handle is an in-flight asynchronous submission (SubmitAsync). Done
// closes when the scheduled transaction has committed or aborted — the
// "applied" event, as opposed to the durable-append acknowledgment
// SubmitAsync's return represents. A handle survives Crash/Recover: the
// request is already in the log when the handle exists, so replay
// re-executes (or the restored checkpoint re-delivers) it, and the handle
// resolves exactly once.
type Handle struct {
	ch       chan Result
	done     chan struct{}
	timeout  time.Duration
	rt       *Runtime
	tr       *fabric.Trace
	reqID    string
	res      Result
	timedOut bool
}

// watch waits for the executor's result delivery (bounded by the
// runtime's ResultTimeout) and completes the handle. A timed-out handle
// unregisters its waiter so abandoned registrations cannot accumulate
// across the runtime's lifetime.
func (h *Handle) watch() {
	timer := time.NewTimer(h.timeout)
	defer timer.Stop()
	select {
	case res := <-h.ch:
		h.res = res
		h.rt.chargeHop(h.tr) // result -> client
	case <-timer.C:
		h.timedOut = true
		h.rt.dropWaiter(h.reqID, h.ch)
	}
	close(h.done)
}

// Done is closed when the transaction has committed or aborted.
func (h *Handle) Done() <-chan struct{} { return h.done }

// Result blocks for completion and returns the transaction's outcome.
func (h *Handle) Result() ([]byte, error) {
	<-h.done
	if h.timedOut {
		return nil, ErrTimeout
	}
	return resultOut(h.res)
}

// Seq blocks for completion and returns the transaction's serialization
// stamp — its position in the runtime's commit order (zero if unknown,
// e.g. a timed-out handle). Auditors use it to replay observed commits in
// the order the runtime actually serialized them.
func (h *Handle) Seq() int64 {
	<-h.done
	if h.timedOut {
		return 0
	}
	return h.res.Seq
}

// resolvedHandle wraps an already-known result (dedup fast path).
func resolvedHandle(res Result) *Handle {
	h := &Handle{done: make(chan struct{}), res: res}
	close(h.done)
	return h
}

// Submit appends a transaction to its home partition (or, when its declared
// keys span partitions, to the gseq log) and waits for its
// result. reqID makes the call idempotent: resubmitting (a client retry)
// returns the cached result without re-execution. Two simulated hops (to
// the sequencer and back) are charged to tr — compare with the 2PC hop
// count.
func (r *Runtime) Submit(reqID, fn string, keys []string, args []byte, tr *fabric.Trace) ([]byte, error) {
	h, err := r.SubmitAsync(reqID, fn, keys, args, tr)
	if err != nil {
		return nil, err
	}
	return h.Result()
}

// SubmitAsync is the pipelined Submit: it returns once the transaction is
// durably appended — concurrent submissions to the same partition share a
// group log append, amortizing SequenceDelay — and the Handle resolves
// when the scheduled transaction commits. The two events are the
// deterministic cell's honest accept-vs-apply split: acknowledgment is
// the append, application is the commit, and E20 reports them as two
// latency numbers per request.
func (r *Runtime) SubmitAsync(reqID, fn string, keys []string, args []byte, tr *fabric.Trace) (*Handle, error) {
	r.runMu.Lock()
	running, stop, batches := r.running, r.stop, r.batchCh
	r.runMu.Unlock()
	if !running {
		return nil, ErrNotRunning
	}
	r.chargeHop(tr) // client -> sequencer
	// Fast path: already executed (client retry).
	r.resMu.Lock()
	if res, ok := r.results[reqID]; ok {
		r.resMu.Unlock()
		r.m.Counter("core.dedup_hits").Inc()
		r.chargeHop(tr) // cached result -> client
		return resolvedHandle(res), nil
	}
	ch := make(chan Result, 1)
	r.waiters[reqID] = append(r.waiters[reqID], ch)
	r.resMu.Unlock()
	// Every failure past this point must unregister the waiter: the
	// request never reached the log, so nothing will ever deliver it —
	// and Crash deliberately preserves waiters, so a leaked one would
	// outlive every recovery.
	fail := func(err error) (*Handle, error) {
		r.dropWaiter(reqID, ch)
		return nil, err
	}

	// The log entry owns its keys and args: the caller may reuse its
	// buffers once SubmitAsync returns.
	req := request{ReqID: reqID, Fn: fn, Keys: slices.Clone(keys), Args: slices.Clone(args)}
	if parts := r.partitionsOf(keys); len(parts) == 1 {
		ps := &pendingSubmit{req: req, acked: make(chan error, 1)}
		if r.maxPending > 0 {
			// Bounded admission: a full batcher queue sheds instead of
			// blocking — the request never reached the log, so nothing
			// to clean up beyond the waiter, and the same reqID can be
			// resubmitted after the hint.
			select {
			case batches[parts[0]] <- ps:
			default:
				r.m.Counter("core.shed").Inc()
				return fail(&OverloadError{
					Partition:  parts[0],
					Pending:    len(batches[parts[0]]),
					RetryAfter: r.retryAfterHint(),
				})
			}
		} else {
			select {
			case batches[parts[0]] <- ps:
			case <-stop:
				return fail(ErrNotRunning)
			}
		}
		select {
		case err := <-ps.acked:
			if err != nil {
				return fail(err)
			}
		case <-stop:
			return fail(ErrNotRunning)
		}
	} else {
		// The gseq path's bound: submissions appended to the gseq log but
		// not yet consumed by the sequencer.
		if err := r.admitCross(); err != nil {
			return fail(err)
		}
		// The gseq log is a cross-partition submission's durability point
		// (the sequencer's markers are derived from it).
		if err := r.gseq.appendGroup([]request{req}, 0, stop); err != nil {
			r.crossDone()
			return fail(err)
		}
		r.m.Counter("core.cross_submits").Inc()
		r.gseq.notify()
	}
	h := &Handle{ch: ch, done: make(chan struct{}), timeout: r.cfg.ResultTimeout, rt: r, tr: tr, reqID: reqID}
	go h.watch()
	return h, nil
}

// dropWaiter unregisters one waiter channel for reqID (submission failure
// or handle timeout). The channel is buffered, so a delivery racing the
// drop is absorbed rather than lost or blocking the executor.
func (r *Runtime) dropWaiter(reqID string, ch chan Result) {
	r.resMu.Lock()
	defer r.resMu.Unlock()
	ws := r.waiters[reqID]
	for i, w := range ws {
		if w == ch {
			ws = append(ws[:i], ws[i+1:]...)
			break
		}
	}
	if len(ws) == 0 {
		delete(r.waiters, reqID)
	} else {
		r.waiters[reqID] = ws
	}
}

// SubmitReadOnly executes a read-only transaction immediately against the
// latest committed state: no input-log append, no scheduling, no
// write-schedule slot consumed — queries never delay or conflict with the
// write pipeline. The snapshot of the declared keys is cut atomically
// under the state lock, which keeps it serializable: commits apply their
// whole write set under that lock, and any two committed writers that
// conflict with each other are chain-ordered (the later one applies its
// state strictly after the earlier one's apply completes), so a cut that
// includes the later writer always includes the earlier — the read fits
// into the conflict graph without a cycle. Writers that do not conflict
// commute around the read. Reads are naturally idempotent, so there is no
// result caching; reqID only names the request to the body (Tx.ReqID).
func (r *Runtime) SubmitReadOnly(reqID, fn string, keys []string, args []byte, tr *fabric.Trace) ([]byte, error) {
	r.runMu.Lock()
	running := r.running
	r.runMu.Unlock()
	if !running {
		return nil, ErrNotRunning
	}
	r.fnMu.RLock()
	body, ok := r.fns[fn]
	r.fnMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoFunction, fn)
	}
	r.chargeHop(tr) // client -> owning node
	tx := &Tx{
		rt:    r,
		tid:   -1,
		reqID: reqID,
		keys:  make(map[string]struct{}, len(keys)),
		ro:    true,
		snap:  make(map[string][]byte, len(keys)),
	}
	for _, k := range keys {
		tx.keys[k] = struct{}{}
	}
	r.stateMu.Lock()
	for _, k := range keys {
		if v, ok := r.state[k]; ok {
			tx.snap[k] = append([]byte(nil), v...)
		}
	}
	r.stateMu.Unlock()
	value, err := body(tx, args)
	r.chargeHop(tr) // result -> client
	if err != nil {
		r.m.Counter("core.readonly_aborts").Inc()
		return nil, fmt.Errorf("%w: %s", ErrAborted, err.Error())
	}
	r.m.Counter("core.readonly").Inc()
	return value, nil
}

// chargeHop prices one cross-node message on the fabric, when configured.
func (r *Runtime) chargeHop(tr *fabric.Trace) {
	if r.cfg.Cluster == nil || tr == nil {
		return
	}
	nodes := r.cfg.Cluster.Nodes()
	if len(nodes) == 0 {
		return
	}
	src := nodes[0]
	dst := nodes[len(nodes)-1]
	r.cfg.Cluster.Send(src, dst, tr)
}

func resultOut(res Result) ([]byte, error) {
	if res.Err != "" {
		return nil, fmt.Errorf("%w: %s", ErrAborted, res.Err)
	}
	return res.Value, nil
}

// Read returns the committed value of a key outside any transaction (it
// sees the latest committed state; used by tests and the harness).
func (r *Runtime) Read(key string) ([]byte, bool) {
	r.stateMu.Lock()
	defer r.stateMu.Unlock()
	v, ok := r.state[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// caughtUp reports whether everything written to the logs so far has been
// scheduled. The gseq log is checked first: once the sequencer has
// consumed all of it, every marker is already in the partition logs, so
// the partition lengths read afterwards cover them.
func (r *Runtime) caughtUp() bool {
	for i := len(r.logs) - 1; i >= 0; i-- { // gseq, when there is one, is last
		if pos, length := r.logs[i].progress(); pos < length {
			return false
		}
	}
	return true
}

// Quiesce blocks until every transaction in the logs so far has executed.
func (r *Runtime) Quiesce(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		ok := r.caughtUp()
		if ok && r.inflightN.Load() == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			if ok {
				return fmt.Errorf("core: quiesce timeout draining in-flight")
			}
			return fmt.Errorf("core: quiesce timeout (logs not drained)")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// progressCut samples the runtime's progress markers: every log reader's
// position, and the number of executed transactions (every execution
// inserts exactly one result).
func (r *Runtime) progressCut() ([]int64, int) {
	offsets := make([]int64, len(r.logs))
	for i, l := range r.logs {
		offsets[i], _ = l.progress()
	}
	r.resMu.Lock()
	defer r.resMu.Unlock()
	return offsets, len(r.results)
}

// Checkpoint snapshots state + results + input offsets (every log reader's
// position, the sequencer's included, plus its dedup set). The pieces are
// guarded by separate locks, so after quiescing and cloning, progress is
// re-sampled (through a second quiesce, which also drains anything
// consumed-but-unexecuted at clone time): if a concurrent Submit advanced
// any marker while the clones were cut, the pieces could disagree —
// offsets past a transaction whose write is missing from state would
// silently lose it on recovery — and the capture retries until it gets a
// stable cut. Returns the total number of log entries consumed across
// partitions.
func (r *Runtime) Checkpoint() (int64, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := r.Quiesce(time.Until(deadline)); err != nil {
			return 0, err
		}
		offsA, nResA := r.progressCut()
		r.stateMu.Lock()
		state := cloneState(r.state)
		r.stateMu.Unlock()
		r.resMu.Lock()
		results := cloneResults(r.results)
		r.resMu.Unlock()
		r.seqMu.Lock()
		seqSeen := cloneSet(r.seqSeen)
		r.seqMu.Unlock()
		if err := r.Quiesce(time.Until(deadline)); err != nil {
			return 0, err
		}
		offsB, nResB := r.progressCut()
		if slices.Equal(offsA, offsB) && nResA == nResB && nResA == len(results) {
			r.ckMu.Lock()
			r.checkpoint = &snapshot{offsets: offsA, seqSeen: seqSeen, state: state, results: results}
			r.ckMu.Unlock()
			r.m.Counter("core.checkpoints").Inc()
			var total int64
			for _, off := range offsA[:r.nparts] {
				total += off
			}
			return total, nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("core: checkpoint could not cut a stable snapshot")
		}
	}
}

// Crash kills the runtime, losing all in-memory state. Only the input logs
// and the checkpoint survive: in model mode their tails, in LogDir mode
// their disks, which stay attached for Recover to re-read.
func (r *Runtime) Crash() {
	r.runMu.Lock()
	if !r.running {
		r.runMu.Unlock()
		return
	}
	r.running = false
	close(r.stop)
	r.runMu.Unlock()
	r.wg.Wait()
	r.inflight.Wait()
	r.stateMu.Lock()
	r.state = make(map[string][]byte)
	r.stateMu.Unlock()
	r.resMu.Lock()
	r.results = make(map[string]Result)
	// waiters survive the crash: they are client-side handles for requests
	// already durably in the log. Recovery re-delivers them (Start) or
	// replay re-executes and delivers normally — exactly once either way.
	r.scheduled = make(map[string]struct{})
	r.resMu.Unlock()
	r.schedMu.Lock()
	r.tails = make(map[string]chan struct{})
	r.schedMu.Unlock()
	r.crossMu.Lock()
	r.cross = make(map[string]*crossTxn)
	r.crossMu.Unlock()
	r.m.Counter("core.crashes").Inc()
}

// Recover restarts from the checkpoint and replays the log suffixes (in
// LogDir mode re-read from the disks, as Start does). Determinism
// guarantees the replay reproduces the pre-crash state.
func (r *Runtime) Recover() error { return r.Start() }

// Stop halts gracefully. In-memory state is discarded, like Crash — resume
// is always from the checkpoint plus log replay, which keeps the recovery
// path singular and well-tested. In LogDir mode Stop also syncs and
// detaches the disks (Crash leaves them attached: the disk "survives" a
// crash); a later Start reopens them, and like Recover rebuilds every tail
// from its disk.
func (r *Runtime) Stop() {
	r.Crash()
	r.runMu.Lock()
	for _, l := range r.logs {
		l.close()
	}
	r.runMu.Unlock()
}

func cloneState(m map[string][]byte) map[string][]byte {
	out := make(map[string][]byte, len(m))
	for k, v := range m {
		out[k] = append([]byte(nil), v...)
	}
	return out
}

func cloneResults(m map[string]Result) map[string]Result {
	out := make(map[string]Result, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func cloneSet(m map[string]struct{}) map[string]struct{} {
	out := make(map[string]struct{}, len(m))
	for k := range m {
		out[k] = struct{}{}
	}
	return out
}
