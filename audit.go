package tca

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"tca/internal/vclock"
)

// Online incremental auditing. Every workload auditor used to replay the
// full accepted history against a serial reference after the run —
// O(history) wall clock at verification time, and only exact for
// order-confluent mixes because the reference was replayed in completion
// order. This file rebuilds auditing as one shared layer:
//
//   - Auditor is the uniform interface the harness drives live: Record an
//     accepted intent, Observe each applied commit, ask for Violations so
//     far, and Verify the settled cell at the end. Observe does O(delta)
//     work per commit (replay one body on the reference, maintain
//     delta-updated constraint expectations, check live invariants against
//     sampled cell values); nothing replays the history twice.
//   - ConstraintSet is the reusable invariant vocabulary in the spirit of
//     deductive-database constraint checking: per-key predicates (stock
//     never negative), per-key totals maintained by deltas (warehouse
//     YTD = sum of payments), and prefix sums (bank conservation).
//   - orderAudit is the serializability verdict: every non-commutative
//     commit is kept in a bounded per-key window together with the
//     reference values it saw, and a final mismatch is accepted if ANY
//     linear extension of the real-time precedence order reproduces the
//     cell's value — the precedence-graph check that makes non-confluent
//     mixes (blind price writes raced with checkouts) audit exactly
//     instead of reporting false drift. Histories whose values can only be
//     produced by an order that contradicts real time are counted as
//     graph cycles; histories no serial order explains stay violations.
//
// Memory is bounded by live state size plus the per-key windows, never by
// history length: commutative commits (Add/PushCap-only bodies, the vast
// majority of every mix) are folded into the reference and dropped.

// auditWindow bounds the per-key commit window the order verdict keeps;
// older commits are folded into successor pre-values and evicted (the
// verdict then conservatively reports their keys without reorder rescue).
// auditMaxComponent and auditMaxTrials bound the verdict's search;
// auditLiveKeyCap bounds per-commit live sampling; auditMaxViolations
// bounds the live violation log.
const (
	auditWindow        = 64
	auditMaxComponent  = 12
	auditMaxCompNodes  = 512
	auditMaxTrials     = 400
	auditLiveKeyCap    = 4
	auditMaxViolations = 128
	auditReorderWindow = 1024
)

// mapTxn is the reference Txn: a plain map, applied sequentially. The
// auditors replay the op stream on it with the very same bodies, making
// the reference definitionally the serial outcome in completion order.
type mapTxn map[string][]byte

func (m mapTxn) Get(key string) ([]byte, bool, error) {
	v, ok := m[key]
	return v, ok, nil
}

func (m mapTxn) Put(key string, value []byte) error {
	m[key] = value
	return nil
}

func (m mapTxn) Add(key string, delta int64) error {
	m[key] = EncodeInt(DecodeInt(m[key]) + delta)
	return nil
}

func (m mapTxn) PushCap(key string, id int64, cap int) error {
	return pushCapRMW(m, key, id, cap)
}

// pushCapRMW is the reference Txns' PushCap: a read-modify-write over
// Get/Put, exact because the references are applied serially. It is spelled
// out here rather than shared with the cells' write record (cell_write.go)
// on purpose: the reference is what the cells are judged against.
func pushCapRMW(tx Txn, key string, id int64, cap int) error {
	raw, _, err := tx.Get(key)
	if err != nil {
		return err
	}
	return tx.Put(key, EncodeIntList(mergeBounded(DecodeIntList(raw), id, cap)))
}

// Commit is one applied op as the harness observed it: the request, the
// accept/apply interval (zero times mean "serial" — the auditor stamps
// them from its logical clock), and optionally a sample of cell values at
// apply time for live constraint checks.
type Commit struct {
	ReqID string
	Op    string
	Args  []byte
	// Start is when the op was accepted, End when its handle resolved.
	// The order verdict derives its fixed precedence edges from these:
	// disjoint intervals must serialize in real-time order, overlapping
	// ones may serialize either way.
	Start, End time.Time
	// Live holds sampled cell values (key -> raw) peeked right after the
	// commit applied, for the ConstraintSet's live checks. Nil is fine.
	Live map[string][]byte
	// Seq, when nonzero, is the cell's own serialization stamp for this
	// commit (e.g. the deterministic core's log position). The order
	// verdict replays commits in Seq order as its first candidate — the
	// cell's actual commit order, which the completion-order reference
	// scrambles through racing handle goroutines.
	Seq int64
}

// AuditStats summarizes an auditor's counters.
type AuditStats struct {
	// Observed counts commits folded into the reference.
	Observed int64
	// LiveViolations counts live constraint hits during the run (delta
	// checks on sampled values), before any final verification.
	LiveViolations int
	// Reordered counts final mismatches explained by a legal reordering
	// of racing commits — false positives a completion-order audit would
	// have reported, suppressed by the precedence-graph verdict.
	Reordered int
	// GraphCycles counts conflict components whose cell values are only
	// explainable by a serialization contradicting real-time precedence —
	// a cycle in the precedence graph, reported as a violation.
	GraphCycles int
	// Staleness is the geo-replication staleness probe: under async
	// replication, reads from a replica are query answering over
	// possibly-divergent state, so the auditor quantifies the divergence
	// (replication lag, per-key windows) instead of forbidding it. Zero
	// for single-region and sequenced deployments.
	Staleness StalenessStats
}

// Auditor is the uniform live-auditing interface every workload ships.
// Record declares an accepted intent, Observe folds one applied commit
// into the reference in O(delta), Discard drops a recorded intent that
// never applied, Violations lists live constraint hits so far, Verify
// settles the cell and returns the final anomaly list under the
// precedence-graph order verdict, and Close releases state.
type Auditor interface {
	Record(reqID, op string, args []byte)
	Observe(c Commit)
	Discard(reqID string)
	Violations() []string
	Stats() AuditStats
	Verify(c Cell) ([]string, error)
	Close()
}

// --- ConstraintSet ----------------------------------------------------------

// KeyCheck is a per-key predicate constraint: Check returns "" while the
// invariant holds, a violation description otherwise. Live checks run
// against sampled cell values at each Observe; every check also runs
// against the settled cell at Verify.
type KeyCheck struct {
	Name   string
	Prefix string
	Live   bool
	Check  func(key string, val []byte) string
}

// NonNegative is the classic inventory invariant as a KeyCheck: every
// EncodeInt value under prefix stays >= 0.
func NonNegative(name, prefix string, live bool) KeyCheck {
	return KeyCheck{Name: name, Prefix: prefix, Live: live, Check: func(key string, val []byte) string {
		if v := DecodeInt(val); v < 0 {
			return fmt.Sprintf("%s: %s = %d < 0", name, key, v)
		}
		return ""
	}}
}

// KeyTotal is a per-key equality maintained by deltas: Delta maps one
// observed commit to expectation increments (key -> delta), and Verify
// compares each tracked key's settled value to the accumulated
// expectation. Maintenance is O(delta), not O(history).
type KeyTotal struct {
	Name  string
	Delta func(op string, args []byte) map[string]int64
	// Describe renders one mismatch; nil uses a generic message.
	Describe func(key string, got, want int64) string
}

// SumTotal is a single running total over a key prefix: Delta maps one
// observed commit to a total increment, and Verify compares the sum of
// settled values under the prefix to the accumulated expectation — the
// shape of the bank's conservation invariant.
type SumTotal struct {
	Name   string
	Prefix string
	Delta  func(op string, args []byte) int64
}

// ConstraintSet is a reusable bundle of delta-maintained invariants; the
// workload auditors each declare one and the shared engine maintains it.
type ConstraintSet struct {
	checks    []KeyCheck
	keyTotals []KeyTotal
	sums      []SumTotal
}

// NewConstraints returns an empty set.
func NewConstraints() *ConstraintSet { return &ConstraintSet{} }

// Check appends a per-key predicate.
func (s *ConstraintSet) Check(c KeyCheck) *ConstraintSet {
	s.checks = append(s.checks, c)
	return s
}

// KeyTotal appends a per-key delta-maintained equality.
func (s *ConstraintSet) KeyTotal(c KeyTotal) *ConstraintSet {
	s.keyTotals = append(s.keyTotals, c)
	return s
}

// SumTotal appends a prefix-sum delta-maintained equality.
func (s *ConstraintSet) SumTotal(c SumTotal) *ConstraintSet {
	s.sums = append(s.sums, c)
	return s
}

// --- shared reference engine ------------------------------------------------

// auditorConfig wires one workload onto the shared engine.
type auditorConfig struct {
	app  *App
	cons *ConstraintSet
	// compare renders a per-key divergence between the cell's settled
	// value and the reference ("" = semantically equal). Nil compares
	// EncodeInt values.
	compare func(key string, got, want []byte) string
	// onObserve runs per observed commit under the auditor lock, for
	// workload-specific incremental bookkeeping (e.g. social lastPost).
	onObserve func(op string, args []byte)
	// finalize runs at Verify with a settled-cell reader, appending any
	// workload-specific final anomalies (e.g. read-your-writes).
	finalize func(read func(key string) ([]byte, error), add func(string)) error
}

type pendingIntent struct {
	op    string
	args  []byte
	start time.Time
}

// refAuditor is the shared engine behind every workload auditor: the
// serial reference, the constraint machinery, and the order verdict.
type refAuditor struct {
	// pendMu guards pending alone: Record, inline in an open-loop pacer,
	// must not wait behind an Observe's replay under mu.
	pendMu  sync.Mutex
	pending map[string]pendingIntent
	mu      sync.Mutex
	cfg     auditorConfig
	state   mapTxn
	order   *orderAudit
	// clock stamps serial (zero-time) commits so offline replays still
	// carry a total order for the precedence graph.
	clock vclock.Lamport

	keyTotals []map[string]int64 // parallel to cfg.cons.keyTotals
	sums      []int64            // parallel to cfg.cons.sums
	hasLive   bool

	viols     []string
	violTotal int
	observed  int64
	reordered int
	cycles    int
	staleness StalenessStats

	// reorder buffers sequenced commits (Commit.Seq != 0), kept sorted by
	// Seq, so folding happens in the cell's serialization order even when
	// racing handle goroutines observe out of it.
	reorder []Commit
}

func newRefAuditor(cfg auditorConfig) *refAuditor {
	if cfg.cons == nil {
		cfg.cons = NewConstraints()
	}
	if cfg.compare == nil {
		cfg.compare = intCompare
	}
	a := &refAuditor{
		cfg:       cfg,
		state:     make(mapTxn),
		pending:   make(map[string]pendingIntent),
		order:     newOrderAudit(auditWindow),
		keyTotals: make([]map[string]int64, len(cfg.cons.keyTotals)),
		sums:      make([]int64, len(cfg.cons.sums)),
	}
	for i := range a.keyTotals {
		a.keyTotals[i] = make(map[string]int64)
	}
	for _, ck := range cfg.cons.checks {
		if ck.Live {
			a.hasLive = true
		}
	}
	return a
}

func intCompare(key string, got, want []byte) string {
	g, w := DecodeInt(got), DecodeInt(want)
	if g == w {
		return ""
	}
	return fmt.Sprintf("%s: %d, serial reference %d", key, g, w)
}

// Record declares an accepted intent; its Observe (or Discard) resolves it.
func (a *refAuditor) Record(reqID, op string, args []byte) {
	a.pendMu.Lock()
	defer a.pendMu.Unlock()
	a.pending[reqID] = pendingIntent{op: op, args: args, start: time.Now()}
}

// Discard drops a recorded intent whose submission was rejected.
func (a *refAuditor) Discard(reqID string) {
	a.pendMu.Lock()
	defer a.pendMu.Unlock()
	delete(a.pending, reqID)
}

// Observe folds one applied commit into the reference: replay its body on
// the serial state (recording the actual read/write footprint), update the
// delta-maintained expectations, run live checks against the sampled
// values, and hand the footprint to the order verdict. O(delta) per call.
//
// Commits carrying a cell serialization stamp (Commit.Seq) pass through a
// bounded reorder buffer first: racing handle goroutines deliver them
// slightly out of commit order, and folding them re-sequenced keeps the
// reference — and every window pre-value — exact against the cell's
// actual serialization instead of relying on the order verdict to repair
// the scramble. The buffer holds at most auditReorderWindow commits (far
// above any harness's in-flight depth, the bound on observation
// displacement); Violations, Stats, and Verify drain it.
func (a *refAuditor) Observe(c Commit) {
	a.pendMu.Lock()
	p, ok := a.pending[c.ReqID]
	delete(a.pending, c.ReqID)
	a.pendMu.Unlock()
	if ok && c.Op == "" {
		c.Op, c.Args = p.op, p.args
	}
	if ok && c.Start.IsZero() {
		c.Start = p.start
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.cfg.app.Op(c.Op); !ok {
		return
	}
	if c.End.IsZero() {
		// Serial stream: stamp a strictly increasing logical instant so
		// the precedence graph sees a total real-time order.
		t := time.Unix(0, int64(a.clock.Tick()))
		c.Start, c.End = t, t
	}
	if c.Seq == 0 {
		a.fold(c)
		return
	}
	i := sort.Search(len(a.reorder), func(i int) bool { return a.reorder[i].Seq > c.Seq })
	a.reorder = append(a.reorder, Commit{})
	copy(a.reorder[i+1:], a.reorder[i:])
	a.reorder[i] = c
	for len(a.reorder) > auditReorderWindow {
		a.fold(a.reorder[0])
		a.reorder = a.reorder[1:]
	}
}

// drain folds every buffered sequenced commit. Callers hold a.mu.
func (a *refAuditor) drain() {
	for _, c := range a.reorder {
		a.fold(c)
	}
	a.reorder = nil
}

// fold does Observe's real work on one commit. Callers hold a.mu.
func (a *refAuditor) fold(c Commit) {
	op, ok := a.cfg.app.Op(c.Op)
	if !ok {
		return
	}
	a.observed++

	rec := newRecordingTxn(a.state)
	op.Body(rec, c.Args) // body errors mirror the cell's own abort: partial reference effects match
	cons := a.cfg.cons
	for i, kt := range cons.keyTotals {
		for k, d := range kt.Delta(c.Op, c.Args) {
			a.keyTotals[i][k] += d
		}
	}
	for i, st := range cons.sums {
		a.sums[i] += st.Delta(c.Op, c.Args)
	}
	if a.cfg.onObserve != nil {
		a.cfg.onObserve(c.Op, c.Args)
	}
	for _, ck := range cons.checks {
		if !ck.Live {
			continue
		}
		for k, v := range c.Live {
			if !strings.HasPrefix(k, ck.Prefix) {
				continue
			}
			if msg := ck.Check(k, v); msg != "" {
				a.violation(msg)
			}
		}
	}
	var mayWrite []string
	if !op.ReadOnly {
		mayWrite = rec.unwrittenReads(op, c.Args)
	}
	if len(rec.writes) > 0 || len(mayWrite) > 0 {
		a.order.observe(&auditNode{
			seq:      a.observed,
			cseq:     c.Seq,
			op:       c.Op,
			args:     c.Args,
			start:    c.Start,
			end:      c.End,
			reads:    rec.readKeys(),
			writes:   rec.writeKeys(),
			mayWrite: mayWrite,
			commut:   rec.writes,
			pre:      rec.pre,
		})
	}
}

// ObserveSerial records and immediately observes one op with auditor-
// assigned identity and logical time — the serial-driver convenience the
// typed RecordOp wrappers use.
func (a *refAuditor) ObserveSerial(op string, args []byte) {
	a.Observe(Commit{ReqID: fmt.Sprintf("serial/%d", a.clock.Observe(0)), Op: op, Args: args})
}

func (a *refAuditor) violation(msg string) {
	a.violTotal++
	if len(a.viols) < auditMaxViolations {
		a.viols = append(a.viols, msg)
	}
}

// Violations returns the live constraint hits observed so far.
func (a *refAuditor) Violations() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.drain()
	out := append([]string(nil), a.viols...)
	if a.violTotal > len(a.viols) {
		out = append(out, fmt.Sprintf("(+%d more live violations)", a.violTotal-len(a.viols)))
	}
	return out
}

// Stats returns the auditor's counters.
func (a *refAuditor) Stats() AuditStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.drain()
	return AuditStats{
		Observed:       a.observed,
		LiveViolations: a.violTotal,
		Reordered:      a.reordered,
		GraphCycles:    a.cycles,
		Staleness:      a.staleness,
	}
}

// ObserveStaleness folds a replica group's staleness probe into the
// auditor's stats. It is not part of the Auditor interface — geo
// harnesses feed it by type assertion, so third-party auditors stay
// valid — and it is monotone: counters accumulate, maxima keep the peak
// across multiple probes.
func (a *refAuditor) ObserveStaleness(s StalenessStats) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.staleness.ShippedBatches += s.ShippedBatches
	a.staleness.ShippedWrites += s.ShippedWrites
	if s.MaxLagTxns > a.staleness.MaxLagTxns {
		a.staleness.MaxLagTxns = s.MaxLagTxns
	}
	if s.MaxShipWait > a.staleness.MaxShipWait {
		a.staleness.MaxShipWait = s.MaxShipWait
	}
	if s.MaxWANLag > a.staleness.MaxWANLag {
		a.staleness.MaxWANLag = s.MaxWANLag
	}
	if s.MaxLag > a.staleness.MaxLag {
		a.staleness.MaxLag = s.MaxLag
	}
	if s.MaxKeyWindow > a.staleness.MaxKeyWindow {
		a.staleness.MaxKeyWindow = s.MaxKeyWindow
	}
}

// Close releases the auditor's state.
func (a *refAuditor) Close() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.state = make(mapTxn)
	a.order = newOrderAudit(auditWindow)
	a.pendMu.Lock()
	a.pending = make(map[string]pendingIntent)
	a.pendMu.Unlock()
}

// LiveKeys returns the declared keys of an op that the set's live checks
// watch, capped — what the harness samples from the cell after the commit.
func (a *refAuditor) LiveKeys(op string, args []byte) []string {
	if !a.hasLive {
		return nil
	}
	o, ok := a.cfg.app.Op(op)
	if !ok {
		return nil
	}
	var out []string
	for _, k := range a.cfg.app.keysOf(o, args) {
		for _, ck := range a.cfg.cons.checks {
			if ck.Live && strings.HasPrefix(k, ck.Prefix) {
				out = append(out, k)
				break
			}
		}
		if len(out) == auditLiveKeyCap {
			break
		}
	}
	return out
}

// Verify settles the cell and returns the final anomaly list: per-key
// divergences from the serial reference filtered through the order
// verdict, constraint predicate failures on settled state, and every
// delta-maintained total that does not match. Work is O(live keys), never
// O(history).
func (a *refAuditor) Verify(c Cell) ([]string, error) {
	if err := c.Settle(); err != nil {
		return nil, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.drain()
	var anomalies []string
	cellVals := make(map[string][]byte)
	read := func(key string) ([]byte, error) {
		if v, ok := cellVals[key]; ok {
			return v, nil
		}
		raw, _, err := c.Read(key)
		if err != nil {
			return nil, err
		}
		cellVals[key] = raw
		return raw, nil
	}

	mismatched := make(map[string]string) // key -> divergence message
	for _, key := range sortedKeys(a.state) {
		raw, err := read(key)
		if err != nil {
			return anomalies, err
		}
		if msg := a.cfg.compare(key, raw, a.state[key]); msg != "" {
			mismatched[key] = msg
		}
		for _, ck := range a.cfg.cons.checks {
			if strings.HasPrefix(key, ck.Prefix) {
				if msg := ck.Check(key, raw); msg != "" {
					anomalies = append(anomalies, msg)
				}
			}
		}
	}

	// The order verdict: a mismatch survives only if no serializable
	// completion order explains the cell's values.
	suppressed, cycles := a.resolveOrders(mismatched, read)
	a.cycles += cycles
	for _, key := range sortedKeys(mismatched) {
		if suppressed[key] {
			a.reordered++
			continue
		}
		anomalies = append(anomalies, mismatched[key])
	}

	for i, kt := range a.cfg.cons.keyTotals {
		for _, key := range sortedKeys(a.keyTotals[i]) {
			want := a.keyTotals[i][key]
			raw, err := read(key)
			if err != nil {
				return anomalies, err
			}
			if got := DecodeInt(raw); got != want {
				if kt.Describe != nil {
					anomalies = append(anomalies, kt.Describe(key, got, want))
				} else {
					anomalies = append(anomalies, fmt.Sprintf("%s: %s = %d, delta-maintained expectation %d", kt.Name, key, got, want))
				}
			}
		}
	}
	for i, st := range a.cfg.cons.sums {
		var got int64
		for key := range a.state {
			if !strings.HasPrefix(key, st.Prefix) {
				continue
			}
			raw, err := read(key)
			if err != nil {
				return anomalies, err
			}
			got += DecodeInt(raw)
		}
		if got != a.sums[i] {
			anomalies = append(anomalies, fmt.Sprintf("%s: %s* sums to %d, delta-maintained expectation %d", st.Name, st.Prefix, got, a.sums[i]))
		}
	}
	if a.cfg.finalize != nil {
		if err := a.cfg.finalize(read, func(msg string) { anomalies = append(anomalies, msg) }); err != nil {
			return anomalies, err
		}
	}
	return anomalies, nil
}

// --- recording replay -------------------------------------------------------

// preVal is a reference value snapshot taken before a body's first access.
type preVal struct {
	val   []byte
	found bool
}

// recordingTxn wraps the reference state to capture one replayed body's
// actual footprint: read keys, written keys with their write kind
// (commutative Add/PushCap vs order-sensitive Put), and the reference
// value each touched key had before this body ran.
type recordingTxn struct {
	st     mapTxn
	reads  map[string]struct{}
	writes map[string]bool // key -> all writes commutative
	pre    map[string]preVal
}

func newRecordingTxn(st mapTxn) *recordingTxn {
	return &recordingTxn{st: st, reads: map[string]struct{}{}, writes: map[string]bool{}, pre: map[string]preVal{}}
}

func (t *recordingTxn) snap(key string) {
	if _, ok := t.pre[key]; ok {
		return
	}
	v, found := t.st[key]
	if found {
		v = append([]byte(nil), v...)
	}
	t.pre[key] = preVal{val: v, found: found}
}

func (t *recordingTxn) Get(key string) ([]byte, bool, error) {
	t.snap(key)
	t.reads[key] = struct{}{}
	return t.st.Get(key)
}

func (t *recordingTxn) Put(key string, value []byte) error {
	t.snap(key)
	t.writes[key] = false
	return t.st.Put(key, value)
}

func (t *recordingTxn) Add(key string, delta int64) error {
	t.snap(key)
	if _, seen := t.writes[key]; !seen {
		t.writes[key] = true
	}
	return t.st.Add(key, delta)
}

func (t *recordingTxn) PushCap(key string, id int64, cap int) error {
	t.snap(key)
	if _, seen := t.writes[key]; !seen {
		t.writes[key] = true
	}
	return pushCapRMW(t.st, key, id, cap)
}

func (t *recordingTxn) readKeys() []string {
	out := make([]string, 0, len(t.reads))
	for k := range t.reads {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// unwrittenReads returns, sorted, the keys the body read but did not write
// that are among op's declared keys: the keys a read-write op could have
// written had its reads returned other values. The declared keys are only
// derived when such a read exists.
func (t *recordingTxn) unwrittenReads(op Op, args []byte) []string {
	unwritten := make(map[string]bool)
	for k := range t.reads {
		if _, written := t.writes[k]; !written {
			unwritten[k] = true
		}
	}
	if len(unwritten) == 0 {
		return nil
	}
	var out []string
	for _, k := range op.Keys(args) {
		if unwritten[k] {
			out = append(out, k)
			delete(unwritten, k)
		}
	}
	sort.Strings(out)
	return out
}

func (t *recordingTxn) writeKeys() []string {
	out := make([]string, 0, len(t.writes))
	for k := range t.writes {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// --- precedence-graph order verdict -----------------------------------------

// auditNode is one observed commit in the order verdict's windows. seq is
// the auditor's own observation counter; cseq is the cell's serialization
// stamp when the cell provides one (Commit.Seq), zero otherwise. mayWrite
// lists the declared keys the replay read but did not write.
type auditNode struct {
	seq        int64
	cseq       int64
	op         string
	args       []byte
	start, end time.Time
	reads      []string
	writes     []string
	mayWrite   []string
	commut     map[string]bool
	pre        map[string]preVal
}

// keyTrack is one key's bounded commit window. A key becomes tracked on
// its first order-sensitive write; until then its window holds only
// readers that could write it, and a key that never tracks is never
// searched (its completion-order reference is already exact in any order).
type keyTrack struct {
	tracked bool
	nodes   []*auditNode
}

// orderAudit keeps the bounded per-key windows the precedence-graph
// verdict searches at Verify time.
type orderAudit struct {
	window int
	keys   map[string]*keyTrack
}

func newOrderAudit(window int) *orderAudit {
	return &orderAudit{window: window, keys: map[string]*keyTrack{}}
}

func (o *orderAudit) track(key string) *keyTrack {
	t, ok := o.keys[key]
	if !ok {
		t = &keyTrack{}
		o.keys[key] = t
	}
	return t
}

// observe windows one commit. A commit enters the windows of the keys it
// wrote when its order can matter: it performed an order-sensitive write,
// read a tracked key (its outcome depends on racing writers), or wrote a
// tracked key (later searches must replay it to reconstruct that key).
// Pure commutative traffic on untracked keys — most of every mix — is
// folded into the reference and dropped here, which is what keeps memory
// bounded.
//
// A commit also enters the window of every key it could have written but
// only read (mayWrite), tracked or not: in another serial order the read
// returns another value and the body may write the key. A checkout folded
// before the reserve it claims reads the reservation as absent and writes
// nothing, while the cell ran it second and zeroed the reservation; only
// with the checkout in that key's window can a search replay that order.
// Such a read does not track the key: the first order-sensitive writer
// does, and finds the reader already windowed.
func (o *orderAudit) observe(n *auditNode) {
	for _, k := range n.mayWrite {
		o.push(k, n)
	}
	windowed := false
	for _, k := range n.writes {
		if !n.commut[k] {
			windowed = true
			break
		}
		if t, ok := o.keys[k]; ok && t.tracked {
			windowed = true
			break
		}
	}
	if !windowed {
		for _, k := range n.reads {
			if t, ok := o.keys[k]; ok && t.tracked {
				windowed = true
				break
			}
		}
	}
	if !windowed {
		return
	}
	for _, k := range n.writes {
		o.push(k, n).tracked = true
	}
}

// push appends n to key's window, evicting the oldest commit beyond the
// bound.
func (o *orderAudit) push(key string, n *auditNode) *keyTrack {
	t := o.track(key)
	t.nodes = append(t.nodes, n)
	if len(t.nodes) > o.window {
		t.nodes = t.nodes[1:]
	}
	return t
}

// inTrack reports whether n is still windowed on key (not evicted).
func (o *orderAudit) inTrack(key string, n *auditNode) bool {
	t, ok := o.keys[key]
	if !ok {
		return false
	}
	for _, m := range t.nodes {
		if m == n {
			return true
		}
	}
	return false
}

// resolveOrders classifies the mismatched keys: for each conflict
// component it searches the linear extensions of the real-time precedence
// order for one that reproduces the cell's settled values. Explained keys
// are suppressed (they were reorder noise, not anomalies); components that
// only an order contradicting real time explains count as graph cycles
// and stay violations; everything else stays a violation outright.
func (a *refAuditor) resolveOrders(mismatched map[string]string, read func(string) ([]byte, error)) (map[string]bool, int) {
	suppressed := make(map[string]bool)
	cycles := 0
	done := make(map[string]bool) // keys already covered by a component
	for _, key := range sortedKeys(mismatched) {
		if done[key] {
			continue
		}
		t, ok := a.order.keys[key]
		if !ok || !t.tracked || len(t.nodes) == 0 {
			continue // no windowed writers: order cannot explain this key
		}
		compKeys, nodes := a.component(key)
		for k := range compKeys {
			done[k] = true
		}
		if len(nodes) == 0 || len(nodes) > auditMaxCompNodes {
			continue // too contended to replay at all; conservatively keep the violation
		}
		// Cheap pass first: replay the heuristic linear extensions —
		// handle-resolution (end-time) and submission (start-time) order.
		// Both provably extend the real-time partial order (a.end <
		// b.start implies both a.end < b.end and a.start < b.start), so a
		// match is a sound suppression at ANY component size — and
		// end-time order is almost exactly the serializable cells' true
		// commit order, which the completion-order reference scrambles
		// through racing handle goroutines.
		ok, err := a.tryHeuristicOrders(compKeys, nodes, read)
		if err != nil {
			continue
		}
		if !ok && len(nodes) <= auditMaxComponent {
			// Exhaustive bounded search over all linear extensions of the
			// real-time precedence order.
			if ok, err = a.searchComponent(compKeys, nodes, read, true); err != nil {
				continue
			}
		}
		if ok {
			for k := range compKeys {
				if _, mis := mismatched[k]; mis {
					suppressed[k] = true
				}
			}
			continue
		}
		// No real-time-respecting order explains the values; if an
		// unconstrained serial order does, the precedence graph has a
		// cycle (a strict-serializability violation), still an anomaly.
		if len(nodes) <= auditMaxComponent {
			if ok, err := a.searchComponent(compKeys, nodes, read, false); err == nil && ok {
				cycles++
			}
		}
	}
	return suppressed, cycles
}

// tryHeuristicOrders replays the component in end-time and start-time
// order — two legal linear extensions of the real-time precedence order —
// and, failing both, runs a bounded greedy repair that moves writers of
// still-mismatched keys within their legal range. It reports whether any
// legal order reproduced the cell's settled values.
func (a *refAuditor) tryHeuristicOrders(compKeys map[string]bool, nodes []*auditNode, read func(string) ([]byte, error)) (bool, error) {
	base, cell, err := a.trialBase(compKeys, read)
	if err != nil {
		return false, err
	}
	order := append([]*auditNode(nil), nodes...)
	// First candidate: the cell's own serialization stamps, when every
	// node carries one — the actual commit order, exact by construction.
	allStamped := true
	for _, n := range order {
		if n.cseq == 0 {
			allStamped = false
			break
		}
	}
	if allStamped {
		sort.SliceStable(order, func(i, j int) bool { return order[i].cseq < order[j].cseq })
		if legalExtension(order) && len(a.replayTrialMis(compKeys, base, order, cell)) == 0 {
			return true, nil
		}
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].end.Before(order[j].end) })
	if len(a.replayTrialMis(compKeys, base, order, cell)) == 0 {
		return true, nil
	}
	startOrder := append([]*auditNode(nil), nodes...)
	sort.SliceStable(startOrder, func(i, j int) bool { return startOrder[i].start.Before(startOrder[j].start) })
	if len(a.replayTrialMis(compKeys, base, startOrder, cell)) == 0 {
		return true, nil
	}
	return a.repairOrder(compKeys, base, order, cell), nil
}

// repairOrder hill-climbs from one legal order toward the cell's settled
// values: for each still-mismatched key, each commit in its window (its
// writers and the readers that could write it) is tried at the extremes
// of its legal slot range (the furthest positions that violate no
// real-time edge — every candidate stays a legal linear extension),
// keeping any move that strictly shrinks the mismatch set.
// This recovers within-batch serialization orders that wall-clock
// heuristics cannot see: a group commit resolves many handles at once,
// so end-time order is blind to the log order inside the batch.
func (a *refAuditor) repairOrder(compKeys map[string]bool, base map[string]preVal, order []*auditNode, cell map[string][]byte) bool {
	mis := a.replayTrialMis(compKeys, base, order, cell)
	trials := 0
	for len(mis) > 0 && trials < auditMaxTrials {
		misKeys := make([]string, 0, len(mis))
		for k := range mis {
			misKeys = append(misKeys, k)
		}
		sort.Strings(misKeys)
		improved := false
	keys:
		for _, k := range misKeys {
			for idx, n := range order {
				if !a.order.inTrack(k, n) {
					continue
				}
				for _, to := range []int{latestLegal(order, idx), earliestLegal(order, idx)} {
					if to == idx || trials >= auditMaxTrials {
						continue
					}
					cand := moveNode(order, idx, to)
					trials++
					m2 := a.replayTrialMis(compKeys, base, cand, cell)
					if len(m2) < len(mis) {
						order, mis, improved = cand, m2, true
						continue keys
					}
				}
			}
		}
		if !improved {
			return false
		}
	}
	return len(mis) == 0
}

// legalExtension reports whether the order violates no real-time edge: no
// node is placed after one whose interval starts strictly later than the
// node's end. Cell-provided stamps are only trusted as a candidate order,
// never as precedence ground truth, so suppression stays sound even
// against a cell that misreports its serialization.
func legalExtension(order []*auditNode) bool {
	var maxStart time.Time
	for _, n := range order {
		if n.end.Before(maxStart) {
			return false
		}
		if n.start.After(maxStart) {
			maxStart = n.start
		}
	}
	return true
}

// latestLegal returns the furthest position after idx the node can move
// to without jumping over a node it must real-time precede.
func latestLegal(order []*auditNode, idx int) int {
	p := idx
	for j := idx + 1; j < len(order); j++ {
		if order[idx].end.Before(order[j].start) {
			break
		}
		p = j
	}
	return p
}

// earliestLegal returns the furthest position before idx the node can
// move to without jumping over a node that must real-time precede it.
func earliestLegal(order []*auditNode, idx int) int {
	p := idx
	for j := idx - 1; j >= 0; j-- {
		if order[j].end.Before(order[idx].start) {
			break
		}
		p = j
	}
	return p
}

// moveNode returns a copy of order with the node at idx moved to
// position to.
func moveNode(order []*auditNode, idx, to int) []*auditNode {
	out := make([]*auditNode, 0, len(order))
	out = append(out, order[:idx]...)
	out = append(out, order[idx+1:]...)
	out = append(out[:to], append([]*auditNode{order[idx]}, out[to:]...)...)
	return out
}

// trialBase snapshots the component's starting state (each key's
// reference value before its earliest windowed commit) and its settled
// cell values.
func (a *refAuditor) trialBase(compKeys map[string]bool, read func(string) ([]byte, error)) (map[string]preVal, map[string][]byte, error) {
	base := make(map[string]preVal, len(compKeys))
	for k := range compKeys {
		t := a.order.keys[k]
		if t == nil || len(t.nodes) == 0 {
			continue
		}
		earliest := t.nodes[0]
		for _, m := range t.nodes[1:] {
			if m.seq < earliest.seq {
				earliest = m
			}
		}
		base[k] = earliest.pre[k]
	}
	cell := make(map[string][]byte, len(compKeys))
	for k := range compKeys {
		raw, err := read(k)
		if err != nil {
			return nil, nil, err
		}
		cell[k] = raw
	}
	return base, cell, nil
}

// component gathers the conflict closure of one mismatched key: the
// windowed commits of that key, plus — transitively — the windows of
// every tracked key those commits read or wrote, so a search replays a
// closed set of inputs. Untracked read keys stay pinned to the values the
// reference served (their writers are commutative, so their timeline does
// not depend on the component's order).
func (a *refAuditor) component(key string) (map[string]bool, []*auditNode) {
	compKeys := map[string]bool{key: true}
	seen := map[*auditNode]bool{}
	var nodes []*auditNode
	queue := []string{key}
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		t, ok := a.order.keys[k]
		if !ok || !t.tracked {
			continue
		}
		for _, n := range t.nodes {
			if seen[n] {
				continue
			}
			seen[n] = true
			nodes = append(nodes, n)
			if len(nodes) > auditMaxCompNodes {
				return compKeys, nodes
			}
			for _, wk := range n.writes {
				if !compKeys[wk] {
					if wt, ok := a.order.keys[wk]; ok && wt.tracked {
						compKeys[wk] = true
						queue = append(queue, wk)
					}
				}
			}
			for _, rk := range n.reads {
				if !compKeys[rk] {
					if rt, ok := a.order.keys[rk]; ok && rt.tracked {
						compKeys[rk] = true
						queue = append(queue, rk)
					}
				}
			}
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].seq < nodes[j].seq })
	return compKeys, nodes
}

// searchComponent enumerates linear extensions of the component's
// precedence order (real-time edges when constrained; none otherwise) and
// replays each against the pre-value base until one reproduces the cell's
// settled value on every component key, within the trial budget.
func (a *refAuditor) searchComponent(compKeys map[string]bool, nodes []*auditNode, read func(string) ([]byte, error), constrained bool) (bool, error) {
	n := len(nodes)
	// Fixed precedence: disjoint real-time intervals must keep their order.
	before := make([][]bool, n)
	for i := range before {
		before[i] = make([]bool, n)
		if !constrained {
			continue
		}
		for j := range before[i] {
			if i != j && nodes[i].end.Before(nodes[j].start) {
				before[i][j] = true
			}
		}
	}
	base, cell, err := a.trialBase(compKeys, read)
	if err != nil {
		return false, err
	}

	used := make([]bool, n)
	order := make([]*auditNode, 0, n)
	trials := 0
	var try func() bool
	try = func() bool {
		if trials >= auditMaxTrials {
			return false
		}
		if len(order) == n {
			trials++
			return a.replayTrial(compKeys, base, order, cell)
		}
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			ready := true
			for j := 0; j < n; j++ {
				if !used[j] && before[j][i] {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			used[i] = true
			order = append(order, nodes[i])
			if try() {
				return true
			}
			order = order[:len(order)-1]
			used[i] = false
			if trials >= auditMaxTrials {
				return false
			}
		}
		return false
	}
	return try(), nil
}

// replayTrial replays one candidate order from the base snapshot and
// reports whether it reproduces the cell's settled value on every
// component key (under the workload's semantic comparison).
func (a *refAuditor) replayTrial(compKeys map[string]bool, base map[string]preVal, order []*auditNode, cell map[string][]byte) bool {
	return len(a.replayTrialMis(compKeys, base, order, cell)) == 0
}

// replayTrialMis replays one candidate order and returns the component
// keys whose replayed value does not match the cell's settled value.
func (a *refAuditor) replayTrialMis(compKeys map[string]bool, base map[string]preVal, order []*auditNode, cell map[string][]byte) map[string]bool {
	st := make(map[string]preVal, len(base))
	for k, v := range base {
		st[k] = v
	}
	for _, n := range order {
		tx := &trialTxn{audit: a.order, comp: compKeys, st: st, node: n}
		if op, ok := a.cfg.app.Op(n.op); ok {
			op.Body(tx, n.args)
		}
	}
	var mis map[string]bool
	for k := range compKeys {
		var got []byte
		if v, ok := st[k]; ok && v.found {
			got = v.val
		}
		if a.cfg.compare(k, cell[k], got) != "" {
			if mis == nil {
				mis = make(map[string]bool)
			}
			mis[k] = true
		}
	}
	return mis
}

// trialTxn replays one commit inside a candidate order: component keys
// read and write the trial state; reads outside the component are pinned
// to the pre-values the reference served this commit (their timelines do
// not depend on the component's order); writes by commits evicted from a
// key's window are skipped — their effect is already folded into the base.
type trialTxn struct {
	audit *orderAudit
	comp  map[string]bool
	st    map[string]preVal
	node  *auditNode
}

func (t *trialTxn) Get(key string) ([]byte, bool, error) {
	if t.comp[key] {
		v := t.st[key]
		return v.val, v.found, nil
	}
	v := t.node.pre[key]
	return v.val, v.found, nil
}

func (t *trialTxn) allowed(key string) bool {
	return t.comp[key] && t.audit.inTrack(key, t.node)
}

func (t *trialTxn) Put(key string, value []byte) error {
	if t.allowed(key) {
		t.st[key] = preVal{val: value, found: true}
	}
	return nil
}

func (t *trialTxn) Add(key string, delta int64) error {
	if t.allowed(key) {
		v := t.st[key]
		t.st[key] = preVal{val: EncodeInt(DecodeInt(v.val) + delta), found: true}
	}
	return nil
}

func (t *trialTxn) PushCap(key string, id int64, cap int) error {
	if t.allowed(key) {
		v := t.st[key]
		t.st[key] = preVal{val: EncodeIntList(mergeBounded(DecodeIntList(v.val), id, cap)), found: true}
	}
	return nil
}
