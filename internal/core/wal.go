package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"tca/internal/wal"
)

// The real durability layer under the deterministic runtime. When
// Config.LogDir is set, every group append the per-partition batchers make
// — and every cross-partition marker the sequencer fans out — is written
// to a segmented, checksummed, fsynced write-ahead log (internal/wal)
// *before* it is produced to the in-memory broker the executors consume:
// persist, then act. The modeled Config.SequenceDelay is not charged in
// this mode; the log's own write+fsync cost is the measured latency
// (BenchmarkE22_DurabilityFrontier maps the batch-size × fsync-policy
// frontier).
//
// On disk, one logical group append is a *header record* followed by its
// member records:
//
//	header  {"n": N, "root": <merkle root over the N member payloads>}
//	member  payload 1
//	...
//	member  payload N
//
// The root makes each group tamper-evident beyond the per-record CRC: a
// rewrite that fixes up the CRC still breaks the root. Recovery replays
// the partition logs through verification and distinguishes three
// endings:
//
//   - clean truncation — the record stream ends exactly at a group
//     boundary: normal, nothing flagged;
//   - torn tail — the stream ends mid-group (crash between the buffered
//     write and its completion): the partial group is dropped and counted
//     in core.wal_torn_batches — those submissions were never acked;
//   - tampering — a group's recomputed root (or a malformed header)
//     disagrees mid-log: ErrLogTampered, recovery refuses to proceed.
var ErrLogTampered = errors.New("core: durable log integrity violation (merkle root mismatch)")

// FsyncPolicy selects when the durable log forces appends to stable
// storage — the knob E22 sweeps against batch size.
type FsyncPolicy int

const (
	// FsyncEveryBatch fsyncs once per group append before acknowledging:
	// an acked submission survives any crash. The group-commit default.
	FsyncEveryBatch FsyncPolicy = iota
	// FsyncInterval fsyncs on a timer (Config.FsyncEvery, default 1ms) and
	// holds each acknowledgment until the covering sync lands — a two-phase
	// ack (append, then wait on the sync watermark), so acknowledged still
	// means durable; the interval only batches how many appends share one
	// fsync. Delayed group commit: lower fsync rate, higher ack latency.
	FsyncInterval
	// FsyncNone leaves durability to the OS page cache: the ceiling the
	// other policies are measured against.
	FsyncNone
)

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncEveryBatch:
		return "batch"
	case FsyncInterval:
		return "interval"
	case FsyncNone:
		return "none"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// walHeader is the header record of one on-disk group.
type walHeader struct {
	N    int    `json:"n"`
	Root []byte `json:"root"`
}

// durableLog is the runtime's set of write-ahead logs: one per input-log
// partition plus (when sharded) one for the global-sequence topic. Each
// partition's mutex serializes the WAL append with the broker produce so
// the on-disk order is exactly the topic order — which is what makes a
// fresh-broker rebuild replay the identical schedule.
type durableLog struct {
	part []*wal.Log
	gseq *wal.Log

	mu []sync.Mutex // one per partition; last slot guards gseq
	// groups counts batcher group appends per partition (the idempotent-
	// producer sequence space); gseqGroups the gseq appends.
	groups     []int64
	gseqGroups int64
	// markerHi is, per partition, the highest global-sequence stamp whose
	// marker is already persisted in that partition's log — bootstrap seeds
	// it from the replay, and the live sequencer consults it so re-sequencing
	// the gseq topic after a restart never re-appends a marker the log
	// already holds (the idempotent produce dedups the broker side; this
	// dedups the disk side). Markers reach a partition in increasing stamp
	// order, so a watermark suffices.
	markerHi []int64
}

func walOptions(cfg Config) wal.Options {
	opts := wal.Options{}
	switch cfg.Fsync {
	case FsyncEveryBatch:
		opts.SyncOnAppend = true
	case FsyncInterval:
		opts.SyncInterval = cfg.FsyncEvery
		if opts.SyncInterval <= 0 {
			opts.SyncInterval = time.Millisecond
		}
	case FsyncNone:
	}
	return opts
}

// openDurableLog opens (or creates) the runtime's logs under dir:
// p<partition>/ per input-log partition, gseq/ for the sequence topic.
// Each log's torn tail bytes (if a crash left any) are trimmed on open so
// live appends extend the valid record stream.
func openDurableLog(dir string, nparts int, cfg Config) (*durableLog, error) {
	d := &durableLog{
		part:     make([]*wal.Log, nparts),
		mu:       make([]sync.Mutex, nparts+1),
		groups:   make([]int64, nparts),
		markerHi: make([]int64, nparts),
	}
	opts := walOptions(cfg)
	open := func(sub string) (*wal.Log, error) {
		l, err := wal.Open(filepath.Join(dir, sub), opts)
		if err != nil {
			return nil, err
		}
		if _, err := l.TrimTorn(); err != nil {
			l.Close()
			return nil, err
		}
		return l, nil
	}
	for p := 0; p < nparts; p++ {
		l, err := open(fmt.Sprintf("p%d", p))
		if err != nil {
			d.close()
			return nil, err
		}
		d.part[p] = l
	}
	if nparts > 1 {
		l, err := open("gseq")
		if err != nil {
			d.close()
			return nil, err
		}
		d.gseq = l
	}
	return d, nil
}

func (d *durableLog) close() {
	for _, l := range d.part {
		if l != nil {
			l.Close()
		}
	}
	if d.gseq != nil {
		d.gseq.Close()
	}
}

// appendGroup writes one group (header + members) to log l. The caller
// holds the matching mutex.
func appendGroup(l *wal.Log, members [][]byte) error {
	root := wal.MerkleRoot(members)
	hdr, err := json.Marshal(walHeader{N: len(members), Root: root[:]})
	if err != nil {
		return err
	}
	payloads := make([][]byte, 0, len(members)+1)
	payloads = append(payloads, hdr)
	payloads = append(payloads, members...)
	_, err = l.AppendBatch(payloads)
	return err
}

// group is one verified on-disk group append.
type group struct {
	members [][]byte
}

// readGroups replays one WAL through group parsing and Merkle
// verification. It returns the verified groups, the number of torn
// (incomplete, tail-only) groups dropped, and an error on tampering or
// mid-log corruption.
func readGroups(l *wal.Log) (groups []group, torn int, err error) {
	var cur *group
	var want int
	var root []byte
	flush := func() error {
		if cur == nil {
			return nil
		}
		if len(cur.members) < want {
			// Incomplete group: legal only as the very tail (the WAL
			// itself already stopped at the first torn record). The caller
			// sees it as torn because nothing follows.
			torn++
			cur = nil
			return nil
		}
		got := wal.MerkleRoot(cur.members)
		if !bytes.Equal(got[:], root) {
			return fmt.Errorf("%w: group %d", ErrLogTampered, len(groups))
		}
		groups = append(groups, *cur)
		cur = nil
		return nil
	}
	replayErr := l.Replay(func(payload []byte) error {
		if cur == nil {
			var hdr walHeader
			if err := json.Unmarshal(payload, &hdr); err != nil || hdr.N <= 0 {
				return fmt.Errorf("%w: malformed group header", ErrLogTampered)
			}
			cur = &group{members: make([][]byte, 0, hdr.N)}
			want, root = hdr.N, hdr.Root
			return nil
		}
		cur.members = append(cur.members, append([]byte(nil), payload...))
		if len(cur.members) == want {
			return flush()
		}
		return nil
	})
	if replayErr != nil {
		return nil, 0, replayErr
	}
	// A group still open at stream end is torn — unless it had all its
	// members, in which case flush verifies it normally (can't happen:
	// full groups flush inline), so this only counts the partial tail.
	if cur != nil {
		if err := flush(); err != nil {
			return nil, 0, err
		}
	}
	return groups, torn, nil
}

// bootstrap replays every verified group into the broker, idempotently, so
// a fresh broker (real restart) is rebuilt in the exact pre-crash order
// and a surviving broker (in-process recovery) deduplicates everything.
// It also seeds the producer sequence counters the live appenders continue
// from. A torn tail (crash mid-group-write) triggers a rebuild of that log
// down to its verified groups: the dangling partial group must not precede
// live appends on disk, or the next restart would misparse the new group
// headers as members of the old partial group.
func (r *Runtime) bootstrap() error {
	d := r.dlog
	for p := 0; p < r.nparts; p++ {
		groups, torn, err := readGroups(d.part[p])
		if err != nil {
			return err
		}
		if torn > 0 {
			r.m.Counter("core.wal_torn_batches").Add(int64(torn))
			if err := rebuildLog(d.part[p], groups); err != nil {
				return err
			}
		}
		for _, g := range groups {
			if marker, gseq := markerOf(g.members); marker != nil {
				// A cross-partition marker fanned out by the sequencer:
				// same producer id and sequence as the original fan-out,
				// so the live sequencer's re-pass dedups against it.
				r.broker.ProduceIdempotentTo(r.logTopic(p), "", marker, r.cfg.Name+"-seq", gseq-1)
				d.markerHi[p] = gseq
				continue
			}
			raw := combineGroup(g.members)
			r.broker.ProduceIdempotentTo(r.logTopic(p), "", raw, walProducerID(r.cfg.Name, p), d.groups[p])
			d.groups[p]++
			r.m.Counter("core.wal_replayed_groups").Inc()
		}
	}
	if d.gseq != nil {
		groups, torn, err := readGroups(d.gseq)
		if err != nil {
			return err
		}
		if torn > 0 {
			r.m.Counter("core.wal_torn_batches").Add(int64(torn))
			if err := rebuildLog(d.gseq, groups); err != nil {
				return err
			}
		}
		for _, g := range groups {
			for _, member := range g.members {
				r.broker.ProduceIdempotentTo(r.seqTopic(), "", member, r.cfg.Name+"-wal-gseq", d.gseqGroups)
				d.gseqGroups++
			}
		}
	}
	return nil
}

// rebuildLog rewrites a log whose tail held a torn (partially written)
// group: truncate, then re-append the verified groups. The dropped
// submissions were never acked — their durability point was never reached.
func rebuildLog(l *wal.Log, groups []group) error {
	if err := l.Truncate(); err != nil {
		return err
	}
	for _, g := range groups {
		if err := appendGroup(l, g.members); err != nil {
			return err
		}
	}
	return l.Sync()
}

func walProducerID(name string, part int) string {
	return fmt.Sprintf("%s-wal-p%d", name, part)
}

// markerOf reports whether a single-member group is a sequencer marker
// (GSeq stamped) and returns its payload and stamp.
func markerOf(members [][]byte) ([]byte, int64) {
	if len(members) != 1 {
		return nil, 0
	}
	var req request
	if err := json.Unmarshal(members[0], &req); err != nil {
		return nil, 0
	}
	if req.GSeq == 0 {
		return nil, 0
	}
	return members[0], req.GSeq
}

// combineGroup rebuilds the broker record for one batcher group append: a
// single member is its own record; N members are the {"b":[...]} group
// record — byte-identical to the original json.Marshal(request{Batch}),
// since each member payload *is* the original member marshaling.
func combineGroup(members [][]byte) []byte {
	if len(members) == 1 {
		return members[0]
	}
	var buf bytes.Buffer
	buf.WriteString(`{"b":[`)
	for i, m := range members {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.Write(m)
	}
	buf.WriteString(`]}`)
	return buf.Bytes()
}

// waitDurable is the second phase of the FsyncInterval two-phase ack:
// block until the log's sync watermark covers everything appended so far,
// so the acknowledgment that follows means "on stable storage", not "in
// the page cache until the next timer tick". The other policies return
// immediately — EveryBatch synced inside the append itself, and None
// explicitly leaves durability to the OS. cancel (the runtime's stop
// channel) aborts the wait on crash/shutdown; the caller then fails its
// submitters instead of acking, and recovery replays the record if the
// sync in fact made it.
func (r *Runtime) waitDurable(l *wal.Log, cancel <-chan struct{}) error {
	if r.cfg.Fsync != FsyncInterval {
		return nil
	}
	if err := l.WaitDurable(l.Len(), cancel); err != nil {
		if errors.Is(err, wal.ErrCanceled) || errors.Is(err, wal.ErrClosed) {
			return ErrNotRunning
		}
		return err
	}
	return nil
}

// appendBatchDurable is the batcher's WAL-mode append path: persist the
// group (header + members, one write, fsync per policy — in interval mode
// waiting out the covering sync), then produce the combined record to the
// broker — under the partition lock, so disk order is topic order.
// Returns after the configured durability point; that return is what the
// submitters' acks mean.
func (r *Runtime) appendBatchDurable(part int, members [][]byte, raw []byte, cancel <-chan struct{}) error {
	d := r.dlog
	d.mu[part].Lock()
	defer d.mu[part].Unlock()
	if err := appendGroup(d.part[part], members); err != nil {
		return err
	}
	if err := r.waitDurable(d.part[part], cancel); err != nil {
		return err
	}
	_, err := r.broker.ProduceIdempotentTo(r.logTopic(part), "", raw, walProducerID(r.cfg.Name, part), d.groups[part])
	d.groups[part]++
	r.m.Counter("core.wal_group_appends").Inc()
	r.m.Counter("core.wal_records").Add(int64(len(members)))
	return err
}

// appendMarkerDurable is the sequencer's WAL-mode fan-out: persist the
// marker in the partition's log, then produce it idempotently keyed by its
// global-sequence offset. A marker bootstrap already replayed from disk
// (stamp at or below the partition's watermark) skips the append — the
// produce below still runs and dedups, covering the crash window where the
// gseq log got the entry but the partition log missed the marker.
func (r *Runtime) appendMarkerDurable(part int, reqID string, raw []byte, gseqOff int64, cancel <-chan struct{}) error {
	d := r.dlog
	d.mu[part].Lock()
	defer d.mu[part].Unlock()
	if gseqOff+1 > d.markerHi[part] {
		if err := appendGroup(d.part[part], [][]byte{raw}); err != nil {
			return err
		}
		d.markerHi[part] = gseqOff + 1
		if err := r.waitDurable(d.part[part], cancel); err != nil {
			return err
		}
	}
	_, err := r.broker.ProduceIdempotentTo(r.logTopic(part), reqID, raw, r.cfg.Name+"-seq", gseqOff)
	return err
}

// appendGSeqDurable persists one cross-partition submission in the global-
// sequence log before it is produced to the sequence topic. d is the
// caller's capture of the runtime's durable log (SubmitAsync snapshots it
// under runMu alongside the running flag).
func (r *Runtime) appendGSeqDurable(d *durableLog, reqID string, raw []byte, cancel <-chan struct{}) error {
	gslot := len(d.mu) - 1
	d.mu[gslot].Lock()
	defer d.mu[gslot].Unlock()
	if err := appendGroup(d.gseq, [][]byte{raw}); err != nil {
		return err
	}
	if err := r.waitDurable(d.gseq, cancel); err != nil {
		return err
	}
	_, err := r.broker.ProduceIdempotentTo(r.seqTopic(), reqID, raw, r.cfg.Name+"-wal-gseq", d.gseqGroups)
	d.gseqGroups++
	return err
}
