package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"tca/internal/mq"
	"tca/internal/wal"
)

// The runtime's input logs and the durability layer under them. Each input
// log is one broker topic partition — a partition of "<name>-txlog", or the
// "<name>-gseq" sequence topic — read in order by one consumer (a partition
// executor, or the sequencer). Config.LogDir mode is the same input log
// with a disk attached: every group append, and every cross-partition
// marker the sequencer fans out, is written to a segmented, checksummed,
// fsynced write-ahead log (internal/wal) *before* it is produced to the
// topic: persist, then act. The modeled Config.SequenceDelay is not charged
// in this mode; the log's own write+fsync cost is the measured latency
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
// the logs through verification and distinguishes three endings:
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

// inputLog is one input log: its topic partition, its reader's wake
// channel and, in LogDir mode, its disk. The mutex is held across the
// persist and the produce, so disk order is exactly topic order — which is
// what makes a fresh-broker rebuild replay the identical schedule.
type inputLog struct {
	rt       *Runtime
	tp       mq.TopicPartition
	dir      string        // the disk's directory; "" in model mode
	producer string        // idempotent-producer id of the disk's group appends
	wake     chan struct{} // poked after an append so the reader needn't poll

	mu  sync.Mutex
	wal *wal.Log // attached by replay, detached by close
	// groups counts the disk's group appends: the producer sequence space.
	groups int64
	// markerHi is the highest global-sequence stamp whose marker is already
	// on this log's disk — replay seeds it, and the live sequencer consults
	// it so re-sequencing the gseq topic after a restart never re-appends a
	// marker the disk already holds (the idempotent produce dedups the
	// broker side; this dedups the disk side). Markers reach a partition in
	// increasing stamp order, so a watermark suffices.
	markerHi int64
}

// newInputLog makes the log over one topic partition. sub names its disk
// under Config.LogDir (p<partition>/ or gseq/) and its producer id.
func (r *Runtime) newInputLog(topic string, part int, sub string) *inputLog {
	l := &inputLog{
		rt:       r,
		tp:       mq.TopicPartition{Topic: topic, Partition: part},
		producer: r.cfg.Name + "-wal-" + sub,
		wake:     make(chan struct{}, 1),
	}
	if r.cfg.LogDir != "" {
		l.dir = filepath.Join(r.cfg.LogDir, sub)
	}
	return l
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

// appendGroup appends one group of member payloads as one log record (see
// combineGroup). In LogDir mode it first persists the group — header and
// members in one write, fsync per policy, in interval mode waiting out the
// covering sync — so its return is the configured durability point: what
// the submitters' acks mean.
func (l *inputLog) appendGroup(key string, members [][]byte, cancel <-chan struct{}) error {
	raw := combineGroup(members)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dir == "" {
		_, err := l.rt.broker.Produce(l.tp, key, raw)
		return err
	}
	if err := l.write(members); err != nil {
		return err
	}
	if err := l.waitDurable(cancel); err != nil {
		return err
	}
	_, err := l.rt.broker.ProduceIdempotentTo(l.tp, key, raw, l.producer, l.groups)
	l.groups++
	return err
}

// appendMarker is the sequencer's fan-out of one cross-partition
// transaction into this partition log, produced idempotently keyed by its
// global-sequence offset. In LogDir mode the marker is persisted first,
// unless replay already found it on disk (stamp at or below markerHi): the
// produce still runs and dedups, covering the crash window where the gseq
// log got the entry but this log missed the marker.
func (l *inputLog) appendMarker(producerID, reqID string, raw []byte, gseqOff int64, cancel <-chan struct{}) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dir != "" && gseqOff+1 > l.markerHi {
		if err := l.write([][]byte{raw}); err != nil {
			return err
		}
		l.markerHi = gseqOff + 1
		if err := l.waitDurable(cancel); err != nil {
			return err
		}
	}
	_, err := l.rt.broker.ProduceIdempotentTo(l.tp, reqID, raw, producerID, gseqOff)
	return err
}

// write persists one group (header + members) to the disk. A detached or
// closed disk fails it with ErrNotRunning, so nothing reaches only the
// broker. Caller holds l.mu.
func (l *inputLog) write(members [][]byte) error {
	if l.wal == nil {
		return ErrNotRunning
	}
	root := wal.MerkleRoot(members)
	hdr, err := json.Marshal(walHeader{N: len(members), Root: root[:]})
	if err != nil {
		return err
	}
	payloads := make([][]byte, 0, len(members)+1)
	payloads = append(payloads, hdr)
	payloads = append(payloads, members...)
	_, err = l.wal.AppendBatch(payloads)
	return diskErr(err)
}

// waitDurable is the second phase of the FsyncInterval two-phase ack:
// block until the disk's sync watermark covers everything appended so far,
// so the acknowledgment that follows means "on stable storage", not "in
// the page cache until the next timer tick". The other policies return
// immediately — EveryBatch synced inside the write itself, and None
// explicitly leaves durability to the OS. cancel (the runtime's stop
// channel) aborts the wait on crash/shutdown; the caller then fails its
// submitters instead of acking, and recovery replays the record if the
// sync in fact made it. Caller holds l.mu.
func (l *inputLog) waitDurable(cancel <-chan struct{}) error {
	if l.rt.cfg.Fsync != FsyncInterval {
		return nil
	}
	return diskErr(l.wal.WaitDurable(l.wal.Len(), cancel))
}

// diskErr reports a canceled durability wait or a closed disk as
// ErrNotRunning: the runtime stopped under the append.
func diskErr(err error) error {
	if errors.Is(err, wal.ErrCanceled) || errors.Is(err, wal.ErrClosed) {
		return ErrNotRunning
	}
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

// replay attaches the log's disk (Start in LogDir mode, on the first run
// and after Stop) and produces every verified group into the broker,
// idempotently and under the producer id and sequence its live append
// used, so a fresh broker (real restart) is rebuilt in the exact pre-crash
// order and a surviving broker deduplicates everything. The group counter
// and marker watermark restart from what the disk holds: left at their
// pre-Stop values, the replay would re-append every group to a surviving
// broker and later appends would be deduplicated away. Torn tail bytes are
// trimmed on open so live appends extend the valid record stream, and a
// torn group rebuilds the log down to its verified groups: the dangling
// partial group must not precede live appends on disk, or the next restart
// would misparse the new group headers as members of the old partial
// group. On error the disk stays attached for the caller to close.
func (l *inputLog) replay() error {
	w, err := wal.Open(l.dir, walOptions(l.rt.cfg))
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.wal, l.groups, l.markerHi = w, 0, 0
	if _, err := w.TrimTorn(); err != nil {
		return err
	}
	groups, torn, err := readGroups(w)
	if err != nil {
		return err
	}
	if torn > 0 {
		l.rt.m.Counter("core.wal_torn_batches").Add(int64(torn))
		if err := w.Truncate(); err != nil {
			return err
		}
		for _, g := range groups {
			if err := l.write(g.members); err != nil {
				return err
			}
		}
		if err := w.Sync(); err != nil {
			return err
		}
	}
	seqProducer := l.rt.cfg.Name + "-seq"
	for _, g := range groups {
		if marker, gseq := markerOf(g.members); marker != nil {
			// A cross-partition marker fanned out by the sequencer: same
			// producer id and sequence as the original fan-out, so the live
			// sequencer's re-pass dedups against it.
			l.rt.broker.ProduceIdempotentTo(l.tp, "", marker, seqProducer, gseq-1)
			l.markerHi = gseq
			continue
		}
		l.rt.broker.ProduceIdempotentTo(l.tp, "", combineGroup(g.members), l.producer, l.groups)
		l.groups++
		if l != l.rt.gseq {
			l.rt.m.Counter("core.wal_replayed_groups").Inc()
		}
	}
	return nil
}

// close syncs and detaches the log's disk, if one is attached.
func (l *inputLog) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wal != nil {
		l.wal.Close()
		l.wal = nil
	}
}

// consume reads the log in order from offset from, handing each fetched
// batch to fn (which publishes the reader's progress), and parks until the
// next notify — or a millisecond poll — when caught up. It returns when
// stop closes.
func (l *inputLog) consume(from int64, stop chan struct{}, fn func([]mq.Message)) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		msgs, err := l.rt.broker.Fetch(l.tp, from, 128)
		if err != nil || len(msgs) == 0 {
			select {
			case <-stop:
				return
			case <-l.wake:
			case <-time.After(time.Millisecond):
			}
			continue
		}
		fn(msgs)
		from = msgs[len(msgs)-1].Offset + 1
	}
}

// notify pokes the log's reader without blocking.
func (l *inputLog) notify() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
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

// combineGroup builds the log record for one group append: a single member
// is its own record; N members are the {"b":[...]} group record —
// byte-identical to json.Marshal(request{Batch}) over the members, since
// each member payload *is* that member's marshaling.
func combineGroup(members [][]byte) []byte {
	if len(members) == 1 {
		return members[0]
	}
	n := len(`{"b":[]}`) + len(members) - 1
	for _, m := range members {
		n += len(m)
	}
	buf := make([]byte, 0, n)
	buf = append(buf, `{"b":[`...)
	for i, m := range members {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, m...)
	}
	return append(buf, `]}`...)
}
