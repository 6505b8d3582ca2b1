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

// The runtime's input logs and the durability layer under them. Each input
// log — one per partition, plus the global-sequence (gseq) log when the
// runtime is sharded — is an in-memory tail of decoded requests, one entry
// per group append, indexed by offset and read in order by one reader (a
// partition executor, or the sequencer). Config.LogDir mode is the same
// input log with a disk attached: every group append, and every
// cross-partition marker the sequencer fans out, is written to a segmented,
// checksummed, fsynced write-ahead log (internal/wal) *before* it enters
// the tail: persist, then act. JSON exists only there: appendGroup marshals
// the members it writes, and replay decodes them. With a disk attached the
// tail keeps only what its reader has not yet scheduled, and every Start
// rebuilds it from the disk; in model mode the tail is the storage, keeps
// every entry and survives Crash. The modeled Config.SequenceDelay is not
// charged in LogDir mode; the log's own write+fsync cost is the measured
// latency (BenchmarkE22_DurabilityFrontier maps the batch-size × fsync-policy
// frontier).
//
// On disk, one logical group append is a *header record* followed by its
// member records, each member one request's JSON:
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

// inputLog is one input log: its tail, its reader's position and wake
// channel and, in LogDir mode, its disk.
type inputLog struct {
	rt   *Runtime
	dir  string        // the disk's directory; "" in model mode
	wake chan struct{} // poked after an append so the reader needn't poll

	// mu orders appends. It is held across the persist and the push, so the
	// tail holds the disk's records in disk order — which is what makes a
	// replay rebuild the identical offsets.
	mu  sync.Mutex
	wal *wal.Log // attached by replay, detached by close
	// markerHi is the highest global-sequence stamp whose marker the log
	// already holds. Re-sequencing the gseq log after a crash re-offers
	// every marker past the checkpoint, and markers reach a partition in
	// increasing stamp order, so this watermark is the fan-out's dedup.
	// Replay seeds it from the disk.
	markerHi int64

	// tailMu guards the tail and the reader's position. It is never held
	// across a disk write, so a reader never waits behind an fsync. Tail
	// entries are never mutated: a replay runs what the live append held.
	tailMu sync.Mutex
	tail   [][]request // the group appends from offset base on
	base   int64       // the offset of tail[0]; zero in model mode
	pos    int64       // the reader's position: the next offset to schedule
}

// newInputLog makes an empty log. sub names its disk under Config.LogDir
// (p<partition>/ or gseq/).
func (r *Runtime) newInputLog(sub string) *inputLog {
	l := &inputLog{rt: r, wake: make(chan struct{}, 1)}
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

// appendGroup appends one group of requests as one log entry. stamp is a
// sequencer marker's global-sequence stamp, and zero for everything else; a
// marker at or below markerHi is already in the log and is skipped. In
// LogDir mode the group is persisted first — header and JSON members in one
// write, fsync per policy, in interval mode waiting out the covering sync —
// so the return is the configured durability point: what the submitters'
// acks mean. A written group is in the disk's record stream even when that
// wait fails (it fails only when the runtime stops under it), so it enters
// the tail either way and the error is still returned: the tail mirrors the
// disk group for group. reqs must not be mutated afterwards.
func (l *inputLog) appendGroup(reqs []request, stamp int64, cancel <-chan struct{}) error {
	var members [][]byte
	if l.dir != "" {
		members = make([][]byte, len(reqs))
		for i := range reqs {
			var err error
			if members[i], err = json.Marshal(reqs[i]); err != nil {
				return err
			}
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if stamp != 0 && stamp <= l.markerHi {
		return nil
	}
	var err error
	if l.dir != "" {
		if err = l.write(members); err != nil {
			return err
		}
		err = l.waitDurable(cancel)
	}
	l.push(reqs, stamp)
	return err
}

// push appends one group to the tail and raises markerHi to a marker's
// stamp. Caller holds l.mu.
func (l *inputLog) push(reqs []request, stamp int64) {
	if stamp != 0 {
		l.markerHi = stamp
	}
	l.tailMu.Lock()
	l.tail = append(l.tail, reqs)
	l.tailMu.Unlock()
}

// notify wakes the log's reader without blocking. Appenders call it after
// appendGroup, the batcher only once it has acked the group's submitters:
// a reader woken first takes the processor from the submitters about to
// refill the next group.
func (l *inputLog) notify() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// write persists one group (header + members) to the disk. A detached or
// closed disk fails it with ErrNotRunning, so nothing reaches only the
// tail. Caller holds l.mu.
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
// submitters instead of acking, and the record's fate is the disk's:
// recovery runs it if the disk still holds it. Caller holds l.mu.
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

// readGroups replays one WAL through group parsing and Merkle
// verification. It returns the verified groups' member payloads, whether
// the stream ends inside a group — a torn tail: the WAL itself stops at
// the first torn record, so only the last group can be incomplete — and an
// error on tampering or mid-log corruption.
func readGroups(l *wal.Log) (groups [][][]byte, torn bool, err error) {
	var cur [][]byte
	var want int
	var root []byte
	err = l.Replay(func(payload []byte) error {
		if cur == nil {
			var hdr walHeader
			if err := json.Unmarshal(payload, &hdr); err != nil || hdr.N <= 0 {
				return fmt.Errorf("%w: malformed group header", ErrLogTampered)
			}
			cur, want, root = make([][]byte, 0, hdr.N), hdr.N, hdr.Root
			return nil
		}
		if cur = append(cur, bytes.Clone(payload)); len(cur) < want {
			return nil
		}
		if got := wal.MerkleRoot(cur); !bytes.Equal(got[:], root) {
			return fmt.Errorf("%w: group %d", ErrLogTampered, len(groups))
		}
		groups, cur = append(groups, cur), nil
		return nil
	})
	return groups, cur != nil, err
}

// replay rebuilds the tail, and the marker watermark, from the disk's
// verified groups in disk order (Start in LogDir mode, every time): every
// group gets back the offset its live append gave it, so a checkpoint's
// reader positions still hold. It reuses a disk still attached after Crash
// and opens one after Stop. Torn tail bytes are trimmed so live appends
// extend the valid record stream, and a torn group rebuilds the log down to
// its verified groups: the dangling partial group must not precede live
// appends on disk, or the next restart would misparse the new group headers
// as members of the old partial group. Each member is decoded once; one that
// does not decode is dropped and counted in core.poison. Every replay adds
// the partition-log groups it re-read, markers aside, to
// core.wal_replayed_groups. On error the disk stays attached for the
// caller to close.
func (l *inputLog) replay() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wal == nil {
		w, err := wal.Open(l.dir, walOptions(l.rt.cfg))
		if err != nil {
			return err
		}
		l.wal = w
	}
	w := l.wal
	if _, err := w.TrimTorn(); err != nil {
		return err
	}
	groups, torn, err := readGroups(w)
	if err != nil {
		return err
	}
	if torn {
		l.rt.m.Counter("core.wal_torn_batches").Inc()
		if err := w.Truncate(); err != nil {
			return err
		}
		for _, members := range groups {
			if err := l.write(members); err != nil {
				return err
			}
		}
		if err := w.Sync(); err != nil {
			return err
		}
	}
	l.markerHi = 0
	l.tailMu.Lock()
	l.tail, l.base = make([][]request, 0, len(groups)), 0
	l.tailMu.Unlock()
	for _, members := range groups {
		reqs := make([]request, 0, len(members))
		for _, m := range members {
			var req request
			if err := json.Unmarshal(m, &req); err != nil {
				l.rt.m.Counter("core.poison").Inc()
				continue
			}
			reqs = append(reqs, req)
		}
		var stamp int64
		if len(reqs) == 1 {
			stamp = reqs[0].GSeq
		}
		if stamp == 0 && l != l.rt.gseq {
			l.rt.m.Counter("core.wal_replayed_groups").Inc()
		}
		l.push(reqs, stamp)
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

// consume hands fn, in order, every group past the reader's position as
// one batch with the offset of its first group, and moves the position
// past the batch once fn returns. Caught up, it parks until the next
// notify. It returns when stop closes.
func (l *inputLog) consume(stop chan struct{}, fn func(from int64, groups [][]request)) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		l.tailMu.Lock()
		from, groups := l.pos, l.tail[l.pos-l.base:]
		l.tailMu.Unlock()
		if len(groups) == 0 {
			select {
			case <-stop:
				return
			case <-l.wake:
			}
			continue
		}
		fn(from, groups)
		l.seek(from + int64(len(groups)))
	}
}

// seek sets the reader's position. With a disk attached the tail then
// drops every entry below it — the disk holds them, and the next Start
// re-reads it — by moving the unread entries to the front of the tail and
// clearing the slots they leave; base keeps offsets absolute. Only the
// reader (or Start, before any reader runs) seeks, so no batch consume
// handed out is still being read.
func (l *inputLog) seek(pos int64) {
	l.tailMu.Lock()
	defer l.tailMu.Unlock()
	l.pos = pos
	if l.dir != "" {
		n := copy(l.tail, l.tail[pos-l.base:])
		clear(l.tail[n:])
		l.tail, l.base = l.tail[:n], pos
	}
}

// progress returns the reader's position and the log's length.
func (l *inputLog) progress() (pos, length int64) {
	l.tailMu.Lock()
	defer l.tailMu.Unlock()
	return l.pos, l.base + int64(len(l.tail))
}
