// Package wal implements a segmented, checksummed write-ahead log. It is the
// durability substrate of the deterministic core's input log
// (internal/core), which appends and fsyncs every group before sequencing
// it — the "persist, then act" the paper's systems survey requires (§3.3,
// §4.1).
//
// Record format (little endian):
//
//	4 bytes  payload length n
//	4 bytes  CRC32 (Castagnoli) of payload
//	n bytes  payload
//
// Segments roll over at a configurable size. Replay stops cleanly at the
// first torn or corrupt record, which models crash-consistency: a record is
// durable iff it was fully written (and fsynced when SyncOnAppend is set).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Common WAL errors.
var (
	ErrClosed   = errors.New("wal: closed")
	ErrCorrupt  = errors.New("wal: corrupt record")
	ErrTooLarge = errors.New("wal: record exceeds segment size")
	ErrCanceled = errors.New("wal: durability wait canceled")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const headerSize = 8

// Options configure a log.
type Options struct {
	// SegmentSize is the maximum byte size of one segment file.
	SegmentSize int64
	// SyncOnAppend fsyncs after every append (one fsync per AppendBatch
	// call, however many records the batch carries — the group-commit
	// amortization). Slower but loses nothing on crash. When false,
	// durability is up to the OS page cache (the trade-off every message
	// broker exposes).
	SyncOnAppend bool
	// SyncInterval, when positive and SyncOnAppend is false, runs a
	// background flusher that fsyncs the active segment every interval —
	// the bounded-loss middle ground between per-batch fsync and none.
	SyncInterval time.Duration
}

// DefaultOptions returns 4 MiB segments without per-append fsync.
func DefaultOptions() Options {
	return Options{SegmentSize: 4 << 20}
}

// Log is an append-only write-ahead log stored in a directory of segment
// files named <seq>.wal. Safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	closed   bool
	active   *os.File
	activeSz int64
	activeID uint64
	next     uint64 // next record index (monotone across segments)
	segments []uint64

	// durable is the sync watermark: every record with index < durable has
	// been covered by an fsync. Records in [durable, next) are appended but
	// may still be sitting in the page cache — the fsync-interval ack gap.
	// syncGen is closed and replaced on every watermark advance (and on
	// close), so WaitDurable blocks on generations instead of polling.
	durable uint64
	syncGen chan struct{}

	flushStop chan struct{} // interval flusher, when SyncInterval is set
	flushDone chan struct{}
}

// Open opens (or creates) a log in dir.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = DefaultOptions().SegmentSize
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: mkdir: %w", err)
	}
	l := &Log{dir: dir, opts: opts}
	if err := l.loadSegments(); err != nil {
		return nil, err
	}
	if err := l.openActive(); err != nil {
		return nil, err
	}
	// Count existing records so indexes continue across restarts.
	n, err := l.countRecords()
	if err != nil {
		return nil, err
	}
	l.next = n
	// Records that survived a reopen are on disk by definition.
	l.durable = n
	l.syncGen = make(chan struct{})
	if opts.SyncInterval > 0 && !opts.SyncOnAppend {
		l.flushStop = make(chan struct{})
		l.flushDone = make(chan struct{})
		go l.runFlusher(opts.SyncInterval, l.flushStop, l.flushDone)
	}
	return l, nil
}

// runFlusher fsyncs the active segment every interval until Close. A sync
// error here is unreported (the next Append/Sync surfaces it); the flusher
// only bounds how much an otherwise-unsynced log can lose.
func (l *Log) runFlusher(interval time.Duration, stop, done chan struct{}) {
	defer close(done)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			l.mu.Lock()
			if !l.closed {
				if err := l.active.Sync(); err == nil {
					l.markDurableLocked(l.next)
				}
			}
			l.mu.Unlock()
		}
	}
}

func (l *Log) loadSegments() error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("wal: readdir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".wal") {
			continue
		}
		var id uint64
		if _, err := fmt.Sscanf(name, "%016x.wal", &id); err != nil {
			continue
		}
		l.segments = append(l.segments, id)
	}
	sort.Slice(l.segments, func(i, j int) bool { return l.segments[i] < l.segments[j] })
	return nil
}

func (l *Log) segPath(id uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%016x.wal", id))
}

func (l *Log) openActive() error {
	if len(l.segments) == 0 {
		l.segments = append(l.segments, 0)
	}
	id := l.segments[len(l.segments)-1]
	f, err := os.OpenFile(l.segPath(id), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: stat segment: %w", err)
	}
	l.active = f
	l.activeSz = st.Size()
	l.activeID = id
	return nil
}

func (l *Log) countRecords() (uint64, error) {
	var n uint64
	err := l.replayLocked(func([]byte) error { n++; return nil })
	return n, err
}

// Append writes one record and returns its index. The index is the total
// number of records appended before it, stable across restarts.
func (l *Log) Append(payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	rec := int64(headerSize + len(payload))
	if rec > l.opts.SegmentSize {
		return 0, fmt.Errorf("%w: %d > %d", ErrTooLarge, rec, l.opts.SegmentSize)
	}
	if l.activeSz+rec > l.opts.SegmentSize {
		if err := l.roll(); err != nil {
			return 0, err
		}
	}
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	if _, err := l.active.Write(hdr[:]); err != nil {
		return 0, fmt.Errorf("wal: write header: %w", err)
	}
	if _, err := l.active.Write(payload); err != nil {
		return 0, fmt.Errorf("wal: write payload: %w", err)
	}
	l.activeSz += rec
	if l.opts.SyncOnAppend {
		if err := l.active.Sync(); err != nil {
			return 0, fmt.Errorf("wal: sync: %w", err)
		}
	}
	idx := l.next
	l.next++
	if l.opts.SyncOnAppend {
		l.markDurableLocked(l.next)
	}
	return idx, nil
}

// AppendBatch writes all payloads as consecutive records with one buffered
// write and (under SyncOnAppend) one fsync — the group commit a per-record
// Append cannot amortize. Returns the index of the first record; the batch
// occupies [first, first+len(payloads)). Records are packed into the
// active segment until it fills, so a batch may span a segment roll, but
// the common case is a single write syscall. An empty batch is a no-op.
func (l *Log) AppendBatch(payloads [][]byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	for _, p := range payloads {
		if rec := int64(headerSize + len(p)); rec > l.opts.SegmentSize {
			return 0, fmt.Errorf("%w: %d > %d", ErrTooLarge, rec, l.opts.SegmentSize)
		}
	}
	first := l.next
	buf := make([]byte, 0, batchSize(payloads))
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		if _, err := l.active.Write(buf); err != nil {
			return fmt.Errorf("wal: write batch: %w", err)
		}
		l.activeSz += int64(len(buf))
		buf = buf[:0]
		return nil
	}
	for _, p := range payloads {
		rec := int64(headerSize + len(p))
		if l.activeSz+int64(len(buf))+rec > l.opts.SegmentSize {
			if err := flush(); err != nil {
				return 0, err
			}
			if err := l.roll(); err != nil {
				return 0, err
			}
		}
		var hdr [headerSize]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(p)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(p, castagnoli))
		buf = append(buf, hdr[:]...)
		buf = append(buf, p...)
	}
	if err := flush(); err != nil {
		return 0, err
	}
	if l.opts.SyncOnAppend && len(payloads) > 0 {
		if err := l.active.Sync(); err != nil {
			return 0, fmt.Errorf("wal: sync: %w", err)
		}
	}
	l.next = first + uint64(len(payloads))
	if l.opts.SyncOnAppend {
		l.markDurableLocked(l.next)
	}
	return first, nil
}

func batchSize(payloads [][]byte) int {
	n := 0
	for _, p := range payloads {
		n += headerSize + len(p)
	}
	return n
}

func (l *Log) roll() error {
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("wal: sync on roll: %w", err)
	}
	// Everything indexed so far lives in the segment just synced (a batch
	// mid-roll has not advanced next yet), so the watermark may advance.
	l.markDurableLocked(l.next)
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("wal: close on roll: %w", err)
	}
	id := l.activeID + 1
	l.segments = append(l.segments, id)
	f, err := os.OpenFile(l.segPath(id), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open new segment: %w", err)
	}
	l.active = f
	l.activeSz = 0
	l.activeID = id
	return nil
}

// Sync forces buffered appends to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := l.active.Sync(); err != nil {
		return err
	}
	l.markDurableLocked(l.next)
	return nil
}

// markDurableLocked advances the sync watermark to n and wakes every
// WaitDurable blocked on the current generation. Caller holds l.mu.
func (l *Log) markDurableLocked(n uint64) {
	if n > l.durable {
		l.durable = n
	}
	l.broadcastLocked()
}

func (l *Log) broadcastLocked() {
	close(l.syncGen)
	l.syncGen = make(chan struct{})
}

// WaitDurable blocks until the sync watermark reaches end (record indexes
// [0, end) all fsynced), the log closes (ErrClosed), or cancel is closed
// (ErrCanceled). A nil cancel never fires. This is the second phase of the
// interval-mode two-phase ack: append, then wait for the covering sync
// before acknowledging, so acknowledged always means durable.
func (l *Log) WaitDurable(end uint64, cancel <-chan struct{}) error {
	for {
		l.mu.Lock()
		if l.durable >= end {
			l.mu.Unlock()
			return nil
		}
		if l.closed {
			l.mu.Unlock()
			return ErrClosed
		}
		gen := l.syncGen
		l.mu.Unlock()
		select {
		case <-gen:
		case <-cancel:
			return ErrCanceled
		}
	}
}

// Len returns the number of durable records.
func (l *Log) Len() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Replay calls fn for every record in append order. Replay stops without
// error at the first torn record (trailing partial write from a crash); any
// mid-log corruption returns ErrCorrupt.
func (l *Log) Replay(fn func(payload []byte) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.replayLocked(fn)
}

func (l *Log) replayLocked(fn func(payload []byte) error) error {
	for si, id := range l.segments {
		last := si == len(l.segments)-1
		if err := l.replaySegment(id, last, fn); err != nil {
			return err
		}
	}
	return nil
}

func (l *Log) replaySegment(id uint64, last bool, fn func([]byte) error) error {
	f, err := os.Open(l.segPath(id))
	if err != nil {
		if os.IsNotExist(err) && last {
			return nil
		}
		return fmt.Errorf("wal: open segment for replay: %w", err)
	}
	defer f.Close()
	var hdr [headerSize]byte
	for {
		_, err := io.ReadFull(f, hdr[:])
		if err == io.EOF {
			return nil
		}
		if err == io.ErrUnexpectedEOF {
			if last {
				return nil // torn header at tail: ignore
			}
			return fmt.Errorf("%w: torn header in non-final segment %d", ErrCorrupt, id)
		}
		if err != nil {
			return fmt.Errorf("wal: read header: %w", err)
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		payload := make([]byte, n)
		if _, err := io.ReadFull(f, payload); err != nil {
			if (err == io.ErrUnexpectedEOF || err == io.EOF) && last {
				return nil // torn payload at tail: ignore
			}
			return fmt.Errorf("%w: torn payload in segment %d", ErrCorrupt, id)
		}
		if crc32.Checksum(payload, castagnoli) != sum {
			return fmt.Errorf("%w: checksum mismatch in segment %d", ErrCorrupt, id)
		}
		if err := fn(payload); err != nil {
			return err
		}
	}
}

// TrimTorn truncates the active segment to its last fully-valid record,
// discarding any torn tail bytes a crash left behind. Without the trim,
// appends after a reopen would land *after* the torn bytes — durable but
// unreachable, since Replay stops at the tear. Returns the number of bytes
// dropped. Only the active (last) segment can carry a tear: rolls sync and
// close their segment before moving on.
func (l *Log) TrimTorn() (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	f, err := os.Open(l.segPath(l.activeID))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("wal: open for trim: %w", err)
	}
	var valid int64
	var hdr [headerSize]byte
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			break // EOF or torn header
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		payload := make([]byte, n)
		if _, err := io.ReadFull(f, payload); err != nil {
			break // torn payload
		}
		if crc32.Checksum(payload, castagnoli) != sum {
			break // invalid suffix starts here
		}
		valid += int64(headerSize) + int64(n)
	}
	f.Close()
	dropped := l.activeSz - valid
	if dropped <= 0 {
		return 0, nil
	}
	if err := l.active.Truncate(valid); err != nil {
		return 0, fmt.Errorf("wal: trim: %w", err)
	}
	l.activeSz = valid
	return dropped, nil
}

// Truncate removes all records and starts an empty log (used after a
// checkpoint has made the log prefix redundant).
func (l *Log) Truncate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("wal: close for truncate: %w", err)
	}
	for _, id := range l.segments {
		if err := os.Remove(l.segPath(id)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("wal: remove segment: %w", err)
		}
	}
	l.segments = nil
	l.next = 0
	l.durable = 0
	l.broadcastLocked()
	return l.openActive()
}

// Close flushes and closes the log (stopping the interval flusher, when
// one is running).
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	stop, done := l.flushStop, l.flushDone
	l.flushStop, l.flushDone = nil, nil
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.active.Sync(); err != nil {
		l.broadcastLocked() // wake waiters; they observe closed
		l.active.Close()
		return fmt.Errorf("wal: sync on close: %w", err)
	}
	l.markDurableLocked(l.next)
	return l.active.Close()
}
