package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"tca/internal/mq"
)

// The durable-log suite: the runtime in Config.LogDir mode, where every
// group append persists to a real WAL (with a Merkle root per group) before
// it enters the log's tail, and Start replays the logs through
// verification.

func newWALRuntime(t *testing.T, name, dir string, parts int) *Runtime {
	t.Helper()
	r := NewRuntime(mq.NewBroker(), Config{Name: name, Partitions: parts, LogDir: dir})
	registerBank(r)
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	return r
}

func TestDurableLogCommitAndCounters(t *testing.T) {
	dir := t.TempDir()
	r := newWALRuntime(t, "wal-basic", dir, 1)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			deposit(t, r, fmt.Sprintf("d%d", i), int64(i%4), 5)
		}(i)
	}
	wg.Wait()
	var total int64
	for acc := int64(0); acc < 4; acc++ {
		total += balance(r, acc)
	}
	if total != 32*5 {
		t.Fatalf("total = %d, want %d", total, 32*5)
	}
	if r.Metrics().Counter("core.wal_records").Value() != 32 {
		t.Fatalf("wal_records = %d, want 32", r.Metrics().Counter("core.wal_records").Value())
	}
	if g := r.Metrics().Counter("core.wal_group_appends").Value(); g < 1 || g > 32 {
		t.Fatalf("wal_group_appends = %d, want within [1,32]", g)
	}
}

// TestDurableLogRestartRebuildsFreshBroker is the real-restart path: the
// runtime and its in-memory tails are lost, only the log directory
// survives. A new runtime must rebuild the identical state from the WAL
// alone, and replayed requests must stay idempotent.
func TestDurableLogRestartRebuildsFreshBroker(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Name: "wal-restart", LogDir: dir}

	r := NewRuntime(mq.NewBroker(), cfg)
	registerBank(r)
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			deposit(t, r, fmt.Sprintf("d%d", i), int64(i%3), 10)
		}(i)
	}
	wg.Wait()
	want := []int64{balance(r, 0), balance(r, 1), balance(r, 2)}
	r.Stop()

	r2 := NewRuntime(mq.NewBroker(), cfg) // new runtime: only disk survives
	registerBank(r2)
	if err := r2.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r2.Stop)
	if err := r2.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	for acc := int64(0); acc < 3; acc++ {
		if got := balance(r2, acc); got != want[acc] {
			t.Fatalf("acc %d after restart = %d, want %d", acc, got, want[acc])
		}
	}
	if r2.Metrics().Counter("core.wal_replayed_groups").Value() == 0 {
		t.Fatal("restart replayed no groups")
	}
	// A pre-restart request id resubmitted post-restart must hit the result
	// cache the replay rebuilt, not re-apply.
	deposit(t, r2, "d0", 0, 10)
	if got := balance(r2, 0); got != want[0] {
		t.Fatalf("replayed request re-applied: acc 0 = %d, want %d", got, want[0])
	}
	if r2.Metrics().Counter("core.dedup_hits").Value() == 0 {
		t.Fatal("resubmit after restart missed the dedup cache")
	}
}

// TestDurableLogCrossPartitionRestart exercises the sharded layout: per-
// partition logs plus the gseq log, with sequencer markers persisted in the
// partition logs. Balances (and conservation) must survive a full restart.
func TestDurableLogCrossPartitionRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Name: "wal-cross", Partitions: 4, LogDir: dir}

	r := NewRuntime(mq.NewBroker(), cfg)
	registerBank(r)
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	const accounts = 8
	for a := int64(0); a < accounts; a++ {
		deposit(t, r, fmt.Sprintf("seed%d", a), a, 100)
	}
	for i := 0; i < 10; i++ {
		from, to := int64(i%accounts), int64((i+3)%accounts)
		if err := transfer(r, fmt.Sprintf("x%d", i), from, to, 7); err != nil {
			t.Fatal(err)
		}
	}
	want := make([]int64, accounts)
	for a := int64(0); a < accounts; a++ {
		want[a] = balance(r, a)
	}
	r.Stop()

	r2 := NewRuntime(mq.NewBroker(), cfg)
	registerBank(r2)
	if err := r2.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r2.Stop)
	if err := r2.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	var total int64
	for a := int64(0); a < accounts; a++ {
		got := balance(r2, a)
		total += got
		if got != want[a] {
			t.Fatalf("acc %d after restart = %d, want %d", a, got, want[a])
		}
	}
	if total != accounts*100 {
		t.Fatalf("conservation broken after restart: total = %d", total)
	}
}

// TestDurableLogHandlesResolveAcrossCrash is the WAL-mode twin of the
// modeled crash/replay handle test: handles issued before an in-process
// crash resolve exactly once after recovery, because the acked submissions
// are on disk and in the surviving tails.
func TestDurableLogHandlesResolveAcrossCrash(t *testing.T) {
	dir := t.TempDir()
	r := newWALRuntime(t, "wal-handles", dir, 1)
	const n = 25
	handles := make([]*Handle, 0, n)
	for i := 0; i < n; i++ {
		args := append(i64(2), i64(0)...)
		h, err := r.SubmitAsync(fmt.Sprintf("h%d", i), "deposit", []string{"acc/0"}, args, nil)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	r.Crash()
	if err := r.Recover(); err != nil {
		t.Fatal(err)
	}
	for i, h := range handles {
		if _, err := h.Result(); err != nil {
			t.Fatalf("handle %d after crash: %v", i, err)
		}
	}
	// Handles may have resolved before the crash; the post-crash replay that
	// rebuilds state is asynchronous either way, so drain it before reading.
	if err := r.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := balance(r, 0); got != n*2 {
		t.Fatalf("balance = %d, want %d", got, n*2)
	}
}

// segFiles returns a log directory's segment files in order.
func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		out = append(out, filepath.Join(dir, e.Name()))
	}
	sort.Strings(out)
	if len(out) == 0 {
		t.Fatalf("no segments in %s", dir)
	}
	return out
}

// TestDurableLogTornTailDropsOnlyTornBatch truncates the last segment mid-
// record — the torn tail a crash between the buffered write and its
// completion leaves — and restarts a new runtime. Replay must stop at
// the tear, flag exactly the torn batch, and come up clean with everything
// before it intact.
func TestDurableLogTornTailDropsOnlyTornBatch(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Name: "wal-torn", LogDir: dir}
	r := NewRuntime(mq.NewBroker(), cfg)
	registerBank(r)
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ { // sequential: one group per deposit
		deposit(t, r, fmt.Sprintf("d%d", i), 0, 10)
	}
	r.Stop()

	segs := segFiles(t, filepath.Join(dir, "p0"))
	last := segs[len(segs)-1]
	st, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	// Cut into the final group's member record: its header record stays
	// whole, so the group parses as started-but-incomplete — torn.
	if err := os.Truncate(last, st.Size()-5); err != nil {
		t.Fatal(err)
	}

	r2 := NewRuntime(mq.NewBroker(), cfg)
	registerBank(r2)
	if err := r2.Start(); err != nil {
		t.Fatalf("restart over torn log: %v", err)
	}
	t.Cleanup(r2.Stop)
	if err := r2.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := balance(r2, 0); got != 50 {
		t.Fatalf("balance after torn tail = %d, want 50 (exactly the torn batch dropped)", got)
	}
	if torn := r2.Metrics().Counter("core.wal_torn_batches").Value(); torn != 1 {
		t.Fatalf("wal_torn_batches = %d, want 1", torn)
	}
	// The rebuild must leave a clean log: live appends after the tear and a
	// further restart both work.
	deposit(t, r2, "d5b", 0, 10)
	r2.Stop()
	r3 := NewRuntime(mq.NewBroker(), cfg)
	registerBank(r3)
	if err := r3.Start(); err != nil {
		t.Fatalf("second restart: %v", err)
	}
	t.Cleanup(r3.Stop)
	if err := r3.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := balance(r3, 0); got != 60 {
		t.Fatalf("balance after rebuild+append+restart = %d, want 60", got)
	}
	if torn := r3.Metrics().Counter("core.wal_torn_batches").Value(); torn != 0 {
		t.Fatalf("rebuilt log still reports %d torn batches", torn)
	}
}

// TestDurableLogTamperDetected rewrites a member payload on disk and fixes
// up its CRC — the tamper a checksum alone cannot see. The group's Merkle
// root still disagrees, and Start must refuse with ErrLogTampered rather
// than replay forged history.
func TestDurableLogTamperDetected(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Name: "wal-tamper", LogDir: dir}
	r := NewRuntime(mq.NewBroker(), cfg)
	registerBank(r)
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		deposit(t, r, fmt.Sprintf("d%d", i), 0, 25)
	}
	r.Stop()

	segs := segFiles(t, filepath.Join(dir, "p0"))
	tampered := false
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		castagnoli := crc32.MakeTable(crc32.Castagnoli)
		for off := 0; off+8 <= len(data); {
			n := int(binary.LittleEndian.Uint32(data[off : off+4]))
			if off+8+n > len(data) {
				break
			}
			payload := data[off+8 : off+8+n]
			// Member records carry the function name; headers don't.
			if !tampered && containsBytes(payload, []byte(`"f":"deposit"`)) {
				payload[len(payload)-2] ^= 0x01 // forge one byte…
				binary.LittleEndian.PutUint32(data[off+4:off+8],
					crc32.Checksum(payload, castagnoli)) // …and fix the CRC
				tampered = true
			}
			off += 8 + n
		}
		if tampered {
			if err := os.WriteFile(seg, data, 0o644); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if !tampered {
		t.Fatal("found no member record to tamper with")
	}

	r2 := NewRuntime(mq.NewBroker(), cfg)
	registerBank(r2)
	err := r2.Start()
	if !errors.Is(err, ErrLogTampered) {
		t.Fatalf("Start over tampered log = %v, want ErrLogTampered", err)
	}
}

func containsBytes(haystack, needle []byte) bool {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		match := true
		for j := range needle {
			if haystack[i+j] != needle[j] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// TestDurableLogMaxGroupAppend pins the configurable group-append cap: the
// serialization stamps scale with it, and groups never exceed it.
func TestDurableLogMaxGroupAppend(t *testing.T) {
	dir := t.TempDir()
	r := NewRuntime(mq.NewBroker(), Config{Name: "wal-cap", LogDir: dir, MaxGroupAppend: 4})
	registerBank(r)
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	var wg sync.WaitGroup
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			deposit(t, r, fmt.Sprintf("d%d", i), 0, 1)
		}(i)
	}
	wg.Wait()
	if got := balance(r, 0); got != 40 {
		t.Fatalf("balance = %d, want 40", got)
	}
	appends := r.Metrics().Counter("core.wal_group_appends").Value()
	if appends < 10 { // 40 records / cap 4
		t.Fatalf("wal_group_appends = %d, want >= 10 under cap 4", appends)
	}
}

// TestIntervalAckCoversDurability pins the FsyncInterval two-phase ack:
// the submitter's acknowledgment must not return before the covering
// fsync. With a short interval the ack returns and the watermark already
// covers the log; with an interval beyond the test's lifetime the ack
// must still be pending — returning early here is exactly the
// acknowledged-but-lost window the watermark closed.
func TestIntervalAckCoversDurability(t *testing.T) {
	t.Run("short-interval", func(t *testing.T) {
		dir := t.TempDir()
		r := NewRuntime(mq.NewBroker(), Config{
			Name: "wal-ivl-short", LogDir: dir,
			Fsync: FsyncInterval, FsyncEvery: 5 * time.Millisecond,
		})
		registerBank(r)
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Stop)
		for i := 0; i < 3; i++ {
			deposit(t, r, fmt.Sprintf("d%d", i), 0, 2)
		}
		// The blocking Submit returned, so the interval sync covering its
		// record already ran: the watermark is the whole log, and waiting
		// for it returns at once even with the wait already canceled.
		l := r.logs[0].wal
		canceled := make(chan struct{})
		close(canceled)
		if err := l.WaitDurable(l.Len(), canceled); err != nil {
			t.Fatalf("WaitDurable(Len) after acked submits = %v, want nil", err)
		}
	})
	t.Run("ack-waits-for-sync", func(t *testing.T) {
		dir := t.TempDir()
		r := NewRuntime(mq.NewBroker(), Config{
			Name: "wal-ivl-long", LogDir: dir,
			Fsync: FsyncInterval, FsyncEvery: time.Hour,
		})
		registerBank(r)
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Stop)
		acked := make(chan error, 1)
		go func() {
			args := append(i64(7), i64(0)...)
			_, err := r.SubmitAsync("slow-ack", "deposit", []string{"acc/0"}, args, nil)
			acked <- err
		}()
		select {
		case err := <-acked:
			t.Fatalf("ack returned before the covering fsync (err=%v)", err)
		case <-time.After(100 * time.Millisecond):
			// still pending: the ack is waiting out the interval sync.
		}
		// Crash while the ack is parked — the kill between append and
		// interval sync. The parked submitter must be released with an
		// error instead of hanging on a dead flusher, and because the ack
		// never returned, the client holds no durability claim: whether the
		// record survives is the disk's business alone.
		r.Crash()
		select {
		case err := <-acked:
			if err == nil {
				t.Fatal("parked ack resolved nil across a crash")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("parked ack never released by the crash")
		}
		// Full restart from disk (Stop syncs and closes the logs, so the
		// written record reaches stable storage; a new runtime means only
		// the log directory survives). The appended record must apply
		// exactly once — never twice, never torn — and its request id must
		// land in the rebuilt dedup cache.
		r.Stop()
		r2 := NewRuntime(mq.NewBroker(), Config{
			Name: "wal-ivl-long", LogDir: dir,
			Fsync: FsyncInterval, FsyncEvery: time.Hour,
		})
		registerBank(r2)
		if err := r2.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r2.Stop)
		if err := r2.Quiesce(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		if got := balance(r2, 0); got != 7 {
			t.Fatalf("balance after restart = %d, want 7 (appended record replays once)", got)
		}
		deposit(t, r2, "slow-ack", 0, 7)
		if got := balance(r2, 0); got != 7 {
			t.Fatalf("replayed request re-applied: balance = %d, want 7", got)
		}
	})
}

// TestCrashWhileMarkerWaitParkedAppliesOnce crashes while a
// cross-partition marker's interval-mode durability wait is parked: the
// marker is written to its partition's disk, but no sync has covered it.
// Recovery re-sequences the gseq log, and the transaction must still apply
// exactly once — not lost because the re-sequenced marker was taken for one
// already in the log, not doubled because it was appended again.
func TestCrashWhileMarkerWaitParkedAppliesOnce(t *testing.T) {
	r := NewRuntime(mq.NewBroker(), Config{
		Name: "wal-marker-park", Partitions: 2, LogDir: t.TempDir(),
		Fsync: FsyncInterval, FsyncEvery: time.Hour,
	})
	r.Register("bump", func(tx *Tx, args []byte) ([]byte, error) {
		for _, k := range strings.Fields(string(args)) {
			cur, _, err := tx.Get(k)
			if err != nil {
				return nil, err
			}
			if err := tx.Put(k, i64(toI64(cur)+1)); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	keys := []string{"acc/0", "acc/1"}
	for r.PartitionOf(keys[1]) == r.PartitionOf(keys[0]) {
		keys[1] += "x"
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	submitted := make(chan *Handle, 1)
	go func() {
		h, err := r.SubmitAsync("cross", "bump", keys, []byte(strings.Join(keys, " ")), nil)
		if err != nil {
			t.Error(err)
		}
		submitted <- h
	}()
	// The submission parks on the gseq log's hour-long interval; syncing
	// that disk releases it, and the sequencer fans the transaction out.
	waitFor("the gseq append", func() bool { return r.gseq.wal.Len() > 0 })
	if err := r.gseq.wal.Sync(); err != nil {
		t.Fatal(err)
	}
	h := <-submitted
	if h == nil {
		t.FailNow()
	}
	// The first involved partition's marker is on its disk, and the
	// sequencer is parked on that disk's interval wait. Crash there.
	first := min(r.PartitionOf(keys[0]), r.PartitionOf(keys[1]))
	waitFor("the marker append", func() bool { return r.logs[first].wal.Len() > 0 })
	r.Crash()
	if err := r.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := r.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Result(); err != nil {
		t.Fatalf("handle after crash: %v", err)
	}
	for _, k := range keys {
		if v, _ := r.Read(k); toI64(v) != 1 {
			t.Fatalf("%s = %d after crash and recovery, want 1 (the transaction applies exactly once)", k, toI64(v))
		}
	}
}

// logLengths returns every input log's length, in Runtime.logs order.
func logLengths(r *Runtime) []int64 {
	out := make([]int64, len(r.logs))
	for i, l := range r.logs {
		_, out[i] = l.progress()
	}
	return out
}

// TestDurableLogStopStartKeepsSurvivingBroker is the restart Stop's doc
// promises: Stop detaches the disks, and Start on the same runtime
// rebuilds every tail from its disk. The rebuilt tails must have exactly
// the lengths the live ones had — no record lost or doubled, so the
// offsets still line up — and appends after the restart must still land.
func TestDurableLogStopStartKeepsSurvivingBroker(t *testing.T) {
	const accounts = 6
	r := NewRuntime(mq.NewBroker(), Config{Name: "wal-survive", Partitions: 2, LogDir: t.TempDir()})
	registerBank(r)
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	for a := int64(0); a < accounts; a++ {
		deposit(t, r, fmt.Sprintf("seed%d", a), a, 100)
	}
	for i := 0; i < 8; i++ {
		from, to := int64(i%accounts), int64((i+1)%accounts)
		if err := transfer(r, fmt.Sprintf("x%d", i), from, to, 5); err != nil {
			t.Fatal(err)
		}
	}
	if r.Metrics().Counter("core.cross_submits").Value() == 0 {
		t.Fatal("no transfer crossed partitions")
	}
	before := logLengths(r)
	want := make([]int64, accounts)
	for a := range want {
		want[a] = balance(r, int64(a))
	}

	r.Stop()
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	if err := r.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if after := logLengths(r); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("log lengths after Stop/Start = %v, want %v (replay did not rebuild the tails record for record)", after, before)
	}
	for a := int64(0); a < accounts; a++ {
		if got := balance(r, a); got != want[a] {
			t.Fatalf("acc %d after Stop/Start = %d, want %d", a, got, want[a])
		}
	}
	// Appends after the restart: a deposit per account, then a transfer
	// between accounts homed on different partitions.
	for a := int64(0); a < accounts; a++ {
		deposit(t, r, fmt.Sprintf("post%d", a), a, 1)
		want[a]++
	}
	to := int64(1)
	for r.PartitionOf(fmt.Sprintf("acc/%d", to)) == r.PartitionOf("acc/0") {
		to++
	}
	if err := transfer(r, "post-x", 0, to, 3); err != nil {
		t.Fatal(err)
	}
	want[0], want[to] = want[0]-3, want[to]+3
	for a := int64(0); a < accounts; a++ {
		if got := balance(r, a); got != want[a] {
			t.Fatalf("acc %d after post-restart appends = %d, want %d", a, got, want[a])
		}
	}
}

// TestReplayRunsTheLiveRequests pins what a disk replay runs: exactly the
// requests the live run executed — the same ids, keys, args, TIDs and
// serialization stamps — over the inputs a JSON member record must carry
// intact: args holding every byte value, an empty key set, keys that need
// escaping, and a cross-partition transaction (a marker). Concurrent
// submissions share group appends, and a Stop/Start with no checkpoint
// replays everything; the log lengths and marker watermarks come back
// unchanged.
func TestReplayRunsTheLiveRequests(t *testing.T) {
	type execution struct {
		keys     []string
		args     []byte
		tid, seq int64
	}
	var mu sync.Mutex
	ran := map[string]execution{}
	r := NewRuntime(mq.NewBroker(), Config{Name: "wal-replay-runs", Partitions: 2, LogDir: t.TempDir()})
	r.Register("record", func(tx *Tx, args []byte) ([]byte, error) {
		keys := make([]string, 0, len(tx.keys))
		for k := range tx.keys {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		mu.Lock()
		ran[tx.ReqID()] = execution{keys: keys, args: bytes.Clone(args), tid: tx.TID()}
		mu.Unlock()
		return nil, nil
	})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)

	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
	}
	esc := []string{"k\n\"<x>&\\", "ü \x00"}
	for r.PartitionOf(esc[1]) != r.PartitionOf(esc[0]) {
		esc[1] += "ü"
	}
	cross := []string{"acc/1", "acc/2"}
	for r.PartitionOf(cross[1]) == r.PartitionOf(cross[0]) {
		cross[1] += "x"
	}
	inputs := []request{
		{ReqID: "bin", Keys: []string{"acc/1"}, Args: all},
		{ReqID: "nokeys", Keys: []string{}},
		{ReqID: `esc"\`, Keys: esc, Args: []byte(`{"a":1}`)},
		{ReqID: "marker", Keys: cross, Args: []byte{0xff, 0}},
	}
	const copies = 8
	want := map[string]request{}
	var wg sync.WaitGroup
	for _, in := range inputs {
		for c := 0; c < copies; c++ {
			req := in
			req.ReqID = fmt.Sprintf("%s/%d", in.ReqID, c)
			want[req.ReqID] = req
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := r.Submit(req.ReqID, "record", req.Keys, req.Args, nil); err != nil {
					t.Error(err)
				}
			}()
		}
	}
	wg.Wait()
	if err := r.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if r.Metrics().Counter("core.cross_sequenced").Value() != copies {
		t.Fatalf("cross_sequenced = %d, want %d", r.Metrics().Counter("core.cross_sequenced").Value(), copies)
	}
	stamps := func() map[string]execution {
		mu.Lock()
		defer mu.Unlock()
		out := make(map[string]execution, len(ran))
		for id, e := range ran {
			e.seq = r.results[id].Seq
			out[id] = e
		}
		clear(ran)
		return out
	}
	markers := func() []int64 {
		out := make([]int64, len(r.logs))
		for i, l := range r.logs {
			l.mu.Lock()
			out[i] = l.markerHi
			l.mu.Unlock()
		}
		return out
	}
	if r.Metrics().Counter("core.grouped_txns").Value() == 0 {
		t.Fatal("no submissions shared a group append")
	}
	live, lengths, his := stamps(), logLengths(r), markers()
	if len(live) != len(want) {
		t.Fatalf("live run executed %d requests, want %d", len(live), len(want))
	}
	for id, req := range want {
		keys := slices.Clone(req.Keys)
		sort.Strings(keys)
		if e := live[id]; !slices.Equal(e.keys, keys) || !bytes.Equal(e.args, req.Args) {
			t.Fatalf("live %q ran keys %q args %x, want keys %q args %x", id, e.keys, e.args, keys, req.Args)
		}
	}

	r.Stop()
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	if err := r.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	replayed := stamps()
	if len(replayed) != len(live) {
		t.Fatalf("replay executed %d requests, want %d", len(replayed), len(live))
	}
	for id, e := range live {
		got := replayed[id]
		if !slices.Equal(got.keys, e.keys) || !bytes.Equal(got.args, e.args) || got.tid != e.tid || got.seq != e.seq {
			t.Fatalf("replayed %q = %+v, want the live execution %+v", id, got, e)
		}
	}
	if got := logLengths(r); !slices.Equal(got, lengths) {
		t.Fatalf("log lengths after replay = %v, want %v", got, lengths)
	}
	if got := markers(); !slices.Equal(got, his) {
		t.Fatalf("marker watermarks after replay = %v, want %v", got, his)
	}
}

// TestDurableLogTailHoldsOnlyUnread pins the disk-backed tail's retention:
// once its reader has scheduled an entry the disk holds it, so a quiesced
// tail is empty while the log's length still counts every append. Crash
// and Recover then rebuild the tails from the disks: the state comes back,
// every handle resolves once, and the tails drain to empty again.
func TestDurableLogTailHoldsOnlyUnread(t *testing.T) {
	const accounts = 8
	r := newWALRuntime(t, "wal-retain", t.TempDir(), 2)
	for a := int64(0); a < accounts; a++ {
		deposit(t, r, fmt.Sprintf("seed%d", a), a, 1000)
	}
	// submit issues n ops from 4 goroutines: deposits, and every fifth a
	// transfer, most of them across the partitions.
	submit := func(prefix string, n int) []*Handle {
		handles := make([]*Handle, n)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < n; i += 4 {
					id, acc := fmt.Sprintf("%s%d", prefix, i), int64(i%accounts)
					fn, keys, args := "deposit", []string{fmt.Sprintf("acc/%d", acc)}, append(i64(1), i64(acc)...)
					if i%5 == 4 {
						to := (acc + 1) % accounts
						fn, keys = "transfer", append(keys, fmt.Sprintf("acc/%d", to))
						args = append(append(i64(1), i64(acc)...), i64(to)...)
					}
					h, err := r.SubmitAsync(id, fn, keys, args, nil)
					if err != nil {
						t.Error(err)
						return
					}
					handles[i] = h
				}
			}(w)
		}
		wg.Wait()
		return handles
	}
	drained := func(when string) {
		t.Helper()
		if err := r.Quiesce(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		for i, l := range r.logs {
			l.tailMu.Lock()
			n := len(l.tail)
			l.tailMu.Unlock()
			if pos, length := l.progress(); n != 0 || pos != length {
				t.Fatalf("%s: log %d holds %d entries at position %d of %d, want none unread", when, i, n, pos, length)
			}
		}
	}
	balances := func() []int64 {
		out := make([]int64, accounts)
		for a := range out {
			out[a] = balance(r, int64(a))
		}
		return out
	}

	if len(submit("a", 500-accounts)) == 0 || t.Failed() {
		t.FailNow()
	}
	drained("after 500 ops")
	// The lengths still count every append: the batcher's groups plus one
	// marker per partition per sequenced transfer, and the gseq log's
	// submissions.
	m := r.Metrics()
	if m.Counter("core.cross_sequenced").Value() == 0 {
		t.Fatal("no transfer crossed partitions")
	}
	lengths := logLengths(r)
	wantPart := m.Counter("core.wal_group_appends").Value() + 2*m.Counter("core.cross_sequenced").Value()
	if got := lengths[0] + lengths[1]; got != wantPart || lengths[2] != m.Counter("core.cross_submits").Value() {
		t.Fatalf("log lengths %v, want partitions summing to %d and gseq %d", lengths, wantPart, m.Counter("core.cross_submits").Value())
	}
	if _, err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	handles := submit("b", 200)
	if t.Failed() {
		t.FailNow()
	}
	if err := r.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	want, lengths := balances(), logLengths(r)
	r.Crash()
	if err := r.Recover(); err != nil {
		t.Fatal(err)
	}
	for i, h := range handles {
		if _, err := h.Result(); err != nil {
			t.Fatalf("handle %d after Crash/Recover: %v", i, err)
		}
	}
	drained("after Crash/Recover")
	if got := balances(); !slices.Equal(got, want) {
		t.Fatalf("balances after Crash/Recover = %v, want %v", got, want)
	}
	if got := logLengths(r); !slices.Equal(got, lengths) {
		t.Fatalf("log lengths after Crash/Recover = %v, want %v", got, lengths)
	}
	r.resMu.Lock()
	left := len(r.waiters)
	r.resMu.Unlock()
	if left != 0 {
		t.Fatalf("%d waiters left after every handle resolved", left)
	}
	var total int64
	for _, b := range want {
		total += b
	}
	// submit's n ops hold (n+1)/5 transfers, and each deposit adds 1.
	if deposits := int64(accounts*1000 + (500 - accounts) - (501-accounts)/5 + 200 - 201/5); total != deposits {
		t.Fatalf("total = %d, want %d (every deposit applied exactly once)", total, deposits)
	}
}
