package wal

import (
	"errors"
	"testing"
	"time"
)

// The sync-watermark suite: DurableIndex/WaitDurable must track exactly
// what a crash cannot take back — everything at or below the watermark
// survived an fsync (or needs none).

// DurableIndex returns the sync watermark: every record with index below
// it has been covered by an fsync. Under SyncOnAppend it always equals
// Len(); under SyncInterval it trails Len() by up to one flush period —
// the gap WaitDurable exists to close.
func (l *Log) DurableIndex() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durable
}

func TestDurableIndexTracksSyncOnAppend(t *testing.T) {
	l := openT(t, t.TempDir(), Options{SyncOnAppend: true})
	defer l.Close()
	if _, err := l.AppendBatch([][]byte{[]byte("a"), []byte("b"), []byte("c")}); err != nil {
		t.Fatal(err)
	}
	if got, want := l.DurableIndex(), l.Len(); got != want {
		t.Fatalf("DurableIndex = %d, want %d (sync-on-append acks are durable)", got, want)
	}
	if err := l.WaitDurable(l.Len(), nil); err != nil {
		t.Fatalf("WaitDurable on an already-durable index: %v", err)
	}
}

// TestDurableIndexLagsUntilSync opens the log with a flusher interval far
// beyond the test's lifetime: appends are written but not synced, so the
// watermark must lag Len() — the window where an acknowledged-too-early
// record could be lost — until an explicit Sync closes it.
func TestDurableIndexLagsUntilSync(t *testing.T) {
	l := openT(t, t.TempDir(), Options{SyncInterval: time.Hour})
	defer l.Close()
	for i := 0; i < 3; i++ {
		if _, err := l.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.DurableIndex(); got != 0 {
		t.Fatalf("DurableIndex before any sync = %d, want 0", got)
	}
	// A canceled wait must return ErrCanceled, not block or succeed.
	cancel := make(chan struct{})
	close(cancel)
	if err := l.WaitDurable(l.Len(), cancel); !errors.Is(err, ErrCanceled) {
		t.Fatalf("WaitDurable with closed cancel = %v, want ErrCanceled", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got, want := l.DurableIndex(), l.Len(); got != want {
		t.Fatalf("DurableIndex after Sync = %d, want %d", got, want)
	}
	if err := l.WaitDurable(l.Len(), nil); err != nil {
		t.Fatalf("WaitDurable after Sync: %v", err)
	}
}

// TestWaitDurableUnblocksOnIntervalSync parks a waiter behind the
// watermark and lets the background flusher advance it.
func TestWaitDurableUnblocksOnIntervalSync(t *testing.T) {
	l := openT(t, t.TempDir(), Options{SyncInterval: 10 * time.Millisecond})
	defer l.Close()
	if _, err := l.Append([]byte("y")); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- l.WaitDurable(l.Len(), nil) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("WaitDurable: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitDurable never unblocked on the interval sync")
	}
	if got, want := l.DurableIndex(), l.Len(); got != want {
		t.Fatalf("DurableIndex after interval sync = %d, want %d", got, want)
	}
}

func TestWaitDurableAfterClose(t *testing.T) {
	l := openT(t, t.TempDir(), Options{SyncInterval: time.Hour})
	l.Append([]byte("z"))
	end := l.Len()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Close syncs, so the appended record is durable; waiting past the end
	// of a closed log must fail fast instead of blocking forever.
	if err := l.WaitDurable(end+1, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("WaitDurable past the end of a closed log = %v, want ErrClosed", err)
	}
}
