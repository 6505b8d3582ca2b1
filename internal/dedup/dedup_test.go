package dedup

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newWithClock creates a store with a custom time source, so TTL expiry is
// deterministic.
func newWithClock(ttl time.Duration, now func() time.Time) *Store {
	s := New(ttl)
	s.now = now
	return s
}

func TestDoFirstExecutesThenDedups(t *testing.T) {
	s := New(0)
	calls := 0
	fn := func() ([]byte, error) { calls++; return []byte("r"), nil }
	r1, dup1, err1 := s.Do("key", fn)
	r2, dup2, err2 := s.Do("key", fn)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if dup1 || !dup2 {
		t.Fatalf("dup flags = %v, %v; want false, true", dup1, dup2)
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	if string(r1) != "r" || string(r2) != "r" {
		t.Fatalf("responses %q, %q", r1, r2)
	}
}

func TestErrorsAreRecordedToo(t *testing.T) {
	s := New(0)
	sentinel := errors.New("boom")
	calls := 0
	fn := func() ([]byte, error) { calls++; return nil, sentinel }
	_, _, err1 := s.Do("k", fn)
	_, dup, err2 := s.Do("k", fn)
	if !errors.Is(err1, sentinel) || !errors.Is(err2, sentinel) {
		t.Fatalf("errors = %v, %v", err1, err2)
	}
	if !dup || calls != 1 {
		t.Fatalf("dup=%v calls=%d; failed results must be replayed, not re-run", dup, calls)
	}
}

func TestDistinctKeysIndependent(t *testing.T) {
	s := New(0)
	calls := 0
	fn := func() ([]byte, error) { calls++; return nil, nil }
	s.Do("a", fn)
	s.Do("b", fn)
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
}

func TestTTLExpiry(t *testing.T) {
	now := time.Unix(0, 0)
	s := newWithClock(time.Minute, func() time.Time { return now })
	calls := 0
	fn := func() ([]byte, error) { calls++; return nil, nil }
	s.Do("k", fn)
	now = now.Add(30 * time.Second)
	s.Do("k", fn)
	if calls != 1 {
		t.Fatalf("inside window: calls = %d, want 1", calls)
	}
	now = now.Add(2 * time.Minute)
	s.Do("k", fn)
	if calls != 2 {
		t.Fatalf("after expiry: calls = %d, want 2 (dedup horizon is bounded)", calls)
	}
}

func TestSweep(t *testing.T) {
	now := time.Unix(0, 0)
	s := newWithClock(time.Minute, func() time.Time { return now })
	s.Save("a", nil, nil)
	s.Save("b", nil, nil)
	now = now.Add(2 * time.Minute)
	s.Save("c", nil, nil)
	if n := s.Sweep(); n != 2 {
		t.Fatalf("Sweep removed %d, want 2", n)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestStats(t *testing.T) {
	s := New(0)
	fn := func() ([]byte, error) { return nil, nil }
	s.Do("k", fn)
	s.Do("k", fn)
	s.Do("k2", fn)
	hits, misses := s.Stats()
	if hits != 1 || misses != 2 {
		t.Fatalf("stats = %d hits, %d misses; want 1, 2", hits, misses)
	}
}

func TestDoLockedSerializesConcurrentDuplicates(t *testing.T) {
	s := New(0)
	var calls atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	fn := func() ([]byte, error) {
		calls.Add(1)
		close(started)
		<-release
		return []byte("once"), nil
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.DoLocked("k", fn)
	}()
	<-started
	// Concurrent duplicate arrives while the first is executing.
	results := make(chan string, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, dup, _ := s.DoLocked("k", func() ([]byte, error) {
				calls.Add(1)
				return []byte("again"), nil
			})
			if !dup {
				t.Error("concurrent duplicate not flagged as dup")
			}
			results <- string(r)
		}()
	}
	close(release)
	wg.Wait()
	close(results)
	for r := range results {
		if r != "once" {
			t.Fatalf("duplicate got %q, want the first execution's result", r)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("fn ran %d times, want 1", calls.Load())
	}
}

func TestDoLockedSequentialHit(t *testing.T) {
	s := New(0)
	s.DoLocked("k", func() ([]byte, error) { return []byte("v"), nil })
	r, dup, _ := s.DoLocked("k", func() ([]byte, error) { return []byte("other"), nil })
	if !dup || string(r) != "v" {
		t.Fatalf("got %q dup=%v", r, dup)
	}
}

func TestCheckSaveRoundTrip(t *testing.T) {
	s := New(0)
	if _, _, seen := s.Check("k"); seen {
		t.Fatal("unseen key reported seen")
	}
	s.Save("k", []byte("resp"), nil)
	r, err, seen := s.Check("k")
	if !seen || err != nil || string(r) != "resp" {
		t.Fatalf("Check = %q,%v,%v", r, err, seen)
	}
}

func TestConcurrentDistinctKeys(t *testing.T) {
	s := New(0)
	var wg sync.WaitGroup
	var calls atomic.Int32
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := string(rune('a' + i%4))
			for j := 0; j < 100; j++ {
				s.Do(key, func() ([]byte, error) {
					calls.Add(1)
					return nil, nil
				})
			}
		}(i)
	}
	wg.Wait()
	// At most a handful of executions per key (races in plain Do are
	// allowed); far fewer than the 1600 calls issued.
	if calls.Load() > 64 {
		t.Fatalf("fn ran %d times; dedup ineffective", calls.Load())
	}
}
