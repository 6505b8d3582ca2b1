package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
)

// TestFollowerExecutesLeaderLog pins Runtime.Follow: a follower of a
// two-partition leader executes the leader's single- and cross-partition
// transactions in the leader's order, through a crash and recovery in the
// middle of the stream, and an Await on the crashed follower resolves once
// it has recovered.
func TestFollowerExecutesLeaderLog(t *testing.T) {
	const accounts, submitters, perPhase = 8, 4, 30
	leader := newBankRuntimeParts(t, "leader", 2)
	follower := newBankRuntimeParts(t, "follower", 2)
	if err := follower.Follow(newBankRuntimeParts(t, "three", 3)); err == nil {
		t.Fatal("Follow accepted a leader with another partition count")
	}
	if err := follower.Follow(leader); err != nil {
		t.Fatal(err)
	}

	// Each submitter alternates deposits with transfers between accounts it
	// walks through, so both partitions and the gseq path see traffic.
	// midway closes after submitter 0's tenth op.
	run := func(phase string, midway chan struct{}) {
		var wg sync.WaitGroup
		for s := 0; s < submitters; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perPhase; i++ {
					id := fmt.Sprintf("%s-%d-%d", phase, s, i)
					a, b := int64((s+i)%accounts), int64((s+3*i+1)%accounts)
					var err error
					if i%2 == 0 {
						args := append(i64(10), i64(a)...)
						_, err = leader.Submit(id, "deposit", []string{fmt.Sprintf("acc/%d", a)}, args, nil)
					} else {
						err = transfer(leader, id, a, b, 7)
					}
					// Insufficient funds aborts, the same way on both runtimes.
					if err != nil && !errors.Is(err, ErrAborted) {
						t.Errorf("%s: %v", id, err)
					}
					if s == 0 && i == 9 && midway != nil {
						close(midway)
					}
				}
			}()
		}
		wg.Wait()
	}

	run("p1", nil)
	if _, err := follower.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	midway := make(chan struct{})
	done := make(chan struct{})
	go func() { defer close(done); run("p2", midway) }()
	<-midway
	follower.Crash()
	last := fmt.Sprintf("p2-%d-%d", submitters-1, perPhase-2) // a deposit: it commits
	h := follower.Await(last)
	<-done
	select {
	case <-h.Done():
		t.Fatal("Await resolved on a crashed follower")
	case <-time.After(10 * time.Millisecond):
	}
	if err := follower.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Result(); err != nil {
		t.Fatalf("Await(%s) after Recover: %v", last, err)
	}
	run("p3", nil)

	for _, r := range []*Runtime{leader, follower} {
		if err := r.Quiesce(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if n := leader.Metrics().Counter("core.cross_sequenced").Value(); n == 0 {
		t.Fatal("no cross-partition transaction was sequenced")
	}
	for a := int64(0); a < accounts; a++ {
		if l, f := balance(leader, a), balance(follower, a); l != f {
			t.Errorf("acc/%d: leader %d, follower %d", a, l, f)
		}
	}
	lc, fc := leader.Committed(), follower.Committed()
	if len(lc) < submitters*perPhase*3/2 {
		t.Fatalf("leader committed %d transactions, want at least every deposit", len(lc))
	}
	if !slices.Equal(lc, fc) {
		t.Fatalf("commit orders differ: leader %d ids, follower %d ids", len(lc), len(fc))
	}
}
