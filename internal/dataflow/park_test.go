package dataflow

import (
	"fmt"
	"testing"
	"time"

	"tca/internal/mq"
)

// idleJob starts a counter job over a 4-partition topic, feeds it a few
// records and waits until it has processed them.
func idleJob(t *testing.T) *Job {
	t.Helper()
	b := mq.NewBroker()
	b.CreateTopic("in", 4)
	j := NewJob(b, Config{Name: "idle"}).Source("in").Stage("count", 4, counterStage).SinkTo("out")
	b.CreateTopic("out", 1)
	if err := j.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		produce(t, b, "in", fmt.Sprintf("k%d", i), 1)
	}
	waitIdle(t, j)
	parks := j.Metrics().Counter("dataflow.idle_parks")
	for deadline := time.Now().Add(5 * time.Second); parks.Value() < 4; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d parks after 5 s on a 4-partition job", parks.Value())
		}
	}
	return j
}

// within runs f and fails the test unless it returns inside d.
func within(t *testing.T, what string, d time.Duration, f func()) {
	t.Helper()
	done := make(chan struct{})
	start := time.Now()
	go func() { f(); close(done) }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not return within %v", what, d)
	}
	t.Logf("%s took %v", what, time.Since(start))
}

func TestParkedJobAnswersCheckpointAndStop(t *testing.T) {
	j := idleJob(t)
	within(t, "TriggerCheckpoint", time.Second, func() {
		if _, err := j.TriggerCheckpoint(); err != nil {
			t.Error(err)
		}
	})
	within(t, "Stop", time.Second, j.Stop)
}

func TestWaitIdleOnIdleJobReturnsAtOnce(t *testing.T) {
	j := idleJob(t)
	defer j.Stop()
	within(t, "WaitIdle", 100*time.Millisecond, func() {
		if err := j.WaitIdle(10 * time.Second); err != nil {
			t.Error(err)
		}
	})
}

// TestWaitIdleReleasedByStop: a job stopped with records left unprocessed
// parks no instance, so only the halt can wake a WaitIdle caller.
func TestWaitIdleReleasedByStop(t *testing.T) {
	b := mq.NewBroker()
	b.CreateTopic("in", 1)
	release := make(chan struct{})
	j := NewJob(b, Config{}).Source("in").Stage("block", 1, func(ctx *OpCtx, rec Record) {
		if rec.Offset == 0 {
			<-release
		}
	}).Sink(func(Record) {})
	if err := j.Start(); err != nil {
		t.Fatal(err)
	}
	// After each batch a stopping instance picks the stop or the next
	// batch at random, so it stops with records left all but surely.
	for i := 0; i < 16*pollBatch; i++ {
		produce(t, b, "in", "k", 1)
	}
	idle := make(chan error, 1)
	go func() { idle <- j.WaitIdle(10 * time.Second) }()
	time.Sleep(10 * time.Millisecond) // WaitIdle sees the lag and waits
	stopped := make(chan struct{})
	go func() { j.Stop(); close(stopped) }()
	time.Sleep(10 * time.Millisecond) // the stop is requested before the batch ends
	close(release)
	<-stopped
	select {
	case err := <-idle:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("WaitIdle not released by Stop")
	}
}

// TestIdleJobDoesNotSpin: once the job is idle and nothing is appended,
// each instance parks at most once more (if it had not yet parked after
// its last record) and then stays parked.
func TestIdleJobDoesNotSpin(t *testing.T) {
	j := idleJob(t)
	defer j.Stop()
	parks := j.Metrics().Counter("dataflow.idle_parks")
	before := parks.Value()
	time.Sleep(20 * time.Millisecond)
	if n := parks.Value() - before; n > 4 {
		t.Fatalf("%d parks over 20 ms on an idle 4-partition job, want at most 4", n)
	}
}
