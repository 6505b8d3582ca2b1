package mq

import (
	"sync"
	"testing"
	"time"
)

// closed reports whether ch is closed, waiting at most d for it.
func closed(ch <-chan struct{}, d time.Duration) bool {
	select {
	case <-ch:
		return true
	default:
	}
	select {
	case <-ch:
		return true
	case <-time.After(d):
		return false
	}
}

func grown(t *testing.T, b *Broker, tp TopicPartition, offset int64) <-chan struct{} {
	t.Helper()
	ch, err := b.Grown(tp, offset)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

func TestGrownClosedWhenOffsetExists(t *testing.T) {
	b := newTopicBroker(t, "t", 1)
	tp := TopicPartition{Topic: "t"}
	if _, err := b.Produce(tp, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if !closed(grown(t, b, tp, 0), 0) {
		t.Fatal("Grown(0) on a partition holding offset 0 is not closed")
	}
	if closed(grown(t, b, tp, 1), 10*time.Millisecond) {
		t.Fatal("Grown(1) on a partition of one record is closed")
	}
	if _, err := b.Grown(TopicPartition{Topic: "t", Partition: 1}, 0); err == nil {
		t.Fatal("Grown on a missing partition: no error")
	}
}

// TestGrownEveryAppendPath parks on an empty partition and requires each
// append path to close the wakeup.
func TestGrownEveryAppendPath(t *testing.T) {
	paths := map[string]func(b *Broker) error{
		"Produce": func(b *Broker) error {
			_, err := b.Produce(TopicPartition{Topic: "t"}, "k", []byte("v"))
			return err
		},
		"ProduceIdempotent": func(b *Broker) error {
			_, err := b.ProduceIdempotent("t", "k", []byte("v"), "p", 1)
			return err
		},
		"Producer.Send": func(b *Broker) error {
			_, _, err := b.NewProducer("p").Send("t", "k", []byte("v"))
			return err
		},
		"transactional Commit": func(b *Broker) error {
			p := b.NewTransactionalProducer("tx")
			if err := p.Begin(); err != nil {
				return err
			}
			if _, _, err := p.Send("t", "k", []byte("v")); err != nil {
				return err
			}
			return p.Commit()
		},
	}
	for name, produce := range paths {
		t.Run(name, func(t *testing.T) {
			b := newTopicBroker(t, "t", 1)
			ch := grown(t, b, TopicPartition{Topic: "t"}, 0)
			if closed(ch, 0) {
				t.Fatal("closed before any append")
			}
			if err := produce(b); err != nil {
				t.Fatal(err)
			}
			if !closed(ch, time.Second) {
				t.Fatal("append did not close the wakeup")
			}
		})
	}
}

func TestGrownNotClosedByDuplicate(t *testing.T) {
	b := newTopicBroker(t, "t", 1)
	tp := TopicPartition{Topic: "t"}
	if ok, err := b.ProduceIdempotent("t", "k", []byte("v"), "p", 7); err != nil || !ok {
		t.Fatalf("first produce: appended %v, %v", ok, err)
	}
	ch := grown(t, b, tp, 1)
	if ok, err := b.ProduceIdempotent("t", "k", []byte("v"), "p", 7); err != nil || ok {
		t.Fatalf("duplicate produce: appended %v, %v", ok, err)
	}
	if closed(ch, 10*time.Millisecond) {
		t.Fatal("a deduplicated produce closed the wakeup")
	}
}

func TestGrownWakesEveryWaiter(t *testing.T) {
	b := newTopicBroker(t, "t", 1)
	tp := TopicPartition{Topic: "t"}
	const waiters = 8
	var parked, woken sync.WaitGroup
	parked.Add(waiters)
	woken.Add(waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			defer woken.Done()
			ch, err := b.Grown(tp, 0)
			parked.Done()
			if err != nil {
				t.Error(err)
				return
			}
			<-ch
		}()
	}
	parked.Wait()
	if _, err := b.Produce(tp, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { woken.Wait(); close(done) }()
	if !closed(done, 5*time.Second) {
		t.Fatal("not every waiter was woken")
	}
}
