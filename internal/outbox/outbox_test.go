package outbox

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"tca/internal/dedup"
	"tca/internal/mq"
	"tca/internal/store"
)

func newEnv() (*store.DB, *mq.Broker) {
	db := store.NewDB(store.Config{Name: "app"})
	db.CreateTable("orders")
	db.CreateTable(Table)
	broker := mq.NewBroker()
	broker.CreateTopic("events", 1)
	return db, broker
}

func countEvents(t *testing.T, b *mq.Broker) int64 {
	t.Helper()
	hw, err := b.HighWater(mq.TopicPartition{Topic: "events", Partition: 0})
	if err != nil {
		t.Fatal(err)
	}
	return hw
}

func orderExists(db *store.DB, key string) bool {
	tx := db.Begin(store.ReadCommitted)
	defer tx.Abort()
	_, ok, _ := tx.Get("orders", key)
	return ok
}

func TestTransactionalWriteThenDrain(t *testing.T) {
	db, broker := newEnv()
	relay := NewRelay(db, broker)
	ev := Event{ID: "e1", Topic: "events", Key: "o1", Payload: []byte("created")}
	if err := TransactionalWrite(db, 1, "orders", "o1", store.Row{"total": int64(10)}, ev); err != nil {
		t.Fatal(err)
	}
	// Event invisible until the relay runs.
	if n := countEvents(t, broker); n != 0 {
		t.Fatalf("events before drain = %d", n)
	}
	n, err := relay.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("Drain = %d, want 1", n)
	}
	if n := countEvents(t, broker); n != 1 {
		t.Fatalf("events after drain = %d, want 1", n)
	}
}

func TestDrainIdempotentOnDispatched(t *testing.T) {
	db, broker := newEnv()
	relay := NewRelay(db, broker)
	TransactionalWrite(db, 1, "orders", "o1", store.Row{}, Event{ID: "e1", Topic: "events", Key: "k"})
	relay.Drain()
	n, _ := relay.Drain()
	if n != 0 {
		t.Fatalf("second Drain = %d, want 0", n)
	}
	if got := countEvents(t, broker); got != 1 {
		t.Fatalf("events = %d, want 1", got)
	}
}

func TestDrainOrder(t *testing.T) {
	db, broker := newEnv()
	relay := NewRelay(db, broker)
	for i := 0; i < 5; i++ {
		TransactionalWrite(db, int64(i), "orders", fmt.Sprintf("o%d", i), store.Row{},
			Event{ID: fmt.Sprintf("e%d", i), Topic: "events", Key: "same", Payload: []byte{byte(i)}})
	}
	relay.Drain()
	c, _ := broker.NewConsumer("check", mq.AtLeastOnce, "events")
	msgs, _ := c.Poll(10)
	if len(msgs) != 5 {
		t.Fatalf("events = %d, want 5", len(msgs))
	}
	for i, m := range msgs {
		if m.Value[0] != byte(i) {
			t.Fatalf("event %d out of order: %v", i, m.Value)
		}
	}
}

func TestAbortedTxnLeavesNoOutboxEntry(t *testing.T) {
	db, broker := newEnv()
	relay := NewRelay(db, broker)
	tx := db.Begin(store.Serializable)
	tx.Put("orders", "o-never", store.Row{})
	Append(tx, 1, Event{ID: "ghost", Topic: "events", Key: "k"})
	tx.Abort()
	n, _ := relay.Drain()
	if n != 0 {
		t.Fatalf("Drain published %d events from an aborted txn", n)
	}
	if orderExists(db, "o-never") {
		t.Fatal("aborted order visible")
	}
}

func TestBackgroundRelay(t *testing.T) {
	db, broker := newEnv()
	relay := NewRelay(db, broker)
	relay.Start(time.Millisecond)
	defer relay.Stop()
	TransactionalWrite(db, 1, "orders", "o1", store.Row{}, Event{ID: "e1", Topic: "events", Key: "k"})
	deadline := time.After(5 * time.Second)
	for countEvents(t, broker) == 0 {
		select {
		case <-deadline:
			t.Fatal("background relay never published")
		case <-time.After(time.Millisecond):
		}
	}
}

func TestDualWriteLosesEventOnCrashAfterDB(t *testing.T) {
	db, broker := newEnv()
	w := &DualWriter{DB: db, Broker: broker}
	err := w.Write("orders", "o1", store.Row{"total": int64(5)},
		Event{ID: "e1", Topic: "events", Key: "k"}, CrashAfterDB)
	if !errors.Is(err, ErrCrashInjected) {
		t.Fatalf("err = %v", err)
	}
	// Anomaly: state committed, event lost forever.
	if !orderExists(db, "o1") {
		t.Fatal("order should be committed")
	}
	if n := countEvents(t, broker); n != 0 {
		t.Fatalf("events = %d, want 0 (lost)", n)
	}
}

func TestDualWritePhantomEventOnCrashAfterPublish(t *testing.T) {
	db, broker := newEnv()
	w := &DualWriter{DB: db, Broker: broker}
	err := w.Write("orders", "o2", store.Row{},
		Event{ID: "e2", Topic: "events", Key: "k"}, CrashAfterPublish)
	if !errors.Is(err, ErrCrashInjected) {
		t.Fatalf("err = %v", err)
	}
	// Anomaly: event visible, state never committed.
	if orderExists(db, "o2") {
		t.Fatal("order should not exist")
	}
	if n := countEvents(t, broker); n != 1 {
		t.Fatalf("events = %d, want 1 (phantom)", n)
	}
}

func TestOutboxClosesBothAnomalies(t *testing.T) {
	// Same crash schedule as the dual-write tests, but with the outbox the
	// state and the (pending) event commit atomically; the relay is the
	// only publisher, so no phantom and no loss.
	db, broker := newEnv()
	relay := NewRelay(db, broker)

	// Case 1 analogue: "crash" before relay runs -> event still pending,
	// published by the next relay run. Nothing lost.
	TransactionalWrite(db, 1, "orders", "o1", store.Row{}, Event{ID: "e1", Topic: "events", Key: "k"})
	relay.Drain()
	if n := countEvents(t, broker); n != 1 {
		t.Fatalf("events = %d, want 1", n)
	}

	// Case 2 analogue: business txn aborts -> no outbox row -> no phantom.
	tx := db.Begin(store.Serializable)
	tx.Put("orders", "o2", store.Row{})
	Append(tx, 2, Event{ID: "e2", Topic: "events", Key: "k"})
	tx.Abort()
	relay.Drain()
	if n := countEvents(t, broker); n != 1 {
		t.Fatalf("events = %d, want still 1", n)
	}
}

func TestRelayRedeliveryConsumerDedup(t *testing.T) {
	// Crash between publish and mark-dispatched: the relay re-publishes.
	// The consumer dedups by event id — the end-to-end exactly-once recipe.
	db, broker := newEnv()
	relay := NewRelay(db, broker)
	TransactionalWrite(db, 1, "orders", "o1", store.Row{}, Event{ID: "e1", Topic: "events", Key: "k"})
	relay.Drain()
	// Simulate "crash before mark" by resetting the dispatched flag.
	db.Update(func(tx *store.Txn) error {
		var firstKey string
		tx.Scan(Table, "", "", func(k string, row store.Row) bool { firstKey = k; return false })
		row, _, _ := tx.Get(Table, firstKey)
		row = row.Clone()
		row["dispatched"] = int64(0)
		return tx.Put(Table, firstKey, row)
	})
	relay.Drain() // re-publishes e1
	if n := countEvents(t, broker); n != 2 {
		t.Fatalf("raw events = %d, want 2 (at-least-once)", n)
	}
	// Consumer-side dedup by event-id header.
	c, _ := broker.NewConsumer("app", mq.AtLeastOnce, "events")
	seen := dedup.New(0)
	unique := 0
	for {
		msgs, _ := c.Poll(10)
		if msgs == nil {
			break
		}
		for _, m := range msgs {
			seen.Do(m.Headers["event-id"], func() ([]byte, error) {
				unique++
				return nil, nil
			})
		}
		c.Ack()
	}
	if unique != 1 {
		t.Fatalf("unique events = %d, want 1", unique)
	}
}
