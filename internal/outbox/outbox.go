// Package outbox implements the transactional outbox pattern — the
// standard answer to §5.2's "coordinating state and messaging": a service
// must atomically (a) commit a state change and (b) publish an event. Two
// separate writes ("dual write") can crash in between, losing the event or
// publishing a phantom for a rolled-back change. The outbox fixes this by
// writing the event into an outbox table *inside the same database
// transaction* as the state change; an asynchronous relay then publishes
// outbox rows to the broker and marks them dispatched.
//
// The relay is at-least-once (crash between publish and mark-dispatched
// redelivers), so events carry unique ids for consumer-side dedup —
// exactly-once end to end is, as always, dedup at the edge (§3.2).
//
// The package also provides DualWriter, the broken pattern, with a
// crash-injection point between the two writes.
package outbox

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tca/internal/mq"
	"tca/internal/store"
)

// ErrCrashInjected is returned by DualWriter when the configured crash
// point fires.
var ErrCrashInjected = errors.New("outbox: injected crash")

// Table is the outbox table name created in the application database.
const Table = "outbox"

// Event is one outbox entry.
type Event struct {
	ID      string `json:"id"`
	Topic   string `json:"topic"`
	Key     string `json:"key"`
	Payload []byte `json:"payload"`
}

// Append stages an event inside the caller's open transaction: it commits
// or aborts together with the business writes. The sequence column makes
// the relay's scan order deterministic.
func Append(tx *store.Txn, seq int64, ev Event) error {
	raw, err := json.Marshal(ev)
	if err != nil {
		return fmt.Errorf("outbox: marshal event: %w", err)
	}
	return tx.Put(Table, fmt.Sprintf("%020d", seq), store.Row{
		"event":      string(raw),
		"dispatched": int64(0),
	})
}

// Relay polls the outbox table and publishes undelivered events.
type Relay struct {
	db     *store.DB
	broker *mq.Broker

	published atomic.Int64
	stop      chan struct{}
	wg        sync.WaitGroup
	startMu   sync.Mutex
	running   bool
}

// NewRelay creates a relay for db's outbox table (created if missing).
func NewRelay(db *store.DB, broker *mq.Broker) *Relay {
	db.CreateTable(Table)
	return &Relay{db: db, broker: broker}
}

// Drain publishes all undispatched events once, synchronously. Returns the
// number published. Crash-safety: publish happens before mark-dispatched,
// so a crash in between causes redelivery, never loss.
func (r *Relay) Drain() (int, error) {
	type rowT struct {
		key string
		ev  Event
	}
	var todo []rowT
	tx := r.db.Begin(store.SnapshotIsolation)
	err := tx.Scan(Table, "", "", func(k string, row store.Row) bool {
		if row.Int("dispatched") == 1 {
			return true
		}
		var ev Event
		if json.Unmarshal([]byte(row.Str("event")), &ev) != nil {
			return true
		}
		todo = append(todo, rowT{key: k, ev: ev})
		return true
	})
	tx.Abort()
	if err != nil {
		return 0, err
	}
	// Deliberately non-idempotent producer: the relay's contract is
	// at-least-once publish with consumer-side dedup by event id.
	p := r.broker.NewProducer("")
	n := 0
	for _, item := range todo {
		if _, _, err := p.SendH(item.ev.Topic, item.ev.Key, item.ev.Payload, map[string]string{"event-id": item.ev.ID}); err != nil {
			return n, err
		}
		// Mark dispatched after the publish (at-least-once).
		err := r.db.Update(func(tx *store.Txn) error {
			row, ok, err := tx.Get(Table, item.key)
			if err != nil || !ok {
				return err
			}
			row = row.Clone() // the store's row is shared: change a copy
			row["dispatched"] = int64(1)
			return tx.Put(Table, item.key, row)
		})
		if err != nil {
			return n, err
		}
		n++
		r.published.Add(1)
	}
	return n, nil
}

// Start polls Drain in the background until Stop.
func (r *Relay) Start(interval time.Duration) {
	r.startMu.Lock()
	defer r.startMu.Unlock()
	if r.running {
		return
	}
	r.running = true
	r.stop = make(chan struct{})
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for {
			select {
			case <-r.stop:
				return
			case <-time.After(interval):
				r.Drain()
			}
		}
	}()
}

// Stop halts background polling.
func (r *Relay) Stop() {
	r.startMu.Lock()
	defer r.startMu.Unlock()
	if !r.running {
		return
	}
	r.running = false
	close(r.stop)
	r.wg.Wait()
}

// Published returns the number of events published so far.
func (r *Relay) Published() int64 { return r.published.Load() }

// CrashPoint selects where DualWriter fails.
type CrashPoint int

// Crash points of the dual-write anti-pattern.
const (
	NoCrash CrashPoint = iota
	// CrashAfterDB: state committed, event never published — lost event.
	CrashAfterDB
	// CrashAfterPublish: event published, state rolled back — phantom
	// event describing a change that never happened.
	CrashAfterPublish
)

// DualWriter performs the broken two-separate-writes pattern, with an
// injectable crash between the two writes.
type DualWriter struct {
	DB     *store.DB
	Broker *mq.Broker
}

// Write commits the business row and publishes the event as two separate
// operations, crashing at the configured point.
func (w *DualWriter) Write(table, key string, row store.Row, ev Event, crash CrashPoint) error {
	if crash == CrashAfterPublish {
		// Publish first, then "crash" before the DB commit.
		p := w.Broker.NewProducer("")
		if _, _, err := p.SendH(ev.Topic, ev.Key, ev.Payload, map[string]string{"event-id": ev.ID}); err != nil {
			return err
		}
		return fmt.Errorf("%w: after publish, before db commit", ErrCrashInjected)
	}
	err := w.DB.Update(func(tx *store.Txn) error {
		return tx.Put(table, key, row)
	})
	if err != nil {
		return err
	}
	if crash == CrashAfterDB {
		return fmt.Errorf("%w: after db commit, before publish", ErrCrashInjected)
	}
	p := w.Broker.NewProducer("")
	_, _, err = p.SendH(ev.Topic, ev.Key, ev.Payload, map[string]string{"event-id": ev.ID})
	return err
}

// TransactionalWrite is the correct pattern: business row and outbox entry
// in one transaction; the relay publishes later.
func TransactionalWrite(db *store.DB, seq int64, table, key string, row store.Row, ev Event) error {
	return db.Update(func(tx *store.Txn) error {
		if err := tx.Put(table, key, row); err != nil {
			return err
		}
		return Append(tx, seq, ev)
	})
}
