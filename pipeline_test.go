package tca

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// Tests for what the one submit pipeline (cell.go) promises on every
// programming model, in one place: the unknown-op answer, a body reading
// its own writes through the write record, and the write observer.

// executorOf returns the executor under a cell this package deployed — the
// in-package accessor for tests that assert on one model's internals.
func executorOf(c Cell) executor { return c.(*cell).exec }

// rywApp is a two-op App. "ryw" runs every write verb and reads its own
// writes back in between: Add, Get, Put (of a value derived from that Get),
// three PushCaps through a cap of 2, Get. Its result is what the two Gets
// saw. "slow" is slowBumpApp's op: slow enough to pile submissions up
// behind a bounded queue.
func rywApp() *App {
	keys := []string{"a", "b", "l"}
	return slowBumpApp(2 * time.Millisecond).with(Op{
		Name: "ryw",
		Keys: func([]byte) []string { return keys },
		Body: func(tx Txn, _ []byte) ([]byte, error) {
			if err := tx.Add("a", 5); err != nil {
				return nil, err
			}
			a, _, err := tx.Get("a")
			if err != nil {
				return nil, err
			}
			if err := tx.Put("b", EncodeInt(2*DecodeInt(a))); err != nil {
				return nil, err
			}
			for _, id := range []int64{7, 9, 8} {
				if err := tx.PushCap("l", id, 2); err != nil {
					return nil, err
				}
			}
			l, _, err := tx.Get("l")
			if err != nil {
				return nil, err
			}
			return bytes.Join([][]byte{a, l}, []byte("|")), nil
		},
	})
}

// observed collects a cell's write observer calls: the latest write-set
// per request id, which is the execution that committed.
type observed struct {
	mu   sync.Mutex
	sets map[string][]write
}

func (o *observed) observe(reqID, _ string, writes []write) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.sets == nil {
		o.sets = make(map[string][]write)
	}
	o.sets[reqID] = append([]write(nil), writes...)
}

func (o *observed) get(reqID string) ([]write, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	set, ok := o.sets[reqID]
	return set, ok
}

func TestPipelineConformanceAllCells(t *testing.T) {
	app := rywApp()
	rywOp, _ := app.Op("ryw")
	// The independent reference: the same body, twice, over the auditor's
	// serial map — which spells the verbs out on its own (audit.go).
	ref := make(mapTxn)
	var wantRes [2][]byte
	for i := range wantRes {
		res, err := rywOp.Body(ref, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantRes[i] = res
	}
	wantWrites := []write{
		{Key: "a", Verb: verbAdd, Delta: 5},
		{Key: "b", Val: EncodeInt(20)}, // second run: a = 10
		{Key: "l", Verb: verbPush, ID: 7, Cap: 2},
		{Key: "l", Verb: verbPush, ID: 9, Cap: 2},
		{Key: "l", Verb: verbPush, ID: 8, Cap: 2},
	}

	for _, model := range allModels {
		t.Run(model.String(), func(t *testing.T) {
			var obs observed
			c, err := deploy(model, app, NewEnv(13, 3),
				Options{Clients: 1, Workers: 1, MaxPending: 1, SequenceDelay: 2 * time.Millisecond}, obs.observe)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			// An unknown op is answered at the door with the one unknown-op
			// error, and takes nothing from the bound of 1: after a hundred
			// of them the cell still admits a real op.
			wantErr := opError(app, "nope").Error()
			for i := 0; i < 100; i++ {
				h := c.Submit(fmt.Sprintf("u%d", i), "nope", nil, nil)
				select {
				case <-h.Done():
				default:
					t.Fatal("unknown op did not resolve synchronously")
				}
				if _, err := h.Result(); err == nil || err.Error() != wantErr {
					t.Fatalf("unknown op: err = %v, want %q", err, wantErr)
				}
			}
			if _, err := c.Invoke("u-invoke", "nope", nil, nil); err == nil || err.Error() != wantErr {
				t.Fatalf("unknown op via Invoke: err = %v, want %q", err, wantErr)
			}

			// A body reads its own writes identically on every cell, and the
			// cell settles to the reference's values.
			for i, want := range wantRes {
				got, err := c.Submit(fmt.Sprintf("ryw%d", i), "ryw", nil, nil).Result()
				if err != nil {
					t.Fatalf("ryw %d: %v", i, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("ryw %d saw %q, reference saw %q", i, got, want)
				}
				if err := c.Settle(); err != nil {
					t.Fatal(err)
				}
			}
			for _, k := range []string{"a", "b", "l"} {
				got, found, err := c.Read(k)
				if err != nil || !found || !bytes.Equal(got, ref[k]) {
					t.Errorf("settled %s = %q (found=%v, err=%v), reference %q", k, got, found, err, ref[k])
				}
			}
			if set, _ := obs.get("ryw1"); !reflect.DeepEqual(set, wantWrites) {
				t.Errorf("observer saw %+v for ryw1, want %+v", set, wantWrites)
			}

			// A shed submission never reaches the observer; an applied one
			// always has.
			const burst = 32
			var wg sync.WaitGroup
			errs := make([]error, burst)
			for i := range errs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					_, errs[i] = c.Submit(fmt.Sprintf("s%d", i), "bump", nil, nil).Result()
				}(i)
			}
			wg.Wait()
			var shed int
			for i, err := range errs {
				_, seen := obs.get(fmt.Sprintf("s%d", i))
				switch {
				case errors.Is(err, ErrOverloaded):
					shed++
					if seen {
						t.Errorf("shed submission s%d reached the write observer", i)
					}
				case err != nil:
					t.Fatalf("submission s%d failed with a non-shed error: %v", i, err)
				case !seen:
					t.Errorf("applied submission s%d never reached the write observer", i)
				}
			}
			if shed == 0 {
				t.Fatal("no submissions shed through a bound of 1")
			}
		})
	}
}
