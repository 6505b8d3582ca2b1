package statefun

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// FuzzEnvelopeFrame: an envelope's frame decodes to the envelope, and
// arbitrary bytes decode to an error or to an envelope whose own frame
// decodes to it again, and never panic.
func FuzzEnvelopeFrame(f *testing.F) {
	e := envelope{To: Ref{"key", "stock/1/2"}, From: Ref{"txn", "r7"}, Payload: []byte{1, 2, 3}}
	frame := e.encode()
	f.Add(frame, "key", "stock/1/2", "txn", "r7", []byte{1, 2, 3})
	f.Add(frame[:3], "", "", "", "", []byte(nil))
	f.Add([]byte{0x80}, "counter", strings.Repeat("x", 200), "", "", []byte{})
	f.Add([]byte{0, 0, 0, 0}, "a", "b", "c", "d", []byte("p"))
	f.Fuzz(func(t *testing.T, raw []byte, toType, toID, fromType, fromID string, payload []byte) {
		if got, ok := decodeEnvelope(raw); ok {
			again, ok := decodeEnvelope(got.encode())
			if !ok || !sameEnvelope(again, got) {
				t.Fatalf("%x: decoded %+v, re-encoded decodes to %+v (ok=%v)", raw, got, again, ok)
			}
		}
		want := envelope{To: Ref{toType, toID}, From: Ref{fromType, fromID}, Payload: payload}
		got, ok := decodeEnvelope(want.encode())
		if !ok || !sameEnvelope(got, want) {
			t.Fatalf("%+v decodes to %+v (ok=%v)", want, got, ok)
		}
	})
}

func sameEnvelope(a, b envelope) bool {
	return a.To == b.To && a.From == b.From && bytes.Equal(a.Payload, b.Payload)
}

// TestPoisonRecordDropped puts records on the app's topic that are not
// envelopes — one cut short inside a length, one whose length runs past
// its end — ahead of a valid message on the same partition: both are
// dropped, the valid one still runs, and WaitIdle returns.
func TestPoisonRecordDropped(t *testing.T) {
	var mu sync.Mutex
	got := map[string]int64{}
	app, b := newCounterApp(t, "poison", func(key string, value []byte) {
		mu.Lock()
		got[key] = toI64(value)
		mu.Unlock()
	})
	ref := Ref{"counter", "x"}
	long := envelope{To: Ref{"counter", strings.Repeat("x", 200)}, Payload: i64(1)}.encode()
	p := b.NewProducer("")
	for _, poison := range [][]byte{long[:9], {7, 'c', 'o', 'u', 'n', 't', 'e', 'r', 9, 'x'}} {
		if _, _, err := p.Send("poison-in", ref.String(), poison); err != nil {
			t.Fatal(err)
		}
	}
	if err := app.SendToIngress(ref, i64(1)); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, app)
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got["x"] != 1 {
		t.Fatalf("egress %v, want only x=1", got)
	}
}
