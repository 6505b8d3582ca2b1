package tca

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"tca/internal/workload"
)

// TestTPCCCrossModelConservation is the application layer's conservation
// property: the identical seeded TPC-C stream, run under every cell of the
// taxonomy, must preserve the integrity constraints (stock never negative,
// warehouse YTD = sum of payments, district counters = NewOrder count) and
// — when each op settles before the next — produce exactly the serial
// reference state on every model.
func TestTPCCCrossModelConservation(t *testing.T) {
	cfg := workload.TPCCConfig{
		Warehouses: 2, Districts: 2, Customers: 20, Items: 50, NewOrderFrac: 0.55,
	}
	const ops = 120

	finals := make(map[ProgrammingModel]map[string]int64)
	for _, model := range allModels {
		t.Run(model.String(), func(t *testing.T) {
			env := NewEnv(1, 3)
			cell, err := Deploy(model, TPCCApp(), env)
			if err != nil {
				t.Fatal(err)
			}
			defer cell.Close()
			gen := workload.NewTPCC(42, cfg)
			audit := NewTPCCAuditor()
			for i := 0; i < ops; i++ {
				op := gen.Next()
				args, _ := json.Marshal(op)
				if _, err := cell.Invoke(fmt.Sprintf("x%d", i), tpccOpName(op), args, nil); err != nil {
					t.Fatalf("op %d (%s): %v", i, tpccOpName(op), err)
				}
				audit.RecordOp(op)
				// Settling per op serializes even the eventual cell, so the
				// equality-with-reference assertion is exact for all five.
				if model == StatefulDataflow {
					if err := cell.Settle(); err != nil {
						t.Fatal(err)
					}
				}
			}
			anomalies, err := audit.Verify(cell)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range anomalies {
				t.Errorf("integrity violation: %s", a)
			}
			final := make(map[string]int64, len(audit.state))
			for key := range audit.state {
				raw, _, err := cell.Read(key)
				if err != nil {
					t.Fatal(err)
				}
				final[key] = DecodeInt(raw)
			}
			finals[model] = final
		})
	}

	// The deterministic and actor cells (and every other one, given the
	// serialized drive) must agree on the final state key for key.
	det, act := finals[Deterministic], finals[Actors]
	if det == nil || act == nil {
		t.Fatal("missing final states for deterministic/actor cells")
	}
	for key, v := range det {
		if act[key] != v {
			t.Errorf("%s: deterministic=%d actors=%d", key, v, act[key])
		}
	}
}

// TestBankAppSharesCellSemantics drives BankApp directly through the
// layer (no Bank wrapper) under every model: deposits then transfers from
// one seeded stream, money conserved everywhere.
func TestBankAppSharesCellSemantics(t *testing.T) {
	const accounts, transfers = 6, 30
	for _, model := range allModels {
		t.Run(model.String(), func(t *testing.T) {
			env := NewEnv(2, 3)
			cell, err := Deploy(model, BankApp(), env)
			if err != nil {
				t.Fatal(err)
			}
			defer cell.Close()
			for a := 0; a < accounts; a++ {
				args, _ := json.Marshal(bankDepositArgs{Account: a, Amount: 500})
				if _, err := cell.Invoke(fmt.Sprintf("seed-%d", a), "deposit", args, nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := cell.Settle(); err != nil {
				t.Fatal(err)
			}
			gen := workload.NewBank(9, accounts, 0)
			for i := 0; i < transfers; i++ {
				op := gen.Next()
				args, _ := json.Marshal(bankTransferArgs{From: op.From, To: op.To, Amount: op.Amount})
				cell.Invoke(fmt.Sprintf("t%d", i), "transfer", args, nil)
			}
			if err := cell.Settle(); err != nil {
				t.Fatal(err)
			}
			var total int64
			for a := 0; a < accounts; a++ {
				raw, _, err := cell.Read(acctKey(a))
				if err != nil {
					t.Fatal(err)
				}
				total += DecodeInt(raw)
			}
			if total != accounts*500 {
				t.Fatalf("total = %d, want %d", total, accounts*500)
			}
		})
	}
}

// TestAppRegistryContract pins the App registry's misuse behavior: unknown
// ops error on Invoke, duplicate/incomplete registrations panic.
func TestAppRegistryContract(t *testing.T) {
	env := NewEnv(3, 3)
	cell, err := Deploy(Deterministic, BankApp(), env)
	if err != nil {
		t.Fatal(err)
	}
	defer cell.Close()
	if _, err := cell.Invoke("x", "no-such-op", nil, nil); err == nil {
		t.Fatal("unknown op accepted")
	}
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("incomplete op", func() { NewApp("x").Register(Op{Name: "a"}) })
	mustPanic("duplicate op", func() {
		app := NewApp("x")
		op := Op{
			Name: "a",
			Keys: func([]byte) []string { return nil },
			Body: func(Txn, []byte) ([]byte, error) { return nil, nil },
		}
		app.Register(op)
		app.Register(op)
	})
	if got := len(BankApp().Ops()); got != 2 {
		t.Fatalf("BankApp ops = %d, want 2", got)
	}
}

// TestIntCodecMatchesJSON pins the App layer's integer codec to the JSON
// encoding it replaced: EncodeInt writes the bytes json.Marshal(int64)
// writes, and DecodeInt reads every input — canonical or not — to the
// value json.Unmarshal into a zeroed int64 leaves.
func TestIntCodecMatchesJSON(t *testing.T) {
	for _, v := range []int64{math.MinInt64, math.MinInt64 + 1, -1234567, -1, 0, 1, 9, 10, 99, 100, 4096, math.MaxInt64} {
		want, _ := json.Marshal(v)
		if got := EncodeInt(v); string(got) != string(want) {
			t.Errorf("EncodeInt(%d) = %q, json.Marshal gives %q", v, got, want)
		}
		if got := DecodeInt(want); got != v {
			t.Errorf("DecodeInt(%q) = %d, want %d", want, got, v)
		}
	}
	inputs := []string{
		"0", "-0", "-1", "7", "9223372036854775807", "-9223372036854775808",
		"9223372036854775808", "-9223372036854775809", "99999999999999999999",
		" 5", "5 ", "+5", "05", "-05", "00", "1e2", "1.0", "1.5", "-", "--1",
		"null", "true", `"5"`, "[5]", "5x", "",
	}
	for _, in := range inputs {
		var want int64
		json.Unmarshal([]byte(in), &want)
		if got := DecodeInt([]byte(in)); got != want {
			t.Errorf("DecodeInt(%q) = %d, json.Unmarshal gives %d", in, got, want)
		}
	}
	if got := DecodeInt(nil); got != 0 {
		t.Errorf("DecodeInt(nil) = %d, want 0", got)
	}
	// Missing keys (nil) and canonical values are the hot inputs: neither
	// may reach json.Unmarshal.
	for _, in := range [][]byte{nil, {}, []byte("0"), []byte("-1"), []byte("9223372036854775807")} {
		if n := testing.AllocsPerRun(100, func() { DecodeInt(in) }); n != 0 {
			t.Errorf("DecodeInt(%q) allocates %v times, want 0", in, n)
		}
	}
}
