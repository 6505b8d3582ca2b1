package tca

import (
	"fmt"
	"testing"

	"tca/internal/fabric"
)

var allModels = []ProgrammingModel{Microservices, Actors, CloudFunctions, StatefulDataflow, Deterministic}

func newBankT(t *testing.T, model ProgrammingModel) Bank {
	t.Helper()
	env := NewEnv(1, 3)
	b, err := NewBank(model, env)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	return b
}

func TestEveryModelTransfers(t *testing.T) {
	for _, model := range allModels {
		t.Run(model.String(), func(t *testing.T) {
			b := newBankT(t, model)
			if err := b.Deposit(0, 100); err != nil {
				t.Fatal(err)
			}
			if err := b.Deposit(1, 100); err != nil {
				t.Fatal(err)
			}
			tr := fabric.NewTrace()
			if err := b.Transfer("t1", 0, 1, 30, tr); err != nil {
				t.Fatal(err)
			}
			if err := b.Settle(); err != nil {
				t.Fatal(err)
			}
			b0, err := b.Balance(0)
			if err != nil {
				t.Fatal(err)
			}
			b1, err := b.Balance(1)
			if err != nil {
				t.Fatal(err)
			}
			if b0 != 70 || b1 != 130 {
				t.Fatalf("balances = %d, %d; want 70, 130", b0, b1)
			}
			if model != StatefulDataflow && tr.Total() <= 0 {
				t.Fatal("no simulated latency charged")
			}
		})
	}
}

func TestEveryModelConservesMoney(t *testing.T) {
	const accounts, transfers = 4, 40
	for _, model := range allModels {
		t.Run(model.String(), func(t *testing.T) {
			b := newBankT(t, model)
			for a := 0; a < accounts; a++ {
				if err := b.Deposit(a, 1000); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < transfers; i++ {
				from, to := i%accounts, (i+1)%accounts
				// Transfers may individually fail (insufficient funds on a
				// race); conservation must hold regardless.
				b.Transfer(fmt.Sprintf("t%d", i), from, to, 7, nil)
			}
			if err := b.Settle(); err != nil {
				t.Fatal(err)
			}
			var total int64
			for a := 0; a < accounts; a++ {
				bal, err := b.Balance(a)
				if err != nil {
					t.Fatal(err)
				}
				total += bal
			}
			if total != accounts*1000 {
				t.Fatalf("total = %d, want %d", total, accounts*1000)
			}
		})
	}
}

func TestGuaranteesMatchTaxonomy(t *testing.T) {
	wantIsolated := map[ProgrammingModel]bool{
		Microservices:    false, // saga
		Actors:           true,  // 2PL+2PC
		CloudFunctions:   true,  // critical sections
		StatefulDataflow: false, // §4.2: exactly-once is not isolation
		Deterministic:    true,  // serializable by construction
	}
	for _, model := range allModels {
		b := newBankT(t, model)
		g := b.Guarantee()
		if g.Isolated != wantIsolated[model] {
			t.Errorf("%v: isolated = %v, want %v", model, g.Isolated, wantIsolated[model])
		}
		if !g.Atomic {
			t.Errorf("%v: every cell must at least be (eventually) atomic", model)
		}
		if g.Note == "" || g.String() == "" {
			t.Errorf("%v: missing guarantee note", model)
		}
		if b.Model() != model {
			t.Errorf("Model() = %v, want %v", b.Model(), model)
		}
	}
}

func TestInsufficientFundsRejected(t *testing.T) {
	// Synchronous cells reject overdrafts; the transfer must leave both
	// balances untouched (atomicity under business failure).
	for _, model := range []ProgrammingModel{Microservices, Actors, CloudFunctions, Deterministic} {
		t.Run(model.String(), func(t *testing.T) {
			b := newBankT(t, model)
			b.Deposit(0, 10)
			b.Deposit(1, 10)
			if err := b.Transfer("big", 0, 1, 1000, nil); err == nil {
				t.Fatal("overdraft accepted")
			}
			b.Settle()
			b0, _ := b.Balance(0)
			b1, _ := b.Balance(1)
			if b0 != 10 || b1 != 10 {
				t.Fatalf("balances after rejected transfer = %d, %d", b0, b1)
			}
		})
	}
}

func TestDeterministicIdempotentTransfer(t *testing.T) {
	b := newBankT(t, Deterministic)
	b.Deposit(0, 100)
	b.Deposit(1, 0)
	for i := 0; i < 3; i++ { // client retries with the same request id
		if err := b.Transfer("retry-me", 0, 1, 40, nil); err != nil {
			t.Fatal(err)
		}
	}
	b.Settle()
	b0, _ := b.Balance(0)
	if b0 != 60 {
		t.Fatalf("balance = %d, want 60 (exactly-once submit)", b0)
	}
}

func TestModelAndAxisStrings(t *testing.T) {
	for _, m := range allModels {
		if m.String() == "" {
			t.Errorf("model %d has empty String()", m)
		}
	}
}

func TestChaosEnvConstructs(t *testing.T) {
	env := NewChaosEnv(1, 3, 0.1, 0.1)
	if env.Cluster == nil || env.Broker == nil {
		t.Fatal("chaos env incomplete")
	}
}
