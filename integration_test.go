package tca

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"tca/internal/fabric"
	"tca/internal/saga"
)

// Integration tests: whole taxonomy cells under chaos and failures, the
// scenarios §4.1/§4.2 describe in prose.

func TestMicroBankConservesUnderMessageChaos(t *testing.T) {
	// Drops and duplicates on the wire; saga + retries + compensations
	// must keep the books balanced even when individual transfers fail.
	env := NewChaosEnv(3, 3, 0.05, 0.05)
	bank, err := NewBank(Microservices, env)
	if err != nil {
		t.Fatal(err)
	}
	defer bank.Close()
	const accounts = 6
	for a := 0; a < accounts; a++ {
		// Deposits go over the same lossy wire; retry until applied.
		for try := 0; try < 20; try++ {
			if err := bank.Deposit(a, 0); err == nil {
				break
			}
		}
	}
	// Seed balances robustly via many small deposits with retries.
	seeded := make([]int64, accounts)
	for a := 0; a < accounts; a++ {
		for i := 0; i < 5; i++ {
			if err := bank.Deposit(a, 100); err == nil {
				seeded[a] += 100
			}
		}
	}
	var want int64
	for _, s := range seeded {
		want += s
	}
	completed, compensated := 0, 0
	for i := 0; i < 60; i++ {
		err := bank.Transfer(fmt.Sprintf("chaos-%d", i), i%accounts, (i+1)%accounts, 5, nil)
		switch {
		case err == nil:
			completed++
		case errors.Is(err, saga.ErrCompensated):
			compensated++
		case errors.Is(err, saga.ErrStuck):
			t.Fatalf("saga stuck: %v", err)
		}
	}
	var total int64
	for a := 0; a < accounts; a++ {
		bal, err := bank.Balance(a)
		if err != nil {
			t.Fatal(err)
		}
		total += bal
	}
	if total != want {
		t.Fatalf("total = %d, want %d (completed=%d compensated=%d)", total, want, completed, compensated)
	}
	if completed == 0 {
		t.Fatal("no transfer completed despite retries")
	}
}

func TestActorBankSurvivesNodeCrash(t *testing.T) {
	env := NewEnv(5, 3)
	bank, err := NewBank(Actors, env)
	if err != nil {
		t.Fatal(err)
	}
	defer bank.Close()
	for a := 0; a < 4; a++ {
		bank.Deposit(a, 1000)
	}
	for i := 0; i < 20; i++ {
		if err := bank.Transfer(fmt.Sprintf("pre-%d", i), i%4, (i+1)%4, 3, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Crash one node: actors there migrate; transactional state lives in
	// the persistence store, so nothing is lost.
	nodes := env.Cluster.Nodes()
	env.Cluster.Crash(nodes[0])
	for i := 0; i < 20; i++ {
		if err := bank.Transfer(fmt.Sprintf("post-%d", i), i%4, (i+1)%4, 3, nil); err != nil {
			t.Fatalf("transfer after node crash: %v", err)
		}
	}
	var total int64
	for a := 0; a < 4; a++ {
		bal, _ := bank.Balance(a)
		total += bal
	}
	if total != 4000 {
		t.Fatalf("total = %d, want 4000", total)
	}
}

func TestCoreBankConservesAcrossCrashRecovery(t *testing.T) {
	env := NewEnv(7, 3)
	bank, err := NewBank(Deterministic, env)
	if err != nil {
		t.Fatal(err)
	}
	defer bank.Close()
	const accounts = 4
	for a := 0; a < accounts; a++ {
		if err := bank.Deposit(a, 1000); err != nil {
			t.Fatal(err)
		}
	}
	rt := CoreRuntime(bank.(*bankCell).cell)
	for i := 0; i < 30; i++ {
		bank.Transfer(fmt.Sprintf("t-%d", i), i%accounts, (i+1)%accounts, 2, nil)
		if i == 10 {
			if _, err := rt.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if i == 20 {
			rt.Crash()
			if err := rt.Recover(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := bank.Settle(); err != nil {
		t.Fatal(err)
	}
	var total int64
	for a := 0; a < accounts; a++ {
		bal, _ := bank.Balance(a)
		total += bal
	}
	if total != accounts*1000 {
		t.Fatalf("total = %d, want %d", total, accounts*1000)
	}
}

func TestStatefunBankEventualConsistency(t *testing.T) {
	env := NewEnv(9, 3)
	bank, err := NewBank(StatefulDataflow, env)
	if err != nil {
		t.Fatal(err)
	}
	defer bank.Close()
	bank.Deposit(0, 500)
	bank.Deposit(1, 500)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				bank.Transfer(fmt.Sprintf("w%d-%d", w, i), 0, 1, 1, nil)
			}
		}(w)
	}
	wg.Wait()
	if err := bank.Settle(); err != nil {
		t.Fatal(err)
	}
	b0, _ := bank.Balance(0)
	b1, _ := bank.Balance(1)
	if b0+b1 != 1000 {
		t.Fatalf("eventual total = %d, want 1000", b0+b1)
	}
	if b0 != 460 || b1 != 540 {
		t.Fatalf("balances = %d,%d; want 460,540 (40 transfers of 1)", b0, b1)
	}
}

func TestFaasBankConcurrentTransfersNoDeadlock(t *testing.T) {
	env := NewEnv(11, 3)
	bank, err := NewBank(CloudFunctions, env)
	if err != nil {
		t.Fatal(err)
	}
	defer bank.Close()
	for a := 0; a < 4; a++ {
		bank.Deposit(a, 1000)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				// Opposite-direction transfers on the same pair: sorted
				// lock acquisition must prevent deadlock.
				from, to := w%4, (w+1)%4
				if w%2 == 1 {
					from, to = to, from
				}
				bank.Transfer(fmt.Sprintf("f-%d-%d", w, i), from, to, 1, nil)
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for a := 0; a < 4; a++ {
		bal, _ := bank.Balance(a)
		total += bal
	}
	if total != 4000 {
		t.Fatalf("total = %d, want 4000", total)
	}
}

func TestTraceAccumulatesAcrossModels(t *testing.T) {
	// Every synchronous cell must charge simulated latency so the
	// experiments comparing them are meaningful.
	for _, model := range []ProgrammingModel{Microservices, Actors, CloudFunctions, Deterministic} {
		env := NewEnv(13, 3)
		bank, err := NewBank(model, env)
		if err != nil {
			t.Fatal(err)
		}
		bank.Deposit(0, 100)
		bank.Deposit(1, 100)
		tr := fabric.NewTrace()
		if err := bank.Transfer("t", 0, 1, 1, tr); err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		if tr.Total() <= 0 {
			t.Errorf("%v charged no simulated latency", model)
		}
		bank.Close()
	}
}
