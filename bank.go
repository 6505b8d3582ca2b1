package tca

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"

	"tca/internal/fabric"
)

// The bank — the running example of the transactional-cloud-apps
// literature — is now just one App on the application layer (app.go): two
// ops over account keys. The Bank interface survives as a thin typed
// wrapper over the Cell it deploys to, so existing callers and tests keep
// their exact semantics.

// Bank is the running example deployed under one taxonomy cell: accounts
// with balances, transfers between them, and a total-balance audit.
//
// Transfer's error contract is per cell: eventual cells (StatefulDataflow)
// acknowledge acceptance, not completion — call Settle before auditing.
type Bank interface {
	// Model returns the cell's programming model.
	Model() ProgrammingModel
	// Guarantee describes the cell's real semantics.
	Guarantee() Guarantee
	// Deposit seeds an account (setup; not part of the measured path).
	Deposit(account int, amount int64) error
	// Transfer moves amount between accounts. reqID identifies the
	// logical request for idempotence where the cell supports it; tr
	// accumulates simulated latency.
	Transfer(reqID string, from, to int, amount int64, tr *fabric.Trace) error
	// Balance reads one account.
	Balance(account int) (int64, error)
	// Settle waits until all accepted transfers have applied (no-op for
	// synchronous cells).
	Settle() error
	// Close releases resources.
	Close()
}

func acctKey(n int) string { return fmt.Sprintf("acct/%d", n) }

// bankDepositArgs / bankTransferArgs are the bank ops' wire arguments.
type bankDepositArgs struct {
	Account int   `json:"account"`
	Amount  int64 `json:"amount"`
}

type bankTransferArgs struct {
	From   int   `json:"from"`
	To     int   `json:"to"`
	Amount int64 `json:"amount"`
}

// ErrInsufficientFunds rejects overdrafts on cells that read before they
// write (all synchronous cells; the dataflow cell checks against its
// asynchronous snapshot).
var ErrInsufficientFunds = errors.New("insufficient funds")

// BankApp builds the bank as a model-agnostic App: "deposit" and
// "transfer" over acct/N keys. Balances use the EncodeInt value encoding
// and commutative Adds, so even the eventual cells conserve money under
// concurrency.
//
// The overdraft check is part of the body, so it is exactly as strong as
// the cell's isolation: the actor, entity and deterministic cells enforce
// it atomically, while the saga and dataflow cells check against an
// uncoordinated read — concurrent transfers can overdraw one account
// there. That is the missing-isolation anomaly of §4.2, surfaced rather
// than papered over; money stays conserved in every cell regardless.
func BankApp() *App {
	app := NewApp("bank")
	app.Register(Op{
		Name: "deposit",
		Keys: func(args []byte) []string {
			var a bankDepositArgs
			json.Unmarshal(args, &a)
			return []string{acctKey(a.Account)}
		},
		Body: func(tx Txn, args []byte) ([]byte, error) {
			var a bankDepositArgs
			if err := json.Unmarshal(args, &a); err != nil {
				return nil, err
			}
			return nil, tx.Add(acctKey(a.Account), a.Amount)
		},
	})
	app.Register(Op{
		Name: "transfer",
		Keys: func(args []byte) []string {
			var a bankTransferArgs
			json.Unmarshal(args, &a)
			return []string{acctKey(a.From), acctKey(a.To)}
		},
		Body: func(tx Txn, args []byte) ([]byte, error) {
			var a bankTransferArgs
			if err := json.Unmarshal(args, &a); err != nil {
				return nil, err
			}
			raw, _, err := tx.Get(acctKey(a.From))
			if err != nil {
				return nil, err
			}
			if DecodeInt(raw) < a.Amount {
				return nil, ErrInsufficientFunds
			}
			if err := tx.Add(acctKey(a.From), -a.Amount); err != nil {
				return nil, err
			}
			return nil, tx.Add(acctKey(a.To), a.Amount)
		},
	})
	return app
}

// NewBank instantiates the bank under the given model on env with default
// options.
func NewBank(model ProgrammingModel, env *Env) (Bank, error) {
	return NewBankWith(model, env, Options{})
}

// NewBankWith instantiates the bank under the given model on env: it
// deploys BankApp through the application layer and wraps the cell.
func NewBankWith(model ProgrammingModel, env *Env, opts Options) (Bank, error) {
	cell, err := DeployWith(model, BankApp(), env, opts)
	if err != nil {
		return nil, err
	}
	return &bankCell{cell: cell}, nil
}

// bankCell adapts a deployed Cell to the Bank interface.
type bankCell struct {
	cell       Cell
	depositSeq atomic.Int64
}

func (b *bankCell) Model() ProgrammingModel { return b.cell.Model() }
func (b *bankCell) Guarantee() Guarantee    { return b.cell.Guarantee() }

func (b *bankCell) Deposit(account int, amount int64) error {
	args, _ := json.Marshal(bankDepositArgs{Account: account, Amount: amount})
	reqID := fmt.Sprintf("deposit-%d-%d", account, b.depositSeq.Add(1))
	if _, err := b.cell.Invoke(reqID, "deposit", args, nil); err != nil {
		return err
	}
	// Seeding is synchronous even on the eventual cell, so tests and
	// benchmarks can audit right after setup.
	if b.cell.Model() == StatefulDataflow {
		return b.cell.Settle()
	}
	return nil
}

func (b *bankCell) Transfer(reqID string, from, to int, amount int64, tr *fabric.Trace) error {
	args, _ := json.Marshal(bankTransferArgs{From: from, To: to, Amount: amount})
	_, err := b.cell.Invoke(reqID, "transfer", args, tr)
	return err
}

func (b *bankCell) Balance(account int) (int64, error) {
	raw, _, err := b.cell.Read(acctKey(account))
	return DecodeInt(raw), err
}

func (b *bankCell) Settle() error { return b.cell.Settle() }
func (b *bankCell) Close()        { b.cell.Close() }

// BankAuditor audits the bank on the shared engine (audit.go): per-key
// equality with the serial reference (balances are commutative Adds, so
// any divergence is a lost or doubled delta, exact in any order), a live
// overdraft check on sampled balances, and the conservation invariant as
// a delta-maintained prefix sum — the settled balances must sum to
// exactly the deposits, transfer by transfer, with O(delta) maintenance.
type BankAuditor struct {
	*refAuditor
}

// NewBankAuditor creates an empty auditor.
func NewBankAuditor() *BankAuditor {
	cons := NewConstraints().
		Check(NonNegative("overdraft", "acct/", true)).
		SumTotal(SumTotal{
			Name:   "conservation",
			Prefix: "acct/",
			Delta: func(opName string, args []byte) int64 {
				if opName != "deposit" {
					return 0
				}
				var a bankDepositArgs
				json.Unmarshal(args, &a)
				return a.Amount
			},
		})
	return &BankAuditor{newRefAuditor(auditorConfig{app: BankApp(), cons: cons})}
}
