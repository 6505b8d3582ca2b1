package tca

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"tca/internal/workload"
)

// The cell harness behind the concurrency experiments (E20's closed-loop
// matrix, E21's audit overhead, E23's open-loop overload frontier), run
// by the experiment registry (internal/experiments) for the bench suite
// and cmd/tcabench alike, so the two surfaces can never report different
// numbers for the same experiment: one run = one (mix, model) cell driven
// closed-loop through pipelined client Sessions or open-loop at a fixed
// arrival rate, with the workload's Auditor running live inside the loop
// — Record at submission, Observe (plus a bounded live-value sample) as
// each handle resolves, and the precedence-graph Verify on the settled
// cell. The geo driver (geo_run.go) reuses the same audit path and
// reservoirs over a ReplicaGroup.

// mix is one registered workload: everything the harness needs to deploy,
// drive and audit it. The mixes table is the only place a mix name is
// resolved.
type mix struct {
	name    string
	app     func() *App
	auditor func() Auditor
	// stream returns one client's seeded op stream.
	stream func(seed int64) func() (name string, args []byte)
	// seed prepares the mix's initial state on a fresh cell and, when
	// auditing, folds the same seeding into the auditor's reference. Nil
	// when the mix starts from empty state.
	seed func(cell Cell, aud Auditor) error
}

// mixes are the first-class Apps, each with its incremental Auditor.
// "market-res" is the reservation-style marketplace (ROADMAP 4b) — the
// same mix shape as "market", only the reservation bookkeeping (ids,
// quotes, claims) differs, so the reserved row is comparable to the
// tolerate-the-drift row next to it; "booking" and "ledger" are the
// example programs promoted to first-class audited mixes.
var mixes = []mix{
	{"bank", BankApp, asAuditor(NewBankAuditor), func(seed int64) func() (string, []byte) {
		gen := workload.NewBank(seed, bankMixAccounts, 0.1)
		return opStream(func() bankTransferArgs {
			op := gen.Next()
			return bankTransferArgs{From: op.From, To: op.To, Amount: op.Amount}
		}, func(bankTransferArgs) string { return "transfer" })
	}, seedBankMix},
	{"tpcc", TPCCApp, asAuditor(NewTPCCAuditor), func(seed int64) func() (string, []byte) {
		return opStream(workload.NewTPCC(seed, workload.DefaultTPCCConfig(4)).Next, tpccOpName)
	}, nil},
	{"market", MarketApp, asAuditor(NewMarketAuditor), func(seed int64) func() (string, []byte) {
		return opStream(workload.NewMarket(seed, marketMixConfig()).Next, marketOpName)
	}, nil},
	{"market-res", MarketAppReserved, asAuditor(NewMarketReservedAuditor), func(seed int64) func() (string, []byte) {
		return opStream(workload.NewReservedMarket(seed, marketMixConfig()).Next, marketOpName)
	}, nil},
	{"booking", BookingApp, asAuditor(NewBookingAuditor), func(seed int64) func() (string, []byte) {
		return opStream(workload.NewBooking(seed, 64, 8, 8, 0.1, 0.2).Next, bookingOpName)
	}, nil},
	{"ledger", LedgerApp, asAuditor(NewLedgerAuditor), func(seed int64) func() (string, []byte) {
		return opStream(workload.NewLedger(seed, 32, 0.15).Next, ledgerOpName)
	}, nil},
	{"social", SocialApp, asAuditor(NewSocialAuditor), func(seed int64) func() (string, []byte) {
		return opStream(workload.NewSocial(seed, 128, 16).Next, SocialOpName)
	}, nil},
}

// Mixes lists the registered workload mixes — what E21's live-audit sweep
// drives. E20 and E23 sweep "tpcc" (non-commutative stock writes: the
// order verdict separates real anomalies from reorder noise) and "social"
// (fully commutative: any divergence is a delivery failure).
func Mixes() []string {
	names := make([]string, len(mixes))
	for i, m := range mixes {
		names[i] = m.name
	}
	return names
}

// asAuditor lifts a concrete auditor constructor into the mix table.
func asAuditor[A Auditor](newAuditor func() A) func() Auditor {
	return func() Auditor { return newAuditor() }
}

// opStream adapts a workload generator to the harness's stream shape: the
// op's name and its JSON-encoded arguments.
func opStream[T any](next func() T, name func(T) string) func() (string, []byte) {
	return func() (string, []byte) {
		op := next()
		args, _ := json.Marshal(op)
		return name(op), args
	}
}

// marketMixConfig sizes the two marketplace mixes.
func marketMixConfig() workload.MarketConfig {
	cfg := workload.DefaultMarketConfig()
	cfg.Users, cfg.Products = 256, 64
	cfg.ZipfS = 1.3
	return cfg
}

// bankMixAccounts and bankMixBalance size the bank mix: enough seeded
// balance that the uniform transfer stream never legitimately overdrafts,
// so any overdraft or conservation hit is the cell's doing.
const (
	bankMixAccounts = 64
	bankMixBalance  = 1_000_000
)

// seedBankMix funds the bank's accounts so transfers never legitimately
// abort.
func seedBankMix(cell Cell, aud Auditor) error {
	for acct := 0; acct < bankMixAccounts; acct++ {
		args, _ := json.Marshal(bankDepositArgs{Account: acct, Amount: bankMixBalance})
		reqID := fmt.Sprintf("seed/%d", acct)
		if _, err := cell.Invoke(reqID, "deposit", args, nil); err != nil {
			return err
		}
		if aud != nil {
			aud.Record(reqID, "deposit", args)
			aud.Observe(Commit{ReqID: reqID})
		}
	}
	return cell.Settle()
}

// liveKeyer is the optional auditor surface the harness samples for.
type liveKeyer interface {
	LiveKeys(op string, args []byte) []string
}

// auditTap is the one path from a driver into an Auditor: record an
// intent at submission, then Discard or Observe it when its handle
// resolves. With aud nil (auditing off) both methods do nothing.
type auditTap struct {
	aud Auditor
	// model decides whether a failed op still applied (see resolve).
	model ProgrammingModel
	// cell, when set, is peeked for the auditor's live samples.
	cell Cell
	seq  atomic.Int64
}

// record declares one submission's intent and returns its audit id.
func (t *auditTap) record(name string, args []byte) string {
	if t.aud == nil {
		return ""
	}
	id := fmt.Sprintf("a/%d", t.seq.Add(1))
	t.aud.Record(id, name, args)
	return id
}

// resolve folds one resolved handle into the audit. The eventual cell
// observes unconditionally (an accepted op is exactly-once in the ingress
// and applies even if its handle reports a drop or timeout); every other
// cell observes applied ops only — the same baseline rule as E17/E18/E19.
// A shed op never entered any cell's pipeline, so its intent is discarded
// on every model. Observed commits carry a bounded sample of live cell
// values for the delta constraint checks and, on the deterministic core,
// the log position the result was stamped with: the verdict replays
// components in the cell's actual commit order instead of searching for
// one.
func (t *auditTap) resolve(id, name string, args []byte, h Handle, opErr error, start time.Time) {
	if t.aud == nil {
		return
	}
	if opErr != nil && (t.model != StatefulDataflow || errors.Is(opErr, ErrOverloaded)) {
		t.aud.Discard(id)
		return
	}
	var sample map[string][]byte
	if live, ok := t.aud.(liveKeyer); ok && t.cell != nil {
		for _, k := range live.LiveKeys(name, args) {
			if v, found := Peek(t.cell, k); found {
				if sample == nil {
					sample = make(map[string][]byte, auditLiveKeyCap)
				}
				sample[k] = v
			}
		}
	}
	t.aud.Observe(Commit{ReqID: id, Op: name, Args: args, Start: start, End: time.Now(), Live: sample, Seq: handleSeq(h)})
}

// CellOptions configures one harness run. Exactly one of Clients and Rate
// selects the load model.
type CellOptions struct {
	// Clients > 0 drives a closed loop: that many pipelined Sessions
	// (8 submissions in flight each) over their own seeded streams, on a
	// cell whose worker pool is Clients wide. Latencies run from each
	// Session.Submit call.
	Clients int
	// Rate > 0 drives an open loop instead: arrivals at Rate ops/second
	// submitted directly on the Cell — no Session retries, so the shed
	// rate is the cell's own admission verdict — on a 16-wide worker
	// pool. Arrivals keep coming regardless of how the cell keeps up, and
	// latencies run from each arrival's *scheduled* time, so queueing
	// delay counts.
	Rate float64
	// Arrival selects the open loop's arrival process: "poisson" (default,
	// smooth) or "bursty" (a 2-state MMPP at the same mean rate with 4×
	// bursts).
	Arrival string
	// Shed picks the open loop's admission control: on, the cell runs with
	// a tight bounded queue (Options.MaxPending = 64 — not the roomy
	// defaults, so the frontier engages within an experiment-sized run on
	// every cell) and rejects excess load with ErrOverloaded; off disables
	// the bounds (MaxPending = -1), the pre-admission-control behavior
	// where overload queues without limit instead of shedding. The closed
	// loop always runs on the cell's default bounds.
	Shed bool
	// Audit runs the mix's Auditor live inside the loop and the final
	// precedence-graph Verify. Off measures the raw harness.
	Audit bool
	// LogDir, when set and the model is Deterministic, backs the cell with
	// a real durable write-ahead log (Options.LogDir) in a fresh
	// subdirectory of LogDir, removed when the run ends — so repeated runs
	// (a benchmark growing b.N) never replay a previous run's log. The
	// modeled 80µs SequenceDelay is then not charged; the log's own
	// append+fsync cost is the measured accept latency. Other models
	// ignore it.
	LogDir string
	// Seed varies the op streams, the arrival schedule and the reservoirs'
	// sampling deterministically — the knob grid repeats turn. Client c's
	// stream is seeded 100 + Seed·1e6 + c, so repeat streams are disjoint
	// and Seed 0 reproduces the historical fixed streams (100+c) existing
	// baselines were taken on. The open loop is one client.
	Seed int64
}

// CellResult is one harness run's measurement.
type CellResult struct {
	// Issued counts submissions; Shed those rejected with ErrOverloaded
	// (after the session's retry budget, in the closed loop); Failed those
	// that were accepted but resolved with any other error (business
	// aborts, exhausted 2PL retries).
	Issued, Shed, Failed int64
	// Elapsed spans the first submission to settled state.
	Elapsed time.Duration
	// Accept latencies run to the cell's acknowledgment (Submit
	// returning: a pool slot or a shed, a durable group append, an ingress
	// produce), Apply latencies to the handle resolving, for ops that were
	// not shed — the per-cell accept/apply split, as quantiles of bounded
	// reservoirs.
	AcceptP50, AcceptP999 time.Duration
	ApplyP50, ApplyP999   time.Duration
	// AcceptSamples and ApplySamples are the reservoirs' retained sample
	// sets, exported so grid repeats can pool their tails.
	AcceptSamples, ApplySamples []time.Duration
	// Audited reports whether the auditor ran; the rest is its verdict.
	Audited bool
	// Anomalies are the final divergences the order verdict could not
	// attribute to any serializable completion order.
	Anomalies []string
	// Violations counts live delta-constraint hits during the run
	// (negative stock, overdrafts — sampled at apply time).
	Violations int
	// Reordered counts final mismatches a legal reordering of racing
	// commits explains — the false positives a completion-order audit
	// would have reported, suppressed by the precedence-graph verdict.
	Reordered int
	// GraphCycles counts conflict components whose settled values are
	// explainable only by an order contradicting real-time precedence.
	GraphCycles int
}

// Applied returns how many submissions were accepted and applied.
func (r CellResult) Applied() int64 { return r.Issued - r.Shed - r.Failed }

// Throughput returns applied ops per second — under open-loop load the
// goodput, the number that stays flat past saturation with shedding on
// and collapses with it off.
func (r CellResult) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Applied()) / r.Elapsed.Seconds()
}

// RunCell deploys the named mix's App under model on a fresh single-node
// environment and drives it for ~ops submissions under the load model o
// selects. The cell gets 32 core workers and the modeled 80µs
// durable-append latency — what the deterministic cell's group appends
// amortize — unless o.LogDir puts it on a real write-ahead log.
func RunCell(mixName string, model ProgrammingModel, ops int, o CellOptions) (CellResult, error) {
	if ops <= 0 || o.Rate < 0 || (o.Rate == 0 && o.Clients <= 0) {
		return CellResult{}, fmt.Errorf("tca: cell run needs ops > 0 and Clients > 0 or Rate > 0 (got ops %d, clients %d, rate %g)", ops, o.Clients, o.Rate)
	}
	var m *mix
	for i := range mixes {
		if mixes[i].name == mixName {
			m = &mixes[i]
			break
		}
	}
	if m == nil {
		return CellResult{}, fmt.Errorf("tca: unknown mix %q", mixName)
	}
	open, seed := o.Rate > 0, o.Seed
	var arrivals workload.ArrivalProcess
	opts := Options{Clients: o.Clients, Workers: 32, SequenceDelay: 80 * time.Microsecond}
	if open {
		opts.Clients, opts.MaxPending = 16, -1
		if o.Shed {
			opts.MaxPending = 64
		}
		switch o.Arrival {
		case "", "poisson":
			arrivals = workload.NewPoissonArrivals(seed, o.Rate)
		case "bursty":
			arrivals = workload.NewMMPPArrivals(seed, o.Rate, 4, 10*time.Millisecond)
		default:
			return CellResult{}, fmt.Errorf("tca: unknown arrival process %q", o.Arrival)
		}
	}
	if o.LogDir != "" && model == Deterministic {
		dir, err := os.MkdirTemp(o.LogDir, "cell-")
		if err != nil {
			return CellResult{}, err
		}
		defer os.RemoveAll(dir)
		opts.LogDir = dir
	}
	cell, err := DeployWith(model, m.app(), NewEnv(1, 3), opts)
	if err != nil {
		return CellResult{}, err
	}
	defer cell.Close()
	tap := &auditTap{model: model, cell: cell}
	if o.Audit {
		tap.aud = m.auditor()
		defer tap.aud.Close()
	}
	if m.seed != nil {
		if err := m.seed(cell, tap.aud); err != nil {
			return CellResult{}, err
		}
	}
	stream := func(c int) func() (string, []byte) { return m.stream(100 + seed*1_000_000 + int64(c)) }

	accept := workload.NewLatencyReservoir(0, seed*2+1)
	apply := workload.NewLatencyReservoir(0, seed*2+2)
	issued := int64(ops)
	var shed, failed atomic.Int64
	var inflight sync.WaitGroup
	// await drains one submission: classify the outcome, record apply
	// latency for ops that entered the pipeline, and hand it to the audit.
	await := func(h Handle, id, name string, args []byte, origin time.Time) {
		defer inflight.Done()
		<-h.Done()
		_, opErr := h.Result()
		if errors.Is(opErr, ErrOverloaded) {
			shed.Add(1)
		} else {
			if opErr != nil {
				failed.Add(1)
			}
			apply.Record(time.Since(origin))
		}
		tap.resolve(id, name, args, h, opErr, origin)
	}

	start := time.Now()
	if open {
		next := stream(0)
		workload.Pace(ops, arrivals.Gap, func(i int, due time.Time) {
			name, args := next()
			id := tap.record(name, args)
			submit := func() Handle {
				h := cell.Submit(fmt.Sprintf("ol/%d", i), name, args, nil)
				accept.Record(time.Since(due))
				return h
			}
			inflight.Add(1)
			if o.Shed && model != Deterministic {
				// Admission control makes Submit's verdict ~immediate (a token
				// or a shed), so the pacing loop submits inline — which is also
				// what lets a backlog actually accumulate against the bound
				// instead of being drained by the scheduler between arrivals —
				// and only the await runs concurrently. The deterministic cell
				// is the exception: its Submit return is the durable ack, whose
				// cost amortizes only across concurrent submitters (group
				// appends), while its admission verdict already fires at the
				// bounded batch queue before the ack wait parks — so it takes
				// the concurrent path below even with shedding on.
				h := submit()
				go await(h, id, name, args, due)
				return
			}
			// Legacy queues block the submitter when full; the open loop
			// must keep offering regardless, so each arrival submits from
			// its own goroutine — the unbounded goroutine pile IS the
			// unbounded queue, and the blocked time lands in the accept
			// tail.
			go func() { await(submit(), id, name, args, due) }()
		})
	} else {
		// One simulated user = a Session on the cell plus its own seeded
		// stream, submitting back to back; the session's in-flight cap is
		// what throttles it.
		perClient := ops/o.Clients + 1
		issued = int64(o.Clients * perClient)
		var clients sync.WaitGroup
		for c := 0; c < o.Clients; c++ {
			sess, next := NewSession(cell, fmt.Sprintf("s%d/c%d", seed, c), SessionOptions{MaxInFlight: 8}), stream(c)
			clients.Add(1)
			go func() {
				defer clients.Done()
				for i := 0; i < perClient; i++ {
					name, args := next()
					id := tap.record(name, args)
					t0 := time.Now()
					h := sess.Submit(name, args, nil)
					accept.Record(time.Since(t0))
					inflight.Add(1)
					go await(h, id, name, args, t0)
				}
			}()
		}
		clients.Wait()
	}
	inflight.Wait()
	if err := cell.Settle(); err != nil {
		return CellResult{}, err
	}
	out := CellResult{
		Issued:        issued,
		Shed:          shed.Load(),
		Failed:        failed.Load(),
		Elapsed:       time.Since(start),
		AcceptP50:     accept.P50(),
		AcceptP999:    accept.P999(),
		ApplyP50:      apply.P50(),
		ApplyP999:     apply.P999(),
		AcceptSamples: accept.Samples(),
		ApplySamples:  apply.Samples(),
	}
	if tap.aud != nil {
		anomalies, err := tap.aud.Verify(cell)
		if err != nil {
			return CellResult{}, err
		}
		stats := tap.aud.Stats()
		out.Audited = true
		out.Anomalies = anomalies
		out.Violations = stats.LiveViolations
		out.Reordered = stats.Reordered
		out.GraphCycles = stats.GraphCycles
	}
	return out, nil
}
