// Package tca (Transactional Cloud Applications) is the public face of this
// repository: an executable rendition of the taxonomy in Figure 1 of
// "Transactional Cloud Applications: Status Quo, Challenges, and
// Opportunities" (SIGMOD-Companion 2025).
//
// The paper organizes the landscape along three axes — programming model,
// messaging, and state management — and three requirements: fault
// tolerance, consistency, and lifecycle. This package lets you run the
// *same application* under every programming model the paper surveys,
// with honest guarantees for each:
//
//	model            messaging      state          op guarantee
//	-----            ---------      -----          ------------
//	Microservices    REST (sync)    external DB    saga: atomic eventually, no isolation
//	Actors           async msgs     external DB    2PC + 2PL: serializable, blocking
//	CloudFunctions   sync invoke    entity store   entity locks: atomic, deadlock-free
//	StatefulDataflow log (async)    embedded       exactly-once, NO isolation
//	Deterministic    log (async)    embedded       serializable + exactly-once (Styx-like)
//
// # The application layer
//
// Applications and deployment cells are separate layers (app.go):
//
//   - An App (NewApp + Register) is a model-agnostic set of named Ops.
//     Each Op declares the key set it touches and a deterministic Body
//     over the uniform Txn surface — Get, Put, and the commutative Add.
//     An Op may declare itself ReadOnly: every cell then answers it
//     without its write machinery (no saga staging, shared locks with no
//     2PC, no buffered-write commit, no write-emit choreography round,
//     no write-schedule slot) and rejects writes from its body.
//   - Deploy(model, app, env) instantiates the App under one taxonomy
//     cell and returns a Cell: Submit starts an op with the cell's honest
//     semantics (a saga, an actor transaction, an entity critical
//     section, a dataflow message choreography, or a deterministic
//     log-ordered transaction), Read audits settled state, and Guarantee
//     reports what the cell really promises.
//
// One cell, five executors: the five programming models are five answers
// to one question, and the code reads that way. A single Cell
// implementation (cell.go) — resolve the op, admit or shed, execute,
// resolve the handle — runs over a per-model executor (cell_*.go) that
// provides only what its model decides: its Guarantee, how settled state
// is read and reached, and one accept path, a blocking run (saga, 2PL+2PC,
// critical section) that the pipeline puts behind the shared worker pool
// or a native asynchronous submit (the deterministic log, the dataflow
// ingress). Every body is called through the cell's one runBody, which
// enforces the ReadOnly contract and reports each successful read-write
// execution's writes, by request id, to an optional write observer: after
// the body returned nil and before the executor commits, again on a
// re-execution (the last report before the handle resolves is the one
// that committed), never for a shed submission. Geo replication captures
// its write-sets there. What Put, Add and PushCap do to a value is decided
// once, by the write record under all five executors (cell_write.go): a
// saga step's batch and its inverse, a dataflow write batch, the
// read-your-writes buffer and the replicated delta are made of it. The
// auditors' reference Txns (audit.go) deliberately spell the verbs out on
// their own — they are what the cells are judged against.
//
// Four applications ship as App constructors: BankApp (the literature's
// running example; the Bank interface wraps it for compatibility),
// TPCCApp (the TPC-C NewOrder/Payment subset plus the standard's two
// query transactions), MarketApp (the Online Marketplace mix: carts,
// write-skew-prone checkouts, read-only product queries, price updates)
// and SocialApp (DeathStarBench-style compose-post whose declared key set
// is the follower-timeline list). Writing another workload is a
// ~100-line App, not a per-model fork.
//
// # Auditing
//
// Every workload ships a cross-model auditor (TPCCAuditor,
// MarketAuditor, SocialAuditor, BankAuditor) built on one shared layer
// (audit.go): the Auditor interface — Record an accepted intent, Observe
// each applied commit, Violations so far, Verify the settled cell — and
// a ConstraintSet of delta-maintained invariants (per-key predicates
// like stock >= 0, per-key totals like warehouse YTD = Σpayments, prefix
// sums like bank conservation). Observe does O(delta) work per commit
// against an incrementally maintained serial reference, so auditors run
// live inside the concurrency harness with memory bounded by state size
// plus fixed per-key windows, never by history length. Final divergences
// pass through a precedence-graph order verdict: a mismatch is accepted
// (counted as Reordered, not anomalous) when some linear extension of
// the observed real-time precedence order reproduces the cell's settled
// values, so racing non-commutative commits audit exactly instead of
// reporting false drift; values only an order contradicting real time
// explains are counted as GraphCycles and kept as violations. Cells that
// know their own serialization — the deterministic core stamps every
// result with its log position — pass it as Commit.Seq, and the auditor
// re-sequences racing observations through a bounded reorder buffer so
// the reference tracks the cell's true commit order exactly.
//
// # Driving a cell
//
// The invocation surface is asynchronous at its base: Cell.Submit starts
// an op and returns a Handle immediately — acceptance — and the Handle's
// Done/Result report completion. What the two events mean is the
// messaging axis of the taxonomy, per executor. On the pooled three
// (microservices, actors, cloud functions) acceptance is admission to the
// shared bounded worker pool — Options.Clients executing slots plus an
// Options.MaxPending queue; accept latency is one op-table lookup and a
// token — and the handle resolves when the blocking protocol ends. The
// deterministic executor acknowledges once the transaction is durably in
// the log (concurrent submissions share group log appends, amortizing the
// modeled append latency) and resolves the handle when the scheduled
// transaction commits. The dataflow executor acknowledges at the ingress
// and resolves when the choreography's result record lands: acknowledged
// is not applied, two distinct latency numbers per request. No executor
// derives an op's key set or decodes its arguments before the admission
// verdict. Invoke is Submit(...).Result(), written once; on a pooled cell
// a caller that waits inline skips the goroutine and the handle.
//
// Clients hold a Session (NewSession) per logical user: it assigns the
// session's request ids, caps in-flight submissions (pipelining depth),
// retries shed submissions with jittered exponential backoff
// (SessionOptions.RetryBudget, Backoff), and can order ops on overlapping
// keys (SessionOptions.OrderKeys) for session read-your-writes on the
// eventual cells. The concurrency matrix (E20 in EXPERIMENTS.md) drives
// every cell this way through workload.ClosedLoop; the rest of the bench
// suite (bench_test.go) covers every other experiment.
//
// # Overload
//
// Every cell's accept path is bounded (Options.MaxPending): when the
// accepted-but-unfinished backlog fills the bound, Submit sheds — the
// handle resolves immediately with a *ShedError (errors.Is(err,
// ErrOverloaded) matches, and the error carries the cell, the observed
// queue depth, and a retry-after hint) and the op provably never entered
// the pipeline: no state is touched on any cell and nothing reaches an
// auditor or a write observer. An unknown op is answered before admission
// and takes no slot. The rule for the knob is written once (zero: the
// executor's default; negative: unbounded); where the bound sits is per
// executor: the pooled ones share the worker pool's queue, the
// Deterministic one bounds each partition batcher's un-appended
// submissions (core.Config.MaxPending, and the cross-partition sequence
// path likewise), and the dataflow one bounds its
// acknowledged-not-yet-applied ingress records.
//
// Shedding is what separates goodput from throughput past saturation.
// Throughput counts ops the cell finished; goodput counts ops that
// completed successfully per wall-clock second of offered load. A cell
// without admission control accepts everything an open-loop arrival
// process offers, so past capacity its queues — and every request's
// latency — grow without bound: throughput looks flat while tail latency
// collapses. With admission control the cell does bounded work at its
// capacity, answers the rest cheaply with ErrOverloaded, and tail latency
// for accepted work stays bounded — goodput holds near peak at 2–4×
// offered load. E23 (RunCell's open loop, BenchmarkE23_OverloadFrontier,
// tcabench -experiment e23) measures exactly this frontier, with Poisson
// and bursty arrivals from internal/workload.
//
// # Durability
//
// By default the Deterministic cell's input log lives only in memory and
// its append cost is modeled (Options.SequenceDelay). Setting
// Options.LogDir puts a real segmented write-ahead log (internal/wal)
// under it instead: every group of concurrent submissions becomes one
// group append — a header record carrying the group's Merkle root, then
// one JSON record per member, written in one buffered write and made
// durable per Options.Fsync (every batch, a ~1ms interval, or the OS page
// cache) before the group enters the log's in-memory tail, where the
// scheduler reads it as decoded requests; the tail keeps only what the
// scheduler has not yet read, since the disk holds the rest. Submit
// acknowledges after that append: on the every-batch policy, acknowledged
// means fsynced. Options.MaxGroupAppend caps the
// group size, trading acknowledgment latency against how many
// transactions amortize each fsync — E22
// (BenchmarkE22_DurabilityFrontier) maps that frontier.
//
// On every Start, a recovery after a crash included, the cell rebuilds
// the tails from disk before accepting traffic, re-verifying each group
// against its Merkle root: a partial group at the tail of the stream is a
// torn write from a crash mid-append — it is counted
// (core.wal_torn_batches), dropped, and the log is rewritten to the last
// complete group; a root mismatch anywhere else means the bytes
// on disk are not the bytes that were acknowledged, and Start refuses
// with core.ErrLogTampered rather than replaying corrupted history.
// Because groups persist before they enter the tail, the disk order and
// the tail order agree, so replay rebuilds the identical schedule and
// in-flight Handles resolve exactly once across a crash.
//
// # Geo-replication
//
// DeployReplicated(model, app, regions, opts) wraps any cell as a multi-region
// ReplicaGroup: one full replica of the cell per region (three fabric
// nodes each) in a region.Topology, with every cross-region message
// charged through a dedicated WAN tier of the latency fabric
// (GeoOptions.WAN). Two replication modes span the paper's consistency
// axis:
//
//   - AsyncReplication ships committed writes as versioned deltas on a ship
//     interval. Commutative ops — Add, PushCap — merge by replay on the
//     remote replica (PushCap's capped newest-ids list is a bounded CRDT:
//     the merge keeps the global top-cap ids regardless of arrival
//     order), and Put conflicts resolve last-writer-wins on per-region
//     Lamport timestamps (region index as tiebreak), with a reconcile
//     round forcing the global winner everywhere on Drain. A drained group therefore converges
//     exactly — byte-equal state on all replicas, or Drain returns the
//     batch a peer failed to apply (StalenessStats.FailedApplies) —
//     while steady-state reads trade freshness for locality.
//   - SequencedReplication (Deterministic cells only) sends every write
//     to the home region's core, whose input log every other region's
//     core follows, so all regions apply the identical log order
//     (SequencedOrder). A write resolves once every region has executed
//     it, so reads are fresh everywhere; the price is that every
//     cross-region commit pays at least one WAN round trip by
//     construction.
//
// Reads pick their side of the trade per query: ReadLocal answers
// from the caller's region at region-local latency (possibly stale under
// AsyncReplication), ReadHome forwards to the home region and pays the
// WAN round trip for freshness. The group's staleness probe
// (ReplicaGroup.Staleness, StalenessStats) bounds what "possibly stale"
// means — maximum replication lag in committed transactions and in
// wall-modeled time (at most one ship interval plus one WAN delay), and
// the widest per-key divergence window — and feeds the Auditor layer via
// ObserveStaleness so audit verdicts carry the staleness context. E24
// (RunGeoCell, BenchmarkE24_GeoFrontier, tcabench -experiment e24)
// sweeps regions x WAN x read mode and measures the frontier: async
// local reads are WAN-blind with bounded nonzero staleness, sequenced
// commits pay the WAN round trip with zero anomalies.
package tca

import (
	"fmt"
	"time"

	"tca/internal/core"
	"tca/internal/fabric"
	"tca/internal/mq"
)

// ProgrammingModel is the first axis of Figure 1.
type ProgrammingModel int

// The programming models of §3.1.
const (
	Microservices ProgrammingModel = iota
	Actors
	CloudFunctions
	StatefulDataflow
	// Deterministic is the §5 "opportunity": the Styx-like deterministic
	// transactional dataflow runtime (internal/core).
	Deterministic
)

func (m ProgrammingModel) String() string {
	switch m {
	case Microservices:
		return "microservices"
	case Actors:
		return "actors"
	case CloudFunctions:
		return "cloud-functions"
	case StatefulDataflow:
		return "stateful-dataflow"
	case Deterministic:
		return "deterministic"
	default:
		return fmt.Sprintf("model(%d)", int(m))
	}
}

// Messaging is the second axis of Figure 1.
type Messaging int

// Messaging styles of §3.2.
const (
	REST Messaging = iota
	Queues
)

func (m Messaging) String() string {
	if m == REST {
		return "rest"
	}
	return "queues"
}

// StatePlacement is the third axis of Figure 1 (embedded vs external).
type StatePlacement int

// State placements of §3.3.
const (
	ExternalState StatePlacement = iota
	EmbeddedState
)

func (s StatePlacement) String() string {
	if s == ExternalState {
		return "external"
	}
	return "embedded"
}

// Env is the shared infrastructure an application deploys onto: the
// simulated cluster and the message broker.
type Env struct {
	Cluster *fabric.Cluster
	Broker  *mq.Broker
}

// NewEnv creates a healthy n-node environment with the given seed.
func NewEnv(seed int64, nodes int) *Env {
	if nodes < 1 {
		nodes = 3
	}
	cfg := fabric.DefaultConfig()
	cfg.Seed = seed
	ids := make([]fabric.NodeID, nodes)
	for i := range ids {
		ids[i] = fabric.NodeID(fmt.Sprintf("node-%d", i))
	}
	return &Env{Cluster: fabric.NewCluster(cfg, ids...), Broker: mq.NewBroker()}
}

// NewChaosEnv is NewEnv with message drop and duplication probabilities —
// the failure modes of §3.2/§4.1.
func NewChaosEnv(seed int64, nodes int, dropProb, dupProb float64) *Env {
	env := NewEnv(seed, nodes)
	cfg := fabric.DefaultConfig()
	cfg.Seed = seed
	cfg.DropProb = dropProb
	cfg.DupProb = dupProb
	ids := make([]fabric.NodeID, nodes)
	for i := range ids {
		ids[i] = fabric.NodeID(fmt.Sprintf("node-%d", i))
	}
	env.Cluster = fabric.NewCluster(cfg, ids...)
	env.Broker = mq.NewBroker().WithChaos(env.Cluster)
	return env
}

// Options tunes optional cell parameters. The zero value is the default
// deployment for every model.
type Options struct {
	// Partitions shards the Deterministic cell's input log (and so its
	// scheduler) across that many partitions; zero or one means a single
	// log. Other models ignore it. E16 sweeps this knob.
	Partitions int
	// Workers bounds the Deterministic cell's concurrently executing
	// transactions (zero = the runtime default). Other models ignore it;
	// the pipelined-parallel harnesses (tca.RunCell, RunGeoCell) raise it.
	Workers int
	// Clients bounds the synchronous cells' (microservices, actors, cloud
	// functions) concurrently executing submissions: Cell.Submit queues
	// past the cap. Zero means 16. The log-based cells pipeline natively
	// and ignore it. E20 sweeps this knob.
	Clients int
	// SequenceDelay models the Deterministic cell's per-record durable
	// log-append latency (core.Config.SequenceDelay — the fsync/replication
	// await group appends amortize across concurrent submissions). Zero
	// disables the model. Other models ignore it, and LogDir supersedes it:
	// a real log's own append+fsync cost replaces the model.
	SequenceDelay time.Duration
	// LogDir, when set, backs the Deterministic cell with a real durable
	// write-ahead log under that directory: group appends persist (one
	// buffered write + fsync per the policy, with a Merkle root over each
	// group's members) before they enter the in-memory log, and every start
	// replays the logs through verification. See the package doc's Durability section.
	// Other models ignore it.
	LogDir string
	// Fsync selects the durable log's sync policy in LogDir mode:
	// FsyncEveryBatch (default), FsyncInterval, or FsyncNone. E22 sweeps
	// this knob against MaxGroupAppend.
	Fsync FsyncPolicy
	// MaxGroupAppend caps how many concurrent submissions the Deterministic
	// cell packs into one group log append (zero = the runtime's default,
	// 128). E22 sweeps it to map batch size against fsync policy.
	MaxGroupAppend int
	// MaxPending is the admission-control knob: how much
	// accepted-but-unfinished work a cell will hold beyond its executing
	// capacity before Submit sheds — the returned Handle resolves
	// immediately with a *ShedError (errors.Is(err, ErrOverloaded)) and
	// the op provably never runs. Zero means each cell's default bound:
	// 4× the worker pool for the synchronous cells, 4× MaxGroupAppend
	// un-appended submissions per partition for the Deterministic cell,
	// and 1024 acknowledged-not-yet-applied ingress records for the
	// dataflow cell. Negative disables admission control entirely — the
	// pre-overload-aware behavior (blocking pools, unbounded queues).
	// E23 sweeps offered load past saturation against this bound.
	MaxPending int
}

// FsyncPolicy selects when the Deterministic cell's durable log forces
// appends to stable storage (Options.LogDir mode).
type FsyncPolicy = core.FsyncPolicy

// The durable log's sync policies: fsync before every group-append
// acknowledgment, fsync on a ~1ms timer, or leave it to the OS page cache.
const (
	FsyncEveryBatch = core.FsyncEveryBatch
	FsyncInterval   = core.FsyncInterval
	FsyncNone       = core.FsyncNone
)

// Guarantee describes what a deployment cell actually promises — the
// honesty layer of the taxonomy.
type Guarantee struct {
	Atomic      bool   // transfers are all-or-nothing (eventually, for sagas)
	Isolated    bool   // concurrent observers cannot see intermediate states
	ExactlyOnce bool   // retries/replays do not double-apply
	Note        string // one-line caveat
}

func (g Guarantee) String() string {
	return fmt.Sprintf("atomic=%v isolated=%v exactly-once=%v (%s)",
		g.Atomic, g.Isolated, g.ExactlyOnce, g.Note)
}
