package main

// The metric catalogue: every number the benchmark prints, by name. The
// root BENCHMARK.json carries the name, unit and direction of each (and
// the bound of each end-to-end metric); the layer, the source and the
// end-to-end metric a layer metric should move live here and in
// README.md, because BENCHMARK.json admits no further keys. The lint test
// holds the two files to each other.

// metricDef is one end-to-end metric. Bound is the share of the parent's
// median by which it may worsen before a change counts as a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// The bounds are at least three times the widest run-to-run spread
// (interquartile range over ten seeds ÷ median) seen for the metric on any
// workload on the build box; README.md records the spreads.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"tx_s", "1/s", "higher", 0.2},
	{"accept_p50_us", "us", "lower", 0.25},
	{"apply_p50_us", "us", "lower", 0.2},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.03},
	{"alloc_kb_per_op", "KiB", "lower", 0.15},
	{"retained_b_per_op", "B", "lower", 0.25},
}

// move names one end-to-end metric on one workload that a layer metric
// is expected to move ("*" = every workload).
type move struct {
	Metric   string
	Workload string
}

// layerDef is one per-layer metric. Source is "probe" (the standalone
// layers pass) or "traced" (the traced round of the workload being run).
type layerDef struct {
	Name   string
	Unit   string
	Better string
	Layer  string
	Source string
	Moves  []move
}

func mv(pairs ...string) []move {
	out := make([]move, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, move{pairs[i], pairs[i+1]})
	}
	return out
}

// Shorthands for the moves most layers share.
var (
	cpuEverywhere  = mv("cpu_us_per_op", "*")
	codecMoves     = mv("allocs_per_op", "*", "cpu_us_per_op", "*", "tx_s", "tpcc-actors", "tx_s", "tpcc-faas", "tx_s", "tpcc-dataflow")
	sessionMoves   = mv("accept_p50_us", "*")
	walMoves       = mv("accept_p50_us", "tpcc-core", "apply_p50_us", "tpcc-core", "tx_s", "tpcc-core")
	mqMoves        = mv("cpu_us_per_op", "tpcc-dataflow", "tx_s", "tpcc-dataflow", "allocs_per_op", "tpcc-core")
	coreMoves      = mv("tx_s", "tpcc-core", "apply_p50_us", "tpcc-core")
	coreReadMoves  = mv("tx_s", "tpccq-core", "apply_p50_us", "tpccq-core")
	storeMoves     = mv("cpu_us_per_op", "tpcc-actors", "tx_s", "tpcc-actors", "cpu_us_per_op", "tpcc-faas", "tx_s", "tpcc-faas", "cpu_us_per_op", "tpcc-micro-open")
	actorMoves     = mv("tx_s", "tpcc-actors", "apply_p50_us", "tpcc-actors")
	faasMoves      = mv("tx_s", "tpcc-faas", "apply_p50_us", "tpcc-faas")
	microMoves     = mv("apply_p50_us", "tpcc-micro-open", "cpu_us_per_op", "tpcc-micro-open", "allocs_per_op", "tpcc-micro-open")
	dataflowMoves  = mv("tx_s", "tpcc-dataflow", "apply_p50_us", "tpcc-dataflow", "allocs_per_op", "tpcc-dataflow")
	cellMoves      = mv("apply_p50_us", "*")
	fabricMoves    = mv("cpu_us_per_op", "tpcc-actors", "cpu_us_per_op", "tpcc-micro-open")
	correctness    = mv("correct", "*")
	openLoopHealth = mv("apply_p50_us", "tpcc-micro-open", "failed", "tpcc-micro-open")
)

var perLayerMetrics = []layerDef{
	// internal/workload — the harness's share of the cost of an op.
	{"workload.next_ns", "ns", "lower", "workload", "probe", cpuEverywhere},
	{"workload.args_bytes", "B", "lower", "workload", "probe", mv("alloc_kb_per_op", "*")},
	{"workload.keys_per_op", "count", "lower", "workload", "probe", cpuEverywhere},

	// app.go, tpcc.go — op codec, declared keys, bodies.
	{"app.encode_ns", "ns", "lower", "app", "probe", cpuEverywhere},
	{"app.keys_ns", "ns", "lower", "app", "probe", codecMoves},
	{"app.keys_allocs", "count", "lower", "app", "probe", codecMoves},
	{"app.body_ns", "ns", "lower", "app", "probe", codecMoves},
	{"app.body_allocs", "count", "lower", "app", "probe", codecMoves},

	// session.go, submit.go, shed.go.
	{"session.accept_p50_ns", "ns", "lower", "session", "traced", sessionMoves},
	{"session.wait_p50_ns", "ns", "lower", "session", "traced", cellMoves},
	{"session.retries", "count", "lower", "session", "traced", openLoopHealth},
	{"session.sheds", "count", "lower", "session", "traced", openLoopHealth},

	// cell_*.go.
	{"cell.unloaded_p50_us", "us", "lower", "cell", "traced", cellMoves},
	{"cell.settle_ms", "ms", "lower", "cell", "traced", mv("setup_s", "*")},
	{"cell.trace_overhead_frac", "ratio", "lower", "cell", "traced", mv("tx_s", "*")},
	{"cell.aborts_per_op", "ratio", "lower", "cell", "traced", actorMoves},
	{"cell.apply_p99_us", "us", "lower", "cell", "traced", cellMoves},

	// internal/fabric — modeled latency is charged, not slept.
	{"fabric.sim_p50_us", "us", "lower", "fabric", "traced", fabricMoves},
	{"fabric.sim_p99_us", "us", "lower", "fabric", "traced", fabricMoves},
	{"fabric.hops_per_op", "count", "lower", "fabric", "traced", fabricMoves},
	{"fabric.send_ns", "ns", "lower", "fabric", "probe", fabricMoves},

	// internal/wal.
	{"wal.append1_us", "us", "lower", "wal", "probe", walMoves},
	{"wal.append16_us", "us", "lower", "wal", "probe", walMoves},
	{"wal.sync_us", "us", "lower", "wal", "probe", walMoves},
	{"wal.bytes_per_record", "B", "lower", "wal", "probe", walMoves},
	{"wal.replay_ns_per_record", "ns", "lower", "wal", "probe", mv("setup_s", "tpcc-core")},
	{"wal.merkle16_ns", "ns", "lower", "wal", "probe", mv("cpu_us_per_op", "tpcc-core")},
	{"wal.dir_bytes_per_op", "B", "lower", "wal", "traced", walMoves},

	// internal/mq.
	{"mq.produce_ns", "ns", "lower", "mq", "probe", mqMoves},
	{"mq.produce_allocs", "count", "lower", "mq", "probe", mqMoves},
	{"mq.fetch_ns_per_record", "ns", "lower", "mq", "probe", mqMoves},
	{"mq.txn_commit_ns", "ns", "lower", "mq", "probe", mqMoves},
	{"mq.poll_ack_ns", "ns", "lower", "mq", "probe", mqMoves},

	// internal/core.
	{"core.submit_noop_us", "us", "lower", "core", "probe", coreMoves},
	{"core.submit_noop_allocs", "count", "lower", "core", "probe", mv("allocs_per_op", "tpcc-core")},
	{"core.readonly_us", "us", "lower", "core", "probe", coreReadMoves},
	{"core.txns_per_group_append", "count", "higher", "core", "traced", coreMoves},
	{"core.wal_records_per_group", "count", "higher", "core", "traced", coreMoves},
	{"core.commits", "count", "higher", "core", "traced", coreMoves},
	{"core.aborts", "count", "lower", "core", "traced", coreMoves},
	{"core.dedup_hits", "count", "lower", "core", "traced", coreMoves},
	{"core.shed", "count", "lower", "core", "traced", coreMoves},
	{"core.readonly", "count", "higher", "core", "traced", coreReadMoves},

	// internal/store.
	{"store.update_ns", "ns", "lower", "store", "probe", storeMoves},
	{"store.update_allocs", "count", "lower", "store", "probe", storeMoves},
	{"store.view_ns", "ns", "lower", "store", "probe", storeMoves},
	{"store.twopl_txn_ns", "ns", "lower", "store", "probe", storeMoves},
	{"store.retry_frac_c4", "ratio", "lower", "store", "probe", storeMoves},
	{"store.lost_updates_c4", "count", "lower", "store", "probe", correctness},
	{"store.exhausted_c8", "count", "lower", "store", "probe", correctness},

	// internal/actor.
	{"actor.txn_us", "us", "lower", "actor", "probe", actorMoves},
	{"actor.txn_allocs", "count", "lower", "actor", "probe", mv("allocs_per_op", "tpcc-actors")},
	{"actor.txn_hops", "count", "lower", "actor", "probe", actorMoves},
	{"actor.readonly_us", "us", "lower", "actor", "probe", actorMoves},
	{"actor.retries_per_txn_c4", "ratio", "lower", "actor", "probe", actorMoves},
	{"actor.exhausted_frac_c4", "ratio", "lower", "actor", "probe", actorMoves},
	{"actor.activations", "count", "lower", "actor", "probe", actorMoves},

	// internal/faas.
	{"faas.invoke_us", "us", "lower", "faas", "probe", faasMoves},
	{"faas.invoke_allocs", "count", "lower", "faas", "probe", mv("allocs_per_op", "tpcc-faas")},
	{"faas.cold_start_frac", "ratio", "lower", "faas", "probe", faasMoves},
	{"faas.critical_sections_per_invoke", "count", "lower", "faas", "probe", faasMoves},

	// internal/micro, rpc, saga, dedup.
	{"rpc.call_ns", "ns", "lower", "micro", "probe", microMoves},
	{"rpc.call_allocs", "count", "lower", "micro", "probe", microMoves},
	{"rpc.retries", "count", "lower", "micro", "probe", microMoves},
	{"micro.invoke_us", "us", "lower", "micro", "probe", microMoves},
	{"micro.invoke_allocs", "count", "lower", "micro", "probe", microMoves},
	{"saga.execute_us", "us", "lower", "micro", "probe", microMoves},
	{"saga.execute_allocs", "count", "lower", "micro", "probe", microMoves},
	{"dedup.do_ns", "ns", "lower", "micro", "probe", microMoves},

	// internal/statefun, dataflow.
	{"statefun.hop_us", "us", "lower", "statefun", "probe", dataflowMoves},
	{"statefun.hop_allocs", "count", "lower", "statefun", "probe", dataflowMoves},
	{"statefun.fanout8_us", "us", "lower", "statefun", "probe", dataflowMoves},
	{"statefun.checkpoint_ms", "ms", "lower", "statefun", "probe", dataflowMoves},
	{"dataflow.records_per_op", "count", "lower", "statefun", "traced", dataflowMoves},
	{"dataflow.checkpoints", "count", "lower", "statefun", "traced", dataflowMoves},

	// audit.go — off in the timed pass; the correctness read-out. The final
	// Verify is skipped on the dataflow cell (drive.go), whose verdict
	// metrics therefore read 0.
	{"audit.record_observe_us", "us", "lower", "audit", "traced", correctness},
	{"audit.verify_ms", "ms", "lower", "audit", "traced", correctness},
	{"audit.anomalies", "count", "lower", "audit", "traced", correctness},
	{"audit.reordered", "count", "lower", "audit", "traced", correctness},
	{"audit.graph_cycles", "count", "lower", "audit", "traced", correctness},
	{"audit.violations", "count", "lower", "audit", "traced", correctness},

	// The validity read-outs of the traced round: they may be zero, so
	// they cannot be end-to-end metrics with a relative bound.
	{"check.fail_frac", "ratio", "lower", "check", "traced", correctness},
	{"check.drift_keys", "count", "lower", "check", "traced", correctness},
	{"check.late_p99_us", "us", "lower", "check", "traced", openLoopHealth},
	{"check.completed_frac", "ratio", "higher", "check", "traced", openLoopHealth},
}
