package main

import "tca"

// Load shape shared by every workload. All state is in memory and the
// program has no cache of its own, so there is no "larger than cache"
// variant: 32 warehouses address ~64k keys against 16 ops in flight.
const (
	warehouses    = 32
	districts     = 10 // workload.DefaultTPCCConfig
	sessions      = 4
	sessionDepth  = 4  // ops in flight per session on the closed loops
	cellClients   = 16 // tca.Options.Clients: the pooled cells' executing slots
	coreWorkers   = 32 // tca.Options.Workers
	openLoopRate  = 2000.0
	openLoopDepth = 64 // per session; the open loop must not block on its own cap
	// shedRetryBudget is the sessions' attempts per shed submission. The
	// box stalls the whole process for 10-40 ms now and then; the arrivals
	// that fall due meanwhile land at once, overflow the cell's bounded
	// queue and are shed. Twice the default budget lets the session ride
	// such a burst out, so sheds and retries are exercised and no op fails.
	shedRetryBudget = 16
	envNodes        = 3
	timedRounds     = 3
	// setupCount cells are deployed and closed per timed run for setup_s,
	// with setupCalibRuns kernel runs (~10 ms) before and after the batch
	// for its speed factor.
	setupCount     = 30
	setupCalibRuns = 25
	minCompleted   = 0.98 // open loop: completed/arrived below this is a growing backlog
	unloadedOps    = 600
	watchdogPerRun = 170 // seconds; the contract allows 180
)

// workloadSpec is one benchmark workload: a TPC-C mix driven against one
// programming-model cell.
type workloadSpec struct {
	Name  string
	Model tca.ProgrammingModel
	// QueryFrac is the share of ReadOnly OrderStatus/StockLevel ops.
	QueryFrac float64
	// OpenRate > 0 makes the workload an open loop at that many arrivals
	// per second; zero is the 4×4 closed loop.
	OpenRate float64
	// Exact workloads fail the run on any settled-sum drift. NotExactWhy
	// says why a workload ships inexact.
	Exact       bool
	NotExactWhy string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why string
}

var workloads = []workloadSpec{
	{
		Name: "tpcc-core", Model: tca.Deterministic, Exact: true,
		Why: "closed loop 4x4, write mix, deterministic cell on a real fsync-every-batch WAL: wal, core and mq do the work; it waits on fsync, so codec gains show in cpu/allocs, not tx_s",
	},
	{
		Name: "tpccq-core", Model: tca.Deterministic, QueryFrac: 0.8, Exact: true,
		Why: "same cell, 80% ReadOnly queries: reads skip log, broker and schedule slot, so a write-path gain that taxes the read path shows here",
	},
	{
		Name: "tpcc-actors", Model: tca.Actors, Exact: true,
		Why: "closed loop 4x4, write mix, actor cell: 2PL+2PC with wound-wait over internal/store saturates both cores; wal, mq and core do nothing",
	},
	{
		Name: "tpcc-faas", Model: tca.CloudFunctions, Exact: true,
		Why: "closed loop 4x4, write mix, cloud-functions cell: entity critical sections over internal/store; guards the third pooled cell",
	},
	{
		Name: "tpcc-dataflow", Model: tca.StatefulDataflow, Exact: true,
		Why: "closed loop 4x4, write mix, stateful-dataflow cell: statefun, dataflow, mq and per-message JSON envelopes; accept is far below apply, so the two latencies separate",
	},
	{
		Name: "tpcc-micro-open", Model: tca.Microservices, OpenRate: openLoopRate,
		Exact:       false,
		NotExactWhy: "internal/store loses Serializable updates on >=2 cores (ROADMAP item 1)",
		Why:         "open loop, seeded Poisson at 2000 ops/s (about a third of capacity), microservices cell: micro, saga, rpc, dedup and OCC store; latency from due time is service time, not saturation",
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
