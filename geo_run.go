package tca

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tca/internal/fabric"
	"tca/internal/workload"
)

// E24 — the geo frontier. RunGeoCell deploys the marketplace as a
// replica group and measures the three-way trade ISSUE 10 names: local
// reads are fast but possibly stale (async mode), home reads are fresh
// but pay the WAN round trip, and sequenced commits are anomaly-free but
// every cross-region commit pays a quorum WAN round trip. The
// latencies reported are modeled (fabric trace) time, not wall-clock;
// the staleness probe mixes real queue wait with the modeled WAN leg.
// The audit path (auditTap) is the cell harness's (concurrency.go),
// driven over a ReplicaGroup.

// GeoConfig configures one E24 cell.
type GeoConfig struct {
	// Mode picks the replication protocol: AsyncReplication deploys the
	// eventual (stateful-dataflow) cell per region, SequencedReplication
	// the deterministic core, every region following the home's log.
	Mode ReplicationMode
	// Regions is the replica count (>= 1; 1 is the no-WAN baseline).
	Regions int
	// WAN is the modeled cross-region one-way latency.
	WAN time.Duration
	// Read routes queries: ReadLocal answers from the origin replica,
	// ReadHome round-trips to region 0.
	Read ReadMode
	// Clients is the closed-loop submitter count per region (default 4).
	// Ignored when Rate > 0.
	Clients int
	// Ops is the total submission budget across all regions.
	Ops int
	// Rate, when > 0, switches to a paced open loop: submissions arrive
	// at this fixed rate, round-robined across regions — the
	// sub-capacity mode the CI grid pins.
	Rate float64
	// Seed varies the op streams deterministically (default 1).
	Seed int64
}

// GeoResult is one cell of the E24 frontier.
type GeoResult struct {
	// Issued counts submissions, Rejected the business aborts (empty
	// carts); Elapsed spans first submission to full quiescence.
	Issued, Rejected int64
	Elapsed          time.Duration

	// ReadP50/P99 are the modeled latencies of the query path under the
	// chosen read mode; WriteP50/P99 the modeled commit latencies — in
	// sequenced mode these carry the quorum WAN round trip, the
	// cross-region commit cost the frontier trades against staleness.
	ReadP50, ReadP99   time.Duration
	WriteP50, WriteP99 time.Duration
	// ReadSamples is the read reservoir's retained sample set, exported
	// so grid repeats can pool the gated read tail.
	ReadSamples []time.Duration

	// Staleness is the replica group's probe: how far behind a local
	// read could be (async mode; zero in sequenced mode and at 1 region).
	Staleness StalenessStats

	// Audited reports the sequenced-mode serializability audit ran;
	// Anomalies are its unexplained divergences (must be empty).
	Audited   bool
	Anomalies []string

	// Converged reports the async post-drain check: every replica
	// byte-identical on the whole key universe. Diverged lists the keys
	// that failed it (must be empty). True trivially in sequenced mode.
	Converged bool
	Diverged  []string
}

// RunGeoCell runs one E24 cell to completion: deploy, drive, drain,
// audit/converge, close.
func RunGeoCell(cfg GeoConfig) (GeoResult, error) {
	if cfg.Regions < 1 {
		return GeoResult{}, fmt.Errorf("tca: E24 needs >= 1 region (got %d)", cfg.Regions)
	}
	if cfg.Clients < 1 {
		cfg.Clients = 4
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	mcfg := workload.MarketConfig{
		Users: 64, Products: 16,
		CartFrac: 0.40, CheckoutFrac: 0.20, PriceFrac: 0.10, // 30% queries
		ZipfS: 1.3,
	}
	model := StatefulDataflow
	if cfg.Mode == SequencedReplication {
		model = Deterministic
	}
	g, err := DeployReplicated(model, MarketApp(), cfg.Regions, GeoOptions{
		Mode: cfg.Mode,
		WAN:  cfg.WAN,
		Seed: cfg.Seed,
		Cell: Options{Clients: cfg.Clients, Workers: 32, SequenceDelay: 80 * time.Microsecond},
	})
	if err != nil {
		return GeoResult{}, err
	}
	defer g.Close()

	// Sequenced mode audits for real: the home core's log order is the
	// serialization, so the precedence-graph verdict must come back
	// empty. Async mode is audited for convergence instead — its local
	// interleavings are exactly the drift E24 prices via the staleness
	// probe, which feeds the auditor's staleness field either way.
	var aud *MarketAuditor
	tap := &auditTap{model: model}
	if cfg.Mode == SequencedReplication {
		aud = NewMarketAuditor()
		defer aud.Close()
		tap.aud = aud
	}

	reads := workload.NewLatencyReservoir(0, cfg.Seed)
	writes := workload.NewLatencyReservoir(0, cfg.Seed+1)
	var issued, rejected atomic.Int64
	var inflight sync.WaitGroup

	// submitOne drives a single op at origin, recording modeled (fabric
	// trace) latency by path and feeding the audit when one is running;
	// the closed loop waits for each op, the paced loop does not.
	submitOne := func(origin int, op workload.MarketOp, reqID string, wait bool) {
		args, _ := json.Marshal(op)
		name := marketOpName(op)
		issued.Add(1)
		tr := fabric.NewTrace()
		var settle func()
		if op.Kind == workload.MarketQueryProduct {
			settle = func() {
				if _, err := g.Query(origin, cfg.Read, reqID, name, args, tr); err != nil {
					rejected.Add(1)
					return
				}
				reads.Record(tr.Total())
			}
		} else {
			id := tap.record(name, args)
			start := time.Now()
			h := g.Submit(origin, reqID, name, args, tr)
			settle = func() {
				_, err := h.Result()
				writes.Record(tr.Total())
				if err != nil {
					rejected.Add(1)
				}
				tap.resolve(id, name, args, h, err, start)
			}
		}
		if wait {
			settle()
			return
		}
		inflight.Add(1)
		go func() { defer inflight.Done(); settle() }()
	}

	start := time.Now()
	if cfg.Rate > 0 {
		// Paced open loop: fixed inter-arrival gap, regions round-robin,
		// one stream per region — the deterministic grid mode.
		gens := make([]*workload.MarketGen, cfg.Regions)
		for r := range gens {
			gens[r] = workload.NewMarket(cfg.Seed+int64(r)*1000, mcfg)
		}
		gap := time.Duration(float64(time.Second) / cfg.Rate)
		workload.Pace(cfg.Ops, func() time.Duration { return gap }, func(i int, _ time.Time) {
			r := i % cfg.Regions
			submitOne(r, gens[r].Next(), fmt.Sprintf("g/%d/%d", r, i), false)
		})
	} else {
		// Closed loop: Clients submitters per region, each serial over
		// its own seeded stream.
		perClient := cfg.Ops / (cfg.Regions * cfg.Clients)
		if perClient < 1 {
			perClient = 1
		}
		var wg sync.WaitGroup
		for r := 0; r < cfg.Regions; r++ {
			for c := 0; c < cfg.Clients; c++ {
				r, c := r, c
				wg.Add(1)
				go func() {
					defer wg.Done()
					gen := workload.NewMarket(cfg.Seed+int64(r)*1000+int64(c), mcfg)
					for i := 0; i < perClient; i++ {
						submitOne(r, gen.Next(), fmt.Sprintf("g/%d/%d/%d", r, c, i), true)
					}
				}()
			}
		}
		wg.Wait()
	}
	inflight.Wait()
	if err := g.Drain(); err != nil {
		return GeoResult{}, err
	}

	out := GeoResult{
		Issued:      issued.Load(),
		Rejected:    rejected.Load(),
		Elapsed:     time.Since(start),
		ReadP50:     reads.P50(),
		ReadP99:     reads.P99(),
		WriteP50:    writes.P50(),
		WriteP99:    writes.P99(),
		ReadSamples: reads.Samples(),
		Staleness:   g.Staleness(),
		Converged:   true,
	}
	if aud != nil {
		// Fold the probe into the auditor too: AuditStats carries the
		// staleness block alongside the anomaly counters.
		aud.ObserveStaleness(out.Staleness)
		anomalies, err := aud.Verify(g.CellAt(g.Home()))
		if err != nil {
			return GeoResult{}, err
		}
		out.Audited = true
		out.Anomalies = anomalies
	}
	if cfg.Mode == AsyncReplication && cfg.Regions > 1 {
		out.Diverged = g.divergedKeys(marketKeyUniverse(mcfg))
		out.Converged = len(out.Diverged) == 0
	}
	return out, nil
}

// marketKeyUniverse enumerates every key a marketplace of this size can
// touch — the finite universe the convergence check walks.
func marketKeyUniverse(cfg workload.MarketConfig) []string {
	keys := make([]string, 0, 2*cfg.Users+2*cfg.Products)
	for u := 0; u < cfg.Users; u++ {
		keys = append(keys, workload.CartKey(u), workload.OrderKey(u))
	}
	for p := 0; p < cfg.Products; p++ {
		keys = append(keys, workload.PriceKey(p), workload.MarketStockKey(p))
	}
	return keys
}

// divergedKeys returns every key on which any replica disagrees with
// region 0, in "key: region i = x, region 0 = y" form. Empty means the
// group converged exactly.
func (g *ReplicaGroup) divergedKeys(universe []string) []string {
	var diffs []string
	for _, key := range universe {
		base, baseFound, err := g.ReadLocal(0, key)
		if err != nil {
			diffs = append(diffs, fmt.Sprintf("%s: read failed at region 0: %v", key, err))
			continue
		}
		for r := 1; r < g.Regions(); r++ {
			got, found, err := g.ReadLocal(r, key)
			switch {
			case err != nil:
				diffs = append(diffs, fmt.Sprintf("%s: read failed at region %d: %v", key, r, err))
			case found != baseFound || string(got) != string(base):
				diffs = append(diffs, fmt.Sprintf("%s: region %d = %q (found=%v), region 0 = %q (found=%v)",
					key, r, got, found, base, baseFound))
			}
		}
	}
	return diffs
}
