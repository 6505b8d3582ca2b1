package tca

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tca/internal/core"
	"tca/internal/fabric"
	"tca/internal/mq"
	"tca/internal/region"
	"tca/internal/vclock"
)

// This file is the geo-replication layer: DeployReplicated wraps any
// cell as a replica group spanning N regions of a region.Topology, with
// the WAN modeled in simulated time (region latencies charge Traces,
// like every other fabric tier — geo experiments report modeled
// latencies that do not depend on the host).
//
// Two replication modes carry the paper's central trade across the WAN:
//
//   - AsyncReplication (the eventual cells): every region accepts writes
//     locally; each committed op's write-set is captured by the cell's
//     write observer (cell.go) as the write records the body made, Puts
//     stamped with a version, and shipped to the peers on a short cadence
//     (GeoOptions.ShipInterval), where the geo/apply op replays the
//     records through the peer cell's own Txn. Commutative writes (Add,
//     PushCap) merge exactly — they are delta/merge operations by
//     construction — and plain Puts merge last-writer-wins under a
//     per-region Lamport clock (internal/vclock) with the region index
//     as tiebreak. Local reads never pay the WAN but may be stale; Drain
//     flushes the shippers and
//     reconciles every Put key to its global LWW winner, so replicas
//     converge EXACTLY on quiescence. The staleness probe
//     (StalenessStats) quantifies the divergence the auditor would
//     otherwise have to forbid: replication lag in committed txns and in
//     wall-modeled time, and the max per-key divergence window.
//
//   - SequencedReplication (the deterministic core only): every write goes
//     to the home region's core, and every other region's core follows
//     the home's input logs (core.Runtime.Follow) — Calvin's replication
//     of the input, not of the effects — so all replicas execute the same
//     log in the same order. A write resolves once the home has applied it
//     and every follower has executed it, charged one round trip to a
//     majority (Topology.QuorumRTT): cross-region commits pay >= 1 WAN
//     RTT, and every replica is serializable against the same order (the
//     auditor's verdict is exactly zero anomalies).
//
// Reads choose their consistency per request: ReadLocal serves from the
// submitting region's replica (fast, possibly stale under async);
// ReadHome round-trips the WAN to the home region (region 0), paying
// latency for the freshest replica. E24 (RunGeoCell) measures the
// resulting frontier.

// ReplicationMode selects how a replica group keeps its regions in sync.
type ReplicationMode int

const (
	// AsyncReplication ships per-key versioned deltas after local commit.
	AsyncReplication ReplicationMode = iota
	// SequencedReplication sends every write to the home region's
	// deterministic core, whose input log every region's core follows, so
	// all regions apply the identical log order.
	SequencedReplication
)

func (m ReplicationMode) String() string {
	if m == SequencedReplication {
		return "sequenced"
	}
	return "async"
}

// ReadMode selects which replica answers a read.
type ReadMode int

const (
	// ReadLocal answers from the submitting region's replica: no WAN
	// cost, staleness bounded by the replication lag.
	ReadLocal ReadMode = iota
	// ReadHome round-trips the WAN to the home region's replica.
	ReadHome
)

func (m ReadMode) String() string {
	if m == ReadHome {
		return "home"
	}
	return "local"
}

// geoApplyOp is the replication op DeployReplicated registers on every
// async replica: it applies a shipped delta batch through the cell's own
// Txn machinery. It is infrastructure, not application traffic — its
// writes are never re-captured or re-shipped.
const geoApplyOp = "geo/apply"

// defaultShipInterval is the async shipper cadence when GeoOptions
// leaves it zero.
const defaultShipInterval = time.Millisecond

// geoShedRetry paces shipper retries when a replica's admission control
// sheds a replication batch: replication is never dropped, only delayed.
const geoShedRetry = 200 * time.Microsecond

// geoRegionNodes sizes each region's intra-region cluster.
const geoRegionNodes = 3

// StalenessStats is the auditor's staleness probe for one async replica
// group: how far the replicas trail the writes they have accepted.
// Real time (queue wait, measured) and modeled time (WAN, charged) are
// reported separately and summed into MaxLag, matching the repo's
// real-vs-simulated latency convention.
type StalenessStats struct {
	// ShippedBatches and ShippedWrites count replication traffic.
	ShippedBatches, ShippedWrites int64
	// FailedApplies counts batch deliveries a peer's cell refused with
	// anything but a shed (sheds are retried until accepted): that peer is
	// missing the batch's writes. Drain returns the first such error.
	FailedApplies int64
	// MaxLagTxns is the peak number of locally committed txns not yet
	// applied on every peer — replication lag in committed txns.
	MaxLagTxns int64
	// MaxShipWait is the peak real time a committed write-set waited in
	// the outbox before shipping (bounded by the ship interval plus
	// scheduling).
	MaxShipWait time.Duration
	// MaxWANLag is the peak modeled WAN latency a batch paid to reach
	// its slowest peer.
	MaxWANLag time.Duration
	// MaxLag is the peak commit-to-fully-replicated delay: ship wait
	// (real) + WAN (modeled) + remote apply (real) — replication lag in
	// wall-modeled time.
	MaxLag time.Duration
	// MaxKeyWindow is the peak per-key divergence window: the longest
	// one key continuously had shipped-but-not-everywhere-applied
	// writes outstanding.
	MaxKeyWindow time.Duration
}

// GeoOptions configures DeployReplicated.
type GeoOptions struct {
	// Mode selects the replication mode (default AsyncReplication).
	Mode ReplicationMode
	// WAN is the cross-region base latency (default 20ms): the group's
	// region.Topology charges it to every message between regions.
	WAN time.Duration
	// ShipInterval is the async shipper cadence (default 1ms). The
	// staleness bound is ShipInterval + the pair's WAN latency.
	ShipInterval time.Duration
	// Seed drives the per-region fabric seeds and the topology jitter
	// (default 1).
	Seed int64
	// Cell passes deployment options to every region's cell.
	Cell Options
}

// geoVersion orders plain Puts across regions: Lamport time with the
// origin region index as tiebreak — a total order, so last-writer-wins
// merges commute and every replica picks the same winner.
type geoVersion struct {
	T uint64 `json:"t"`
	R int    `json:"r"`
}

func (v geoVersion) before(o geoVersion) bool {
	return v.T < o.T || (v.T == o.T && v.R < o.R)
}

// geoWrite is one captured write in shippable form: the record the body
// made and, for a Put, the version that orders it against the other
// regions' Puts of the key.
type geoWrite struct {
	write
	Ver geoVersion `json:"ver"`
}

// geoOutboxEntry is one committed op's sealed write-set waiting for the
// shipper. A shipped batch is the entries' writes in order, as one JSON
// []geoWrite.
type geoOutboxEntry struct {
	writes []geoWrite
	sealed time.Time
}

// geoReplica is one region's deployment within a replica group.
type geoReplica struct {
	idx  int
	name string
	cell *cell

	// Async-mode state. open holds the write-sets of in-flight ops by
	// request id, as captured from the body's latest execution: when the
	// submission's handle resolves successfully its set is sealed into the
	// outbox for shipping, and on failure it is dropped — so only writes
	// that actually committed replicate.
	openMu sync.Mutex
	open   map[string][]geoWrite
	clock  vclock.Lamport
	verMu  sync.Mutex
	vers   map[string]geoVersion // key -> version of the Put value applied
	outMu  sync.Mutex
	outbox []geoOutboxEntry
	shipN  atomic.Int64 // reqID source for apply submissions
}

// capture is the replica cell's write observer. A re-execution of the body
// (conflict retry, recovery replay) replaces the captured set, so a
// write-set is never double-shipped; geo/apply's own writes are
// infrastructure and never re-captured.
func (r *geoReplica) capture(reqID, op string, writes []write) {
	if op == geoApplyOp {
		return
	}
	set := make([]geoWrite, len(writes))
	for i, w := range writes {
		set[i].write = w
		if w.Verb == verbPut {
			set[i].Ver = r.stampPut(w.Key)
		}
	}
	r.openMu.Lock()
	r.open[reqID] = set
	r.openMu.Unlock()
}

// take removes and returns the write-set captured for reqID.
func (r *geoReplica) take(reqID string) []geoWrite {
	r.openMu.Lock()
	defer r.openMu.Unlock()
	set := r.open[reqID]
	delete(r.open, reqID)
	return set
}

// stampPut assigns a new LWW version to a local Put and advances the
// replica's record of the key's winning version.
func (r *geoReplica) stampPut(key string) geoVersion {
	v := geoVersion{T: r.clock.Tick(), R: r.idx}
	r.verMu.Lock()
	if cur, ok := r.vers[key]; !ok || cur.before(v) {
		r.vers[key] = v
	}
	r.verMu.Unlock()
	return v
}

// applyRemotePut decides one incoming Put under LWW: it observes the
// remote version on the local clock (so later local writes order after
// it) and reports whether the incoming version is at least the local
// winner — equal versions are the same write, re-applied idempotently.
func (r *geoReplica) applyRemotePut(key string, ver geoVersion) bool {
	r.clock.Observe(ver.T)
	r.verMu.Lock()
	defer r.verMu.Unlock()
	cur, ok := r.vers[key]
	if ok && ver.before(cur) {
		return false
	}
	r.vers[key] = ver
	return true
}

// ReplicaGroup is one application deployed across the regions of a
// topology — what DeployReplicated returns.
type ReplicaGroup struct {
	app  *App
	mode ReplicationMode
	top  *region.Topology
	reps []*geoReplica

	shipEvery time.Duration
	stopShip  chan struct{}
	shipWG    sync.WaitGroup
	sealWG    sync.WaitGroup // outstanding sealOnCommit watchers
	flushReq  chan chan struct{}

	// Staleness probe state.
	stMu     sync.Mutex
	st       StalenessStats
	pendTxns int64
	keyOpen  map[string]time.Time // key -> divergence window start
	keyPend  map[string]int       // key -> outstanding shipped-batch count
	applyErr error                // first failed batch apply (see FailedApplies)
	closed   atomic.Bool
}

// DeployReplicated deploys app as a replica group: one cell per region,
// kept in sync per GeoOptions.Mode. Regions are named "region-<i>" and
// are GeoOptions.WAN apart; region 0 is the home region.
// SequencedReplication needs the Deterministic model.
func DeployReplicated(model ProgrammingModel, app *App, regions int, gopts GeoOptions) (*ReplicaGroup, error) {
	if regions < 1 {
		return nil, fmt.Errorf("tca: replica group needs >= 1 region (got %d)", regions)
	}
	if gopts.Mode == SequencedReplication && model != Deterministic {
		return nil, fmt.Errorf("tca: sequenced replication follows the deterministic core's input log; %v has none", model)
	}
	seed := gopts.Seed
	if seed == 0 {
		seed = 1
	}
	wan := gopts.WAN
	if wan <= 0 {
		wan = 20 * time.Millisecond
	}
	shipEvery := gopts.ShipInterval
	if shipEvery <= 0 {
		shipEvery = defaultShipInterval
	}

	cfg := fabric.DefaultConfig()
	cfg.Seed = seed
	names := make([]string, regions)
	for i := range names {
		names[i] = fmt.Sprintf("region-%d", i)
	}
	top := region.New(cfg, wan, names...)

	g := &ReplicaGroup{
		app:       app,
		mode:      gopts.Mode,
		top:       top,
		shipEvery: shipEvery,
		stopShip:  make(chan struct{}),
		flushReq:  make(chan chan struct{}),
		keyOpen:   make(map[string]time.Time),
		keyPend:   make(map[string]int),
	}
	for i, name := range top.Names() {
		rep := &geoReplica{
			idx:  i,
			name: name,
			open: make(map[string][]geoWrite),
			vers: make(map[string]geoVersion),
		}
		// Each region is its own intra-region cluster — the per-region
		// analogue of NewEnv. Its sends never leave the region; the
		// topology charges the WAN between regions.
		cfg := fabric.DefaultConfig()
		cfg.Seed = seed + int64(i)
		ids := make([]fabric.NodeID, geoRegionNodes)
		for n := range ids {
			ids[n] = fabric.NodeID(fmt.Sprintf("%s-node-%d", name, n))
		}
		cluster := fabric.NewCluster(cfg, ids...)
		env := &Env{Cluster: cluster, Broker: mq.NewBroker()}

		deployApp := app
		var observe writeObserver
		if g.mode == AsyncReplication {
			deployApp = app.with(rep.applyOp())
			if regions > 1 { // a lone region has no peer to ship a captured set to
				observe = rep.capture
			}
		}
		cell, err := deploy(model, deployApp, env, gopts.Cell, observe)
		if err != nil {
			for _, r := range g.reps {
				r.cell.Close()
			}
			return nil, err
		}
		rep.cell = cell
		g.reps = append(g.reps, rep)
	}

	if g.mode == AsyncReplication && regions > 1 {
		g.shipWG.Add(1)
		go g.shipLoop()
	}
	if g.mode == SequencedReplication {
		home := CoreRuntime(g.reps[g.Home()].cell)
		for _, rep := range g.reps[1:] {
			if err := CoreRuntime(rep.cell).Follow(home); err != nil {
				g.Close()
				return nil, err
			}
		}
	}
	return g, nil
}

// applyOp is the replication op an async replica registers next to the
// application's own: it replays a shipped batch of write records through
// the cell's own Txn machinery, Puts gated by last-writer-wins.
func (r *geoReplica) applyOp() Op {
	return Op{
		Name: geoApplyOp,
		Keys: func(args []byte) []string {
			var batch []geoWrite
			json.Unmarshal(args, &batch)
			keys := make([]string, len(batch))
			for i, wr := range batch {
				keys[i] = wr.Key
			}
			return keys // App.keysOf deduplicates
		},
		Body: func(tx Txn, args []byte) ([]byte, error) {
			var batch []geoWrite
			if err := json.Unmarshal(args, &batch); err != nil {
				return nil, err
			}
			for _, wr := range batch {
				var err error
				switch wr.Verb {
				case verbAdd:
					err = tx.Add(wr.Key, wr.Delta)
				case verbPush:
					err = tx.PushCap(wr.Key, wr.ID, wr.Cap)
				case verbPut:
					if r.applyRemotePut(wr.Key, wr.Ver) {
						err = tx.Put(wr.Key, wr.Val)
					}
				default:
					err = fmt.Errorf("tca: geo write with verb %d", wr.Verb)
				}
				if err != nil {
					return nil, err
				}
			}
			return nil, nil
		},
	}
}

// Regions returns the number of regions.
func (g *ReplicaGroup) Regions() int { return len(g.reps) }

// Mode returns the replication mode.
func (g *ReplicaGroup) Mode() ReplicationMode { return g.mode }

// CellAt returns region i's cell (audits, crash/recovery tests).
func (g *ReplicaGroup) CellAt(i int) Cell { return g.reps[i].cell }

// Home returns the home region index (always 0).
func (g *ReplicaGroup) Home() int { return 0 }

// Submit starts a write op at the origin region. Async mode commits
// locally and replicates in the background; sequenced mode submits to the
// home region's log — the trace is charged the WAN to the home plus one
// quorum round trip before the handle resolves. Read-only ops should use
// Query instead.
func (g *ReplicaGroup) Submit(origin int, reqID, opName string, args []byte, tr *fabric.Trace) Handle {
	if origin < 0 || origin >= len(g.reps) {
		return resolvedHandle(nil, fmt.Errorf("tca: unknown origin region %d", origin))
	}
	if g.mode == SequencedReplication {
		return g.submitSequenced(origin, reqID, opName, args, tr)
	}
	rep := g.reps[origin]
	h := rep.cell.Submit(reqID, opName, args, tr)
	if op, ok := g.app.Op(opName); ok && !op.ReadOnly && len(g.reps) > 1 {
		g.sealWG.Add(1)
		go func() {
			defer g.sealWG.Done()
			g.sealOnCommit(rep, reqID, h)
		}()
	}
	return h
}

// Invoke is Submit(...).Result().
func (g *ReplicaGroup) Invoke(origin int, reqID, opName string, args []byte, tr *fabric.Trace) ([]byte, error) {
	return g.Submit(origin, reqID, opName, args, tr).Result()
}

// sealOnCommit watches one async submission and, on success, moves its
// captured write-set into the outbox for shipping. Failed ops (business
// aborts, sheds) never replicate.
func (g *ReplicaGroup) sealOnCommit(rep *geoReplica, reqID string, h Handle) {
	_, err := h.Result()
	writes := rep.take(reqID)
	if err != nil || len(writes) == 0 {
		return
	}
	now := time.Now()
	rep.outMu.Lock()
	rep.outbox = append(rep.outbox, geoOutboxEntry{writes: writes, sealed: now})
	rep.outMu.Unlock()

	g.stMu.Lock()
	g.pendTxns++
	if g.pendTxns > g.st.MaxLagTxns {
		g.st.MaxLagTxns = g.pendTxns
	}
	for _, w := range writes {
		if _, open := g.keyOpen[w.Key]; !open {
			g.keyOpen[w.Key] = now
		}
		g.keyPend[w.Key]++
	}
	g.stMu.Unlock()
}

// Query runs a read-only op under the chosen read mode: ReadLocal at the
// origin replica (no WAN), ReadHome at region 0 with the WAN round trip
// charged to the trace.
func (g *ReplicaGroup) Query(origin int, mode ReadMode, reqID, opName string, args []byte, tr *fabric.Trace) ([]byte, error) {
	if origin < 0 || origin >= len(g.reps) {
		return nil, fmt.Errorf("tca: unknown origin region %d", origin)
	}
	target := origin
	if mode == ReadHome {
		target = g.Home()
		if target != origin {
			g.top.Charge(g.reps[origin].name, g.reps[target].name, tr)
			defer g.top.Charge(g.reps[target].name, g.reps[origin].name, tr)
		}
	}
	return g.reps[target].cell.Invoke(reqID, opName, args, tr)
}

// ReadLocal returns the settled value of key at region i's replica.
func (g *ReplicaGroup) ReadLocal(i int, key string) ([]byte, bool, error) {
	return g.reps[i].cell.Read(key)
}

// shipLoop is the async shipper: every ShipInterval it drains each
// region's outbox into one batch per peer and applies it, exactly once
// per peer, through the peer cell's own machinery.
func (g *ReplicaGroup) shipLoop() {
	defer g.shipWG.Done()
	tick := time.NewTicker(g.shipEvery)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			g.shipAll()
		case done := <-g.flushReq:
			g.shipAll()
			close(done)
		case <-g.stopShip:
			g.shipAll()
			return
		}
	}
}

// apply delivers one replication batch to the replica through its cell's
// geo/apply op. A shed is retried until accepted — replication is delayed,
// never dropped; any other error is the caller's to report.
func (r *geoReplica) apply(reqID string, batch []byte, tr *fabric.Trace) error {
	for {
		_, err := r.cell.Invoke(reqID, geoApplyOp, batch, tr)
		if !errors.Is(err, ErrOverloaded) {
			return err
		}
		time.Sleep(geoShedRetry)
	}
}

// shipAll flushes every region's outbox to every peer, synchronously —
// when it returns, everything sealed before the call has applied
// everywhere, or is counted in FailedApplies. Peers are shipped in parallel; the probe's lag numbers
// combine the real queue wait with the modeled WAN charge.
func (g *ReplicaGroup) shipAll() {
	for _, src := range g.reps {
		src.outMu.Lock()
		entries := src.outbox
		src.outbox = nil
		src.outMu.Unlock()
		if len(entries) == 0 {
			continue
		}
		var writes []geoWrite
		oldest := entries[0].sealed
		for _, e := range entries {
			writes = append(writes, e.writes...)
			if e.sealed.Before(oldest) {
				oldest = e.sealed
			}
		}
		wait := time.Since(oldest)
		batch, _ := json.Marshal(writes)
		shipID := src.shipN.Add(1)

		var maxWAN time.Duration
		var failed []error
		var wanMu sync.Mutex
		var wg sync.WaitGroup
		for _, dst := range g.reps {
			if dst == src {
				continue
			}
			dst := dst
			wg.Add(1)
			go func() {
				defer wg.Done()
				tr := fabric.NewTrace()
				wan := g.top.Charge(src.name, dst.name, tr)
				err := dst.apply(fmt.Sprintf("geo/%d/%d/%d", src.idx, dst.idx, shipID), batch, tr)
				wanMu.Lock()
				if wan > maxWAN {
					maxWAN = wan
				}
				if err != nil {
					failed = append(failed, fmt.Errorf("tca: geo: region %d did not apply batch %d of region %d: %w", dst.idx, shipID, src.idx, err))
				}
				wanMu.Unlock()
			}()
		}
		wg.Wait()

		g.stMu.Lock()
		g.st.ShippedBatches++
		g.st.ShippedWrites += int64(len(writes))
		g.st.FailedApplies += int64(len(failed))
		if g.applyErr == nil && len(failed) > 0 {
			g.applyErr = failed[0]
		}
		g.pendTxns -= int64(len(entries))
		if wait > g.st.MaxShipWait {
			g.st.MaxShipWait = wait
		}
		if maxWAN > g.st.MaxWANLag {
			g.st.MaxWANLag = maxWAN
		}
		if lag := time.Since(oldest) + maxWAN; lag > g.st.MaxLag {
			g.st.MaxLag = lag
		}
		now := time.Now()
		for _, w := range writes {
			g.keyPend[w.Key]--
			if g.keyPend[w.Key] > 0 {
				continue
			}
			delete(g.keyPend, w.Key)
			if open, ok := g.keyOpen[w.Key]; ok {
				delete(g.keyOpen, w.Key)
				if win := now.Sub(open) + maxWAN; win > g.st.MaxKeyWindow {
					g.st.MaxKeyWindow = win
				}
			}
		}
		g.stMu.Unlock()
	}
}

// Staleness returns the probe's counters so far.
func (g *ReplicaGroup) Staleness() StalenessStats {
	g.stMu.Lock()
	defer g.stMu.Unlock()
	return g.st
}

// Drain quiesces the group: every accepted op applied, every sealed
// write-set shipped and applied on every peer, every replica settled,
// and — async mode — every Put key reconciled to its global LWW winner,
// so replicas converge exactly, not approximately: a nil return means
// byte-equal replicas, and a batch some peer failed to apply (now or in an
// earlier ship round) is returned as the error. Callers must have stopped
// submitting.
func (g *ReplicaGroup) Drain() error {
	for _, rep := range g.reps {
		if err := rep.cell.Settle(); err != nil {
			return err
		}
	}
	if g.mode != AsyncReplication || len(g.reps) == 1 {
		return nil
	}
	// Sealing runs in handle-watcher goroutines; Settle resolved every
	// handle, so waiting here guarantees every accepted write-set is in
	// its outbox before the flush — without it the last op per region can
	// race the flush and silently never replicate.
	g.sealWG.Wait()
	done := make(chan struct{})
	g.flushReq <- done
	<-done
	for _, rep := range g.reps {
		if err := rep.cell.Settle(); err != nil {
			return err
		}
	}
	g.stMu.Lock()
	err := g.applyErr
	g.stMu.Unlock()
	if err != nil {
		return err
	}
	return g.reconcilePuts()
}

// reconcilePuts force-syncs every Put key to the global LWW winner on
// every replica. Shipping alone already converges when version order and
// apply order agree; this pass closes the remaining race (a local write
// racing a remote apply on one key) by re-asserting the winner — an
// idempotent no-op everywhere the winner already sits.
func (g *ReplicaGroup) reconcilePuts() error {
	type winner struct {
		ver geoVersion
		rep *geoReplica
	}
	winners := make(map[string]winner)
	for _, rep := range g.reps {
		rep.verMu.Lock()
		for k, v := range rep.vers {
			if w, ok := winners[k]; !ok || w.ver.before(v) {
				winners[k] = winner{ver: v, rep: rep}
			}
		}
		rep.verMu.Unlock()
	}
	var puts []geoWrite
	for k, w := range winners {
		val, found, err := w.rep.cell.Read(k)
		if err != nil {
			return err
		}
		if found {
			puts = append(puts, geoWrite{write: write{Key: k, Val: val}, Ver: w.ver})
		}
	}
	if len(puts) == 0 {
		return nil
	}
	batch, _ := json.Marshal(puts)
	for _, rep := range g.reps {
		if err := rep.apply(fmt.Sprintf("geo/sync/%d/%d", rep.idx, rep.shipN.Add(1)), batch, nil); err != nil {
			return err
		}
		if err := rep.cell.Settle(); err != nil {
			return err
		}
	}
	return nil
}

// Close stops replication and closes every region's cell.
func (g *ReplicaGroup) Close() {
	if g.closed.Swap(true) {
		return
	}
	if g.mode == AsyncReplication && len(g.reps) > 1 {
		close(g.stopShip)
		g.shipWG.Wait()
	}
	for _, rep := range g.reps {
		rep.cell.Close()
	}
}

// --- sequenced mode ---------------------------------------------------------

// geoSeqHandle resolves with the home replica's result and carries the
// home cell's serialization stamp for the auditor.
type geoSeqHandle struct {
	*opHandle
	home Handle
}

// Seq returns the home replica's log-derived serialization position — the
// same contract as the core cell's handles.
func (h *geoSeqHandle) Seq() int64 { return handleSeq(h.home) }

// submitSequenced sends a write to the home region's core, whose input log
// every other region's core follows. The handle resolves once the home has
// applied the write and every follower has executed it — so a local read
// anywhere sees it — and charges the origin-to-home WAN leg and one quorum
// round trip to tr.
func (g *ReplicaGroup) submitSequenced(origin int, reqID, opName string, args []byte, tr *fabric.Trace) Handle {
	home := g.reps[g.Home()]
	if origin != g.Home() {
		g.top.Charge(g.reps[origin].name, home.name, tr)
	}
	h := &geoSeqHandle{opHandle: newOpHandle(), home: home.cell.Submit(reqID, opName, args, tr)}
	go func() {
		res, err := h.home.Result()
		if _, logged := h.home.(*core.Handle); logged { // a rejected write reached no log
			for _, rep := range g.reps[1:] {
				CoreRuntime(rep.cell).Await(reqID).Result()
			}
		}
		if rtt := g.top.QuorumRTT(home.name); rtt > 0 {
			tr.Charge(rtt)
		}
		h.resolve(res, err)
	}()
	return h
}

// SequencedOrder returns region i's commit order: the request ids its core
// committed, by log-derived serialization stamp. Every region executes the
// home's input log, so under SequencedReplication this order is identical
// on every region and survives one region's crash/replay; the geo tests pin
// both. Nil for async groups.
func (g *ReplicaGroup) SequencedOrder(i int) []string {
	if g.mode != SequencedReplication {
		return nil
	}
	return CoreRuntime(g.reps[i].cell).Committed()
}
