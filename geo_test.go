package tca

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"tca/internal/faas"
	"tca/internal/fabric"
)

// geoTestApp is a minimal app exercising all three write classes the
// replication layer must merge: commutative Add, bounded commutative
// PushCap, and order-sensitive Put (the LWW surface). The key universe
// is fixed so convergence checks can enumerate it.
type geoTestArgs struct {
	K  string `json:"k"`
	K2 string `json:"k2,omitempty"`
	V  int64  `json:"v"`
	ID int64  `json:"id,omitempty"`
}

func geoTestApp() *App {
	app := NewApp("geotest")
	keys := func(args []byte) []string {
		var a geoTestArgs
		json.Unmarshal(args, &a)
		return []string{a.K}
	}
	app.Register(Op{Name: "bump", Keys: keys, Body: func(tx Txn, args []byte) ([]byte, error) {
		var a geoTestArgs
		if err := json.Unmarshal(args, &a); err != nil {
			return nil, err
		}
		return nil, tx.Add(a.K, a.V)
	}})
	app.Register(Op{Name: "set", Keys: keys, Body: func(tx Txn, args []byte) ([]byte, error) {
		var a geoTestArgs
		if err := json.Unmarshal(args, &a); err != nil {
			return nil, err
		}
		return nil, tx.Put(a.K, EncodeInt(a.V))
	}})
	app.Register(Op{Name: "tag", Keys: keys, Body: func(tx Txn, args []byte) ([]byte, error) {
		var a geoTestArgs
		if err := json.Unmarshal(args, &a); err != nil {
			return nil, err
		}
		return nil, tx.PushCap(a.K, a.ID, 8)
	}})
	// pair bumps two keys at once: on a sharded core, a cross-partition op
	// when they live on different partitions.
	app.Register(Op{Name: "pair", Keys: func(args []byte) []string {
		var a geoTestArgs
		json.Unmarshal(args, &a)
		return []string{a.K, a.K2}
	}, Body: func(tx Txn, args []byte) ([]byte, error) {
		var a geoTestArgs
		if err := json.Unmarshal(args, &a); err != nil {
			return nil, err
		}
		if err := tx.Add(a.K, a.V); err != nil {
			return nil, err
		}
		return nil, tx.Add(a.K2, a.V)
	}})
	app.Register(Op{Name: "peek", Keys: keys, ReadOnly: true, Body: func(tx Txn, args []byte) ([]byte, error) {
		var a geoTestArgs
		if err := json.Unmarshal(args, &a); err != nil {
			return nil, err
		}
		raw, _, err := tx.Get(a.K)
		return raw, err
	}})
	return app
}

func geoTestKeys() []string {
	keys := make([]string, 0, 12)
	for i := 0; i < 4; i++ {
		keys = append(keys, fmt.Sprintf("cnt/%d", i), fmt.Sprintf("cfg/%d", i), fmt.Sprintf("log/%d", i))
	}
	return keys
}

// assertReplicasEqual reads every key of the fixed universe from every
// replica and fails on any pairwise divergence from region 0.
func assertReplicasEqual(t *testing.T, g *ReplicaGroup, keys []string) {
	t.Helper()
	for _, key := range keys {
		base, baseFound, err := g.ReadLocal(0, key)
		if err != nil {
			t.Fatalf("read %s at region 0: %v", key, err)
		}
		for r := 1; r < g.Regions(); r++ {
			got, found, err := g.ReadLocal(r, key)
			if err != nil {
				t.Fatalf("read %s at region %d: %v", key, r, err)
			}
			if found != baseFound || !bytes.Equal(got, base) {
				t.Errorf("replicas diverge on %s: region 0 = %q (found=%v), region %d = %q (found=%v)",
					key, base, baseFound, r, got, found)
			}
		}
	}
}

// TestGeoAsyncConvergenceAllCells pins the convergence-on-quiescence
// property across all five programming models: two async regions, both
// accepting a mixed write stream (including conflicting Puts on shared
// keys — the LWW surface), must be byte-identical on every key after
// Drain. Exact, not approximate.
func TestGeoAsyncConvergenceAllCells(t *testing.T) {
	for _, model := range []ProgrammingModel{Microservices, Actors, CloudFunctions, StatefulDataflow, Deterministic} {
		t.Run(model.String(), func(t *testing.T) {
			g, err := DeployReplicated(model, geoTestApp(), 2, GeoOptions{
				Mode: AsyncReplication,
				WAN:  5 * time.Millisecond,
				Seed: 7,
				Cell: Options{SequenceDelay: 80 * time.Microsecond, Workers: 8, Clients: 4},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			const opsPerRegion = 60
			var wg sync.WaitGroup
			for r := 0; r < g.Regions(); r++ {
				r := r
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < opsPerRegion; i++ {
						var name string
						var a geoTestArgs
						switch i % 3 {
						case 0:
							name = "bump"
							a = geoTestArgs{K: fmt.Sprintf("cnt/%d", i%4), V: int64(1 + r)}
						case 1:
							// Conflicting Puts from both regions on the same keys.
							name = "set"
							a = geoTestArgs{K: fmt.Sprintf("cfg/%d", i%4), V: int64(1000*r + i)}
						default:
							name = "tag"
							a = geoTestArgs{K: fmt.Sprintf("log/%d", i%4), ID: int64(100*r + i)}
						}
						args, _ := json.Marshal(a)
						if _, err := g.Invoke(r, fmt.Sprintf("r%d-op%d", r, i), name, args, nil); err != nil {
							t.Errorf("region %d op %d: %v", r, i, err)
							return
						}
					}
				}()
			}
			wg.Wait()
			if err := g.Drain(); err != nil {
				t.Fatal(err)
			}
			assertReplicasEqual(t, g, geoTestKeys())

			// The commutative counters must be exact, not just equal: both
			// regions' deltas applied exactly once everywhere.
			for i := 0; i < 4; i++ {
				raw, _, err := g.ReadLocal(1, fmt.Sprintf("cnt/%d", i))
				if err != nil {
					t.Fatal(err)
				}
				// Each region bumps each of the 4 counter keys 5 times
				// (20 bumps round-robined over 4 keys), region r with
				// delta 1+r: 5×1 + 5×2.
				want := int64(opsPerRegion/3/4) * 3
				if got := DecodeInt(raw); got != want {
					t.Errorf("cnt/%d = %d, want %d (lost or doubled replicated delta)", i, got, want)
				}
			}
		})
	}
}

// TestGeoDrainReportsFailedApply pins the other half of "drained replicas
// are byte-equal": when a peer cannot apply a shipped batch, the batch is
// counted in StalenessStats.FailedApplies and Drain returns the failure
// instead of reporting a convergence that did not happen. The peer here is
// a cloud-functions cell whose platform was stopped under the group.
func TestGeoDrainReportsFailedApply(t *testing.T) {
	g, err := DeployReplicated(CloudFunctions, geoTestApp(), 2, GeoOptions{
		Mode:         AsyncReplication,
		ShipInterval: time.Hour, // ship on Drain only: one batch, deterministically
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	args, _ := json.Marshal(geoTestArgs{K: "cnt/0", V: 1})
	if _, err := g.Invoke(0, "fa-1", "bump", args, nil); err != nil {
		t.Fatal(err)
	}
	g.CellAt(1).Close()
	err = g.Drain()
	if err == nil {
		t.Fatal("Drain returned nil although region 1 could not apply the shipped batch")
	}
	if !errors.Is(err, faas.ErrPlatformDown) {
		t.Fatalf("Drain error = %v, want the peer's apply failure (%v)", err, faas.ErrPlatformDown)
	}
	if st := g.Staleness(); st.FailedApplies != 1 {
		t.Fatalf("FailedApplies = %d, want 1", st.FailedApplies)
	}
	if raw, _, _ := g.ReadLocal(1, "cnt/0"); DecodeInt(raw) != 0 {
		t.Fatalf("region 1 holds cnt/0 = %d after a failed apply", DecodeInt(raw))
	}
}

// TestGeoStalenessBounded pins the staleness bound: replication lag
// never exceeds the configured ship interval (real queue wait, with
// scheduling slop) plus the WAN bound (modeled, exact). The probe must
// also be nonzero — an async group that shipped nothing measured
// nothing.
func TestGeoStalenessBounded(t *testing.T) {
	const wan = 20 * time.Millisecond
	const ship = 2 * time.Millisecond
	g, err := DeployReplicated(Actors, geoTestApp(), 2, GeoOptions{
		Mode:         AsyncReplication,
		WAN:          wan,
		ShipInterval: ship,
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for i := 0; i < 40; i++ {
		args, _ := json.Marshal(geoTestArgs{K: fmt.Sprintf("cnt/%d", i%4), V: 1})
		if _, err := g.Invoke(i%2, fmt.Sprintf("st-%d", i), "bump", args, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Drain(); err != nil {
		t.Fatal(err)
	}
	st := g.Staleness()
	if st.ShippedBatches == 0 || st.ShippedWrites == 0 {
		t.Fatalf("staleness probe saw no replication traffic: %+v", st)
	}
	if st.MaxLagTxns < 1 {
		t.Fatalf("MaxLagTxns = %d, want >= 1 (writes committed before shipping)", st.MaxLagTxns)
	}
	// Modeled WAN lag is exact: one jittered one-way leg, at most
	// base × (1 + jitter%) with the fabric's default 20% jitter.
	if limit := wan + wan*20/100; st.MaxWANLag > limit {
		t.Fatalf("MaxWANLag = %v exceeds the WAN bound %v", st.MaxWANLag, limit)
	}
	// The real queue wait is bounded by the ship interval plus
	// scheduling; generous slop keeps a loaded CI box honest.
	if limit := ship + 500*time.Millisecond; st.MaxShipWait > limit {
		t.Fatalf("MaxShipWait = %v exceeds ship interval %v + slop", st.MaxShipWait, ship)
	}
	if st.MaxLag < st.MaxWANLag {
		t.Fatalf("MaxLag %v < MaxWANLag %v: lag must include the WAN leg", st.MaxLag, st.MaxWANLag)
	}
	if st.MaxKeyWindow <= 0 {
		t.Fatalf("MaxKeyWindow = %v, want > 0 (keys had outstanding divergence windows)", st.MaxKeyWindow)
	}
}

// TestGeoSequencedIdenticalOrderAcrossCrashReplay pins the sequenced
// core's defining property: every region applies the identical log
// order, and one region's crash/replay neither loses a committed op nor
// reorders it — after recovery the replica continues from the same
// order and converges to the same state. On two partitions most ops are
// cross-partition pairs, so the followed logs carry the home sequencer's
// markers too.
func TestGeoSequencedIdenticalOrderAcrossCrashReplay(t *testing.T) {
	for _, parts := range []int{1, 2} {
		t.Run(fmt.Sprintf("partitions=%d", parts), func(t *testing.T) {
			g, err := DeployReplicated(Deterministic, geoTestApp(), 3, GeoOptions{
				Mode: SequencedReplication,
				WAN:  10 * time.Millisecond,
				Seed: 5,
				Cell: Options{SequenceDelay: 80 * time.Microsecond, Partitions: parts},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			home := CoreRuntime(g.CellAt(0))
			// partner returns the i-th counter or config key on another
			// partition than key.
			partner := func(key string, i int) string {
				var others []string
				for _, k := range geoTestKeys() {
					if !strings.HasPrefix(k, "log/") && home.PartitionOf(k) != home.PartitionOf(key) {
						others = append(others, k)
					}
				}
				if len(others) == 0 {
					t.Fatalf("no key on another partition than %s", key)
				}
				return others[i%len(others)]
			}

			submit := func(phase string, n int) {
				t.Helper()
				for i := 0; i < n; i++ {
					var name string
					a := geoTestArgs{K: fmt.Sprintf("cnt/%d", i%4), V: 1}
					switch {
					case i%4 == 3:
						name = "set"
						a = geoTestArgs{K: fmt.Sprintf("cfg/%d", i%4), V: int64(i)}
					case parts > 1:
						name = "pair"
						a.K2 = partner(a.K, i)
					default:
						name = "bump"
					}
					args, _ := json.Marshal(a)
					if _, err := g.Invoke(i%3, fmt.Sprintf("%s-%d", phase, i), name, args, nil); err != nil {
						t.Fatalf("%s op %d: %v", phase, i, err)
					}
				}
			}

			submit("p1", 24)
			if err := g.Drain(); err != nil {
				t.Fatal(err)
			}

			// Crash region 2 and replay its durable log.
			rt := CoreRuntime(g.CellAt(2))
			rt.Crash()
			if err := rt.Recover(); err != nil {
				t.Fatal(err)
			}

			submit("p2", 24)
			if err := g.Drain(); err != nil {
				t.Fatal(err)
			}

			if parts > 1 && home.Metrics().Counter("core.cross_sequenced").Value() == 0 {
				t.Fatal("no cross-partition op was sequenced")
			}
			base := g.SequencedOrder(0)
			if len(base) != 48 {
				t.Fatalf("region 0 applied %d sequenced ops, want 48", len(base))
			}
			for r := 1; r < g.Regions(); r++ {
				order := g.SequencedOrder(r)
				if len(order) != len(base) {
					t.Fatalf("region %d applied %d ops, region 0 applied %d", r, len(order), len(base))
				}
				for i := range base {
					if order[i] != base[i] {
						t.Fatalf("log order diverges at position %d: region 0 applied %s, region %d applied %s",
							i, base[i], r, order[i])
					}
				}
			}
			assertReplicasEqual(t, g, geoTestKeys())
		})
	}
}

// TestGeoSequencedReadsFreshEverywhere pins what the followers' await buys:
// once a sequenced write resolves, a local read in every region returns it.
func TestGeoSequencedReadsFreshEverywhere(t *testing.T) {
	g, err := DeployReplicated(Deterministic, geoTestApp(), 3, GeoOptions{
		Mode: SequencedReplication,
		WAN:  10 * time.Millisecond,
		Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("cfg/%d", i%4)
		args, _ := json.Marshal(geoTestArgs{K: key, V: int64(i)})
		if _, err := g.Invoke(i%3, fmt.Sprintf("fresh-%d", i), "set", args, nil); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < g.Regions(); r++ {
			raw, _, err := g.ReadLocal(r, key)
			if err != nil {
				t.Fatal(err)
			}
			if got := DecodeInt(raw); got != int64(i) {
				t.Fatalf("write %d: region %d reads %s = %d", i, r, key, got)
			}
		}
	}
}

// TestGeoSequencedNeedsDeterministic pins that sequenced replication is the
// deterministic core's: every other model has no input log to follow.
func TestGeoSequencedNeedsDeterministic(t *testing.T) {
	for _, model := range []ProgrammingModel{Microservices, Actors, CloudFunctions, StatefulDataflow} {
		g, err := DeployReplicated(model, geoTestApp(), 2, GeoOptions{Mode: SequencedReplication})
		if err == nil {
			g.Close()
			t.Errorf("%v: DeployReplicated accepted sequenced replication", model)
		}
	}
}

// TestGeoReadModesChargeTheWAN pins the read-mode contract: ReadLocal
// answers without touching the WAN, ReadHome from a non-home region
// charges a round trip.
func TestGeoReadModesChargeTheWAN(t *testing.T) {
	const wan = 20 * time.Millisecond
	g, err := DeployReplicated(Actors, geoTestApp(), 2, GeoOptions{
		Mode: AsyncReplication,
		WAN:  wan,
		Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	args, _ := json.Marshal(geoTestArgs{K: "cnt/0", V: 5})
	if _, err := g.Invoke(0, "w-0", "bump", args, nil); err != nil {
		t.Fatal(err)
	}
	if err := g.Drain(); err != nil {
		t.Fatal(err)
	}

	qargs, _ := json.Marshal(geoTestArgs{K: "cnt/0"})
	local := fabric.NewTrace()
	raw, err := g.Query(1, ReadLocal, "q-local", "peek", qargs, local)
	if err != nil {
		t.Fatal(err)
	}
	if DecodeInt(raw) != 5 {
		t.Fatalf("local read after drain = %d, want 5", DecodeInt(raw))
	}
	if local.Total() >= wan {
		t.Fatalf("ReadLocal charged %v — paid the WAN", local.Total())
	}

	home := fabric.NewTrace()
	raw, err = g.Query(1, ReadHome, "q-home", "peek", qargs, home)
	if err != nil {
		t.Fatal(err)
	}
	if DecodeInt(raw) != 5 {
		t.Fatalf("home read = %d, want 5", DecodeInt(raw))
	}
	if home.Total() < 2*wan {
		t.Fatalf("ReadHome from a remote region charged %v, want >= one WAN round trip (%v)", home.Total(), 2*wan)
	}
}

// TestRunGeoCellSequencedAuditsClean pins E24's sequenced half: the
// audit runs and comes back empty, and every cross-region commit pays at
// least one WAN round trip (the sequencer's quorum).
func TestRunGeoCellSequencedAuditsClean(t *testing.T) {
	const wan = 20 * time.Millisecond
	res, err := RunGeoCell(GeoConfig{
		Mode: SequencedReplication, Regions: 2, WAN: wan,
		Read: ReadLocal, Clients: 2, Ops: 96,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Audited {
		t.Fatal("sequenced run did not audit")
	}
	for _, a := range res.Anomalies {
		t.Errorf("anomaly: %s", a)
	}
	if res.WriteP50 < 2*wan {
		t.Errorf("sequenced commit p50 = %v, want >= one WAN round trip (%v)", res.WriteP50, 2*wan)
	}
	if res.Issued-res.Rejected < 48 {
		t.Fatalf("degenerate run: %d accepted of %d issued", res.Issued-res.Rejected, res.Issued)
	}
}

// TestRunGeoCellAsyncConvergesWithLocalReads pins E24's async half: the
// replicas converge exactly after drain, the staleness probe is nonzero,
// and local reads never pay the WAN.
func TestRunGeoCellAsyncConvergesWithLocalReads(t *testing.T) {
	const wan = 80 * time.Millisecond
	res, err := RunGeoCell(GeoConfig{
		Mode: AsyncReplication, Regions: 2, WAN: wan,
		Read: ReadLocal, Clients: 2, Ops: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		for i, d := range res.Diverged {
			if i >= 5 {
				t.Errorf("... and %d more", len(res.Diverged)-5)
				break
			}
			t.Errorf("diverged: %s", d)
		}
		t.Fatal("async replicas did not converge after drain")
	}
	if res.Staleness.ShippedWrites == 0 || res.Staleness.MaxLag <= 0 {
		t.Fatalf("staleness probe empty: %+v", res.Staleness)
	}
	if res.ReadP99 >= wan {
		t.Errorf("local read p99 = %v pays the WAN (%v)", res.ReadP99, wan)
	}
}
