package fabric

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
)

func twoNodeCluster(cfg Config) *Cluster {
	return NewCluster(cfg, "n1", "n2")
}

func TestSendHealthy(t *testing.T) {
	c := twoNodeCluster(DefaultConfig())
	tr := NewTrace()
	d := c.Send("n1", "n2", tr)
	if d.Err != nil {
		t.Fatalf("Send on healthy cluster: %v", d.Err)
	}
	if d.Latency < 500*time.Microsecond {
		t.Fatalf("cross-node latency %v below base", d.Latency)
	}
	if tr.Total() != d.Latency {
		t.Fatalf("trace %v != delivery latency %v", tr.Total(), d.Latency)
	}
	if tr.Hops() != 1 {
		t.Fatalf("Hops = %d, want 1", tr.Hops())
	}
}

func TestSameNodeCheaperThanCrossNode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LatencyJitterPct = 0
	c := twoNodeCluster(cfg)
	same := c.Send("n1", "n1", nil).Latency
	cross := c.Send("n1", "n2", nil).Latency
	if same >= cross {
		t.Fatalf("same-node %v should be cheaper than cross-node %v", same, cross)
	}
}

func TestCrashBlocksDelivery(t *testing.T) {
	c := twoNodeCluster(DefaultConfig())
	if err := c.Crash("n2"); err != nil {
		t.Fatal(err)
	}
	if d := c.Send("n1", "n2", nil); !errors.Is(d.Err, ErrNodeDown) {
		t.Fatalf("Send to crashed node = %v, want ErrNodeDown", d.Err)
	}
	if c.Up("n2") {
		t.Fatal("n2 should be down")
	}
	if err := c.Restart("n2"); err != nil {
		t.Fatal(err)
	}
	if d := c.Send("n1", "n2", nil); d.Err != nil {
		t.Fatalf("Send after restart: %v", d.Err)
	}
	if got := c.Restarts("n2"); got != 1 {
		t.Fatalf("Restarts = %d, want 1", got)
	}
}

func TestCrashUnknownNode(t *testing.T) {
	c := twoNodeCluster(DefaultConfig())
	if err := c.Crash("nope"); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("Crash(nope) = %v, want ErrUnknownNode", err)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	c := twoNodeCluster(DefaultConfig())
	c.Partition("n1", "n2")
	if d := c.Send("n1", "n2", nil); !errors.Is(d.Err, ErrPartitioned) {
		t.Fatalf("Send across partition = %v, want ErrPartitioned", d.Err)
	}
	// Order of arguments must not matter.
	if d := c.Send("n2", "n1", nil); !errors.Is(d.Err, ErrPartitioned) {
		t.Fatalf("reverse Send across partition = %v, want ErrPartitioned", d.Err)
	}
	// Loopback unaffected.
	if d := c.Send("n1", "n1", nil); d.Err != nil {
		t.Fatalf("loopback during partition: %v", d.Err)
	}
	c.Heal("n1", "n2")
	if d := c.Send("n1", "n2", nil); d.Err != nil {
		t.Fatalf("Send after heal: %v", d.Err)
	}
}

func TestDropProbability(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DropProb = 0.5
	c := twoNodeCluster(cfg)
	drops := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if d := c.Send("n1", "n2", nil); errors.Is(d.Err, ErrDropped) {
			drops++
		}
	}
	if drops < n/3 || drops > 2*n/3 {
		t.Fatalf("drops = %d of %d, want ~50%%", drops, n)
	}
}

func TestDupProbability(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DupProb = 0.3
	c := twoNodeCluster(cfg)
	dups := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if d := c.Send("n1", "n2", nil); d.Duplicated {
			dups++
		}
	}
	if dups < n/5 || dups > n/2 {
		t.Fatalf("dups = %d of %d, want ~30%%", dups, n)
	}
}

func TestDeterministicWithSameSeed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DropProb = 0.2
	cfg.DupProb = 0.2
	run := func() []bool {
		c := twoNodeCluster(cfg)
		var out []bool
		for i := 0; i < 100; i++ {
			d := c.Send("n1", "n2", nil)
			out = append(out, d.Err != nil, d.Duplicated)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
}

func TestEpochAdvancesOnEvents(t *testing.T) {
	c := twoNodeCluster(DefaultConfig())
	e0 := c.Epoch()
	c.Crash("n1")
	if c.Epoch() == e0 {
		t.Fatal("epoch must advance on crash")
	}
	e1 := c.Epoch()
	c.Crash("n1") // idempotent: already down
	if c.Epoch() != e1 {
		t.Fatal("epoch must not advance on no-op crash")
	}
	c.Restart("n1")
	c.Partition("n1", "n2")
	c.Heal("n1", "n2")
	c.AddNode("n3")
	if c.Epoch() <= e1 {
		t.Fatal("epoch must advance on restart/partition/heal/add")
	}
}

func TestPlaceDeterministic(t *testing.T) {
	c := NewCluster(DefaultConfig(), "a", "b", "c")
	n1 := c.Place("user-42")
	n2 := c.Place("user-42")
	if n1 != n2 {
		t.Fatalf("Place not deterministic: %s vs %s", n1, n2)
	}
}

func TestPlaceAliveSkipsCrashed(t *testing.T) {
	c := NewCluster(DefaultConfig(), "a", "b")
	first, err := c.PlaceAlive("key")
	if err != nil {
		t.Fatal(err)
	}
	c.Crash(first)
	second, err := c.PlaceAlive("key")
	if err != nil {
		t.Fatal(err)
	}
	if second == first {
		t.Fatalf("PlaceAlive returned crashed node %s", first)
	}
	c.Crash(second)
	if _, err := c.PlaceAlive("key"); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("PlaceAlive with no live nodes = %v, want ErrNodeDown", err)
	}
}

// TestPlaceAliveFollowsMembership holds the cached node lists to the
// sort-and-hash placement they replaced, through every crash and restart
// (Place ignores liveness, so it keeps to all four nodes), and pins that
// placing a key allocates nothing.
func TestPlaceAliveFollowsMembership(t *testing.T) {
	nodes := []NodeID{"n3", "n1", "n4", "n2"}
	c := NewCluster(DefaultConfig(), nodes...)
	keys := make([]string, 1000)
	for i := range keys {
		keys[i] = fmt.Sprintf("Account/%d", i)
	}
	sortHash := func(ids []NodeID, key string) NodeID {
		ids = slices.Clone(ids)
		slices.Sort(ids)
		return ids[Hash(key)%uint64(len(ids))]
	}
	check := func(when string, up []NodeID) {
		t.Helper()
		for _, k := range keys {
			got, err := c.PlaceAlive(k)
			if err != nil {
				t.Fatalf("%s: PlaceAlive(%q): %v", when, k, err)
			}
			if want := sortHash(up, k); got != want {
				t.Fatalf("%s: PlaceAlive(%q) = %s, want %s", when, k, got, want)
			}
			if got, want := c.Place(k), sortHash(nodes, k); got != want {
				t.Fatalf("%s: Place(%q) = %s, want %s", when, k, got, want)
			}
		}
		if allocs := testing.AllocsPerRun(100, func() { _, _ = c.PlaceAlive(keys[7]) }); allocs != 0 {
			t.Fatalf("%s: PlaceAlive allocates %v times, want 0", when, allocs)
		}
	}
	check("all up", nodes)
	for i, n := range nodes {
		if err := c.Crash(n); err != nil {
			t.Fatal(err)
		}
		if i < len(nodes)-1 {
			check("after crashing "+string(n), nodes[i+1:])
		}
	}
	if _, err := c.PlaceAlive(keys[0]); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("PlaceAlive with every node down = %v, want ErrNodeDown", err)
	}
	for i, n := range nodes {
		if err := c.Restart(n); err != nil {
			t.Fatal(err)
		}
		check("after restarting "+string(n), nodes[:i+1])
	}
}

// TestPlaceAliveDuringCrashes places keys from two goroutines while a
// third crashes and restarts a node, so the race detector sees the alive
// list rebuilt under its readers.
func TestPlaceAliveDuringCrashes(t *testing.T) {
	c := NewCluster(DefaultConfig(), "a", "b", "c")
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			c.Crash("b")
			c.Restart("b")
		}
	}()
	for g := 0; g < 2; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				n, err := c.PlaceAlive(fmt.Sprint("key-", g, "-", i))
				if err != nil || (n != "a" && n != "b" && n != "c") {
					t.Errorf("PlaceAlive = %q, %v", n, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestPlaceSpreadsKeys(t *testing.T) {
	c := NewCluster(DefaultConfig(), "a", "b", "c", "d")
	counts := map[NodeID]int{}
	for i := 0; i < 4000; i++ {
		counts[c.Place(string(rune('k'))+string(rune(i)))]++
	}
	for n, got := range counts {
		if got < 500 {
			t.Errorf("node %s got only %d of 4000 keys — placement badly skewed", n, got)
		}
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	tr.Charge(time.Second) // must not panic
	if tr.Total() != 0 || tr.Hops() != 0 {
		t.Fatal("nil trace should read as zero")
	}
}

func TestAddNode(t *testing.T) {
	c := NewCluster(DefaultConfig(), "a")
	c.AddNode("b")
	if len(c.Nodes()) != 2 {
		t.Fatalf("Nodes = %v, want 2 entries", c.Nodes())
	}
	if !c.Up("b") {
		t.Fatal("new node should be up")
	}
}

func TestSingleNode(t *testing.T) {
	c := SingleNode()
	if d := c.Send("node-0", "node-0", nil); d.Err != nil {
		t.Fatalf("loopback on single node: %v", d.Err)
	}
}

// AddNode adds a node to the cluster (scale-out).
func (c *Cluster) AddNode(n NodeID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.nodes[n]; !ok {
		c.nodes[n] = &nodeState{up: true}
		c.ids = append(c.ids, n)
		slices.Sort(c.ids)
		c.refreshAlive()
		c.epoch++
	}
}
