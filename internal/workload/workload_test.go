package workload

import (
	"fmt"
	"testing"
	"time"
)

func TestBankGenDeterministic(t *testing.T) {
	a, b := NewBank(7, 100, 0), NewBank(7, 100, 0)
	for i := 0; i < 100; i++ {
		x, y := a.Next(), b.Next()
		if x != y {
			t.Fatalf("same seed diverged at %d: %+v vs %+v", i, x, y)
		}
	}
}

func TestBankGenNeverSelfTransfer(t *testing.T) {
	g := NewBank(1, 5, 0)
	for i := 0; i < 1000; i++ {
		op := g.Next()
		if op.From == op.To {
			t.Fatalf("self transfer at %d: %+v", i, op)
		}
		if op.From >= 5 || op.To >= 5 || op.From < 0 || op.To < 0 {
			t.Fatalf("out of range: %+v", op)
		}
		if op.Amount <= 0 {
			t.Fatalf("non-positive amount: %+v", op)
		}
	}
}

func TestBankGenHotFraction(t *testing.T) {
	g := NewBank(1, 100, 0.5)
	hot := 0
	for i := 0; i < 2000; i++ {
		if g.Next().From == 0 {
			hot++
		}
	}
	if hot < 800 || hot > 1300 {
		t.Fatalf("hot transfers = %d of 2000, want ~50%%", hot)
	}
}

func TestTPCCGenMix(t *testing.T) {
	g := NewTPCC(3, DefaultTPCCConfig(4))
	newOrders := 0
	const n = 5000
	for i := 0; i < n; i++ {
		op := g.Next()
		if op.Kind == TPCCNewOrder {
			newOrders++
			if len(op.Items) < 5 || len(op.Items) > 15 {
				t.Fatalf("order lines = %d, want 5..15", len(op.Items))
			}
		} else if op.Amount <= 0 {
			t.Fatalf("payment with amount %d", op.Amount)
		}
		if op.Warehouse < 0 || op.Warehouse >= 4 {
			t.Fatalf("warehouse out of range: %+v", op)
		}
		if op.Remote && op.RemoteWarehouse == op.Warehouse {
			t.Fatalf("remote warehouse equals home: %+v", op)
		}
	}
	frac := float64(newOrders) / n
	if frac < 0.50 || frac > 0.60 {
		t.Fatalf("new-order fraction = %.2f, want ~0.55", frac)
	}
}

func TestTPCCKeysDeclared(t *testing.T) {
	g := NewTPCC(3, DefaultTPCCConfig(2))
	for i := 0; i < 200; i++ {
		op := g.Next()
		keys := op.Keys()
		if len(keys) == 0 {
			t.Fatal("empty key set")
		}
		seen := map[string]struct{}{}
		for _, k := range keys {
			if _, dup := seen[k]; dup {
				t.Fatalf("duplicate key %s in %v", k, keys)
			}
			seen[k] = struct{}{}
		}
	}
}

func TestTPCCSingleWarehouseNeverRemote(t *testing.T) {
	g := NewTPCC(3, DefaultTPCCConfig(1))
	for i := 0; i < 500; i++ {
		if g.Next().Remote {
			t.Fatal("remote txn with a single warehouse")
		}
	}
}

func TestMarketGenMix(t *testing.T) {
	g := NewMarket(9, DefaultMarketConfig())
	counts := map[MarketKind]int{}
	const n = 10000
	for i := 0; i < n; i++ {
		counts[g.Next().Kind]++
	}
	if f := float64(counts[MarketAddToCart]) / n; f < 0.55 || f > 0.65 {
		t.Fatalf("cart fraction = %.2f, want ~0.60", f)
	}
	if f := float64(counts[MarketCheckout]) / n; f < 0.07 || f > 0.13 {
		t.Fatalf("checkout fraction = %.2f, want ~0.10", f)
	}
	if counts[MarketQueryProduct] == 0 || counts[MarketUpdatePrice] == 0 {
		t.Fatalf("missing op kinds: %v", counts)
	}
}

func TestMarketZipfSkew(t *testing.T) {
	g := NewMarket(9, DefaultMarketConfig())
	hits := map[int]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		hits[g.Next().Product]++
	}
	// The hottest product should be much hotter than the median.
	max := 0
	for _, c := range hits {
		if c > max {
			max = c
		}
	}
	if max < n/20 {
		t.Fatalf("hottest product got %d of %d; zipf skew missing", max, n)
	}
}

func TestMarketMixNormalized(t *testing.T) {
	// Fractions summing past 1 used to silently eat checkout and price
	// traffic (cumulative thresholds against one uniform draw). NewMarket
	// now normalizes proportionally, mirroring the ZipfS clamp.
	g := NewMarket(9, MarketConfig{
		Users: 10, Products: 10,
		CartFrac: 1.2, CheckoutFrac: 0.6, PriceFrac: 0.6, // sums to 2.4
		ZipfS: 1.1,
	})
	cfg := g.Config()
	if sum := cfg.CartFrac + cfg.CheckoutFrac + cfg.PriceFrac; sum > 1.0000001 {
		t.Fatalf("normalized mix sums to %.3f, want <= 1", sum)
	}
	if cfg.CartFrac/cfg.CheckoutFrac < 1.9 || cfg.CartFrac/cfg.CheckoutFrac > 2.1 {
		t.Fatalf("relative shares not preserved: cart=%.3f checkout=%.3f", cfg.CartFrac, cfg.CheckoutFrac)
	}
	counts := map[MarketKind]int{}
	const n = 6000
	for i := 0; i < n; i++ {
		counts[g.Next().Kind]++
	}
	// 0.6/2.4 = 25% checkouts and 25% price updates must survive.
	if f := float64(counts[MarketCheckout]) / n; f < 0.20 || f > 0.30 {
		t.Fatalf("checkout fraction = %.2f, want ~0.25 after normalization", f)
	}
	if f := float64(counts[MarketUpdatePrice]) / n; f < 0.20 || f > 0.30 {
		t.Fatalf("price fraction = %.2f, want ~0.25 after normalization", f)
	}
	if counts[MarketQueryProduct] != 0 {
		t.Fatalf("full mix left %d queries, want 0", counts[MarketQueryProduct])
	}
}

func TestMarketMixClampsNegative(t *testing.T) {
	g := NewMarket(3, MarketConfig{
		Users: 10, Products: 10,
		CartFrac: -0.5, CheckoutFrac: 0.5, PriceFrac: 0, ZipfS: 1.1,
	})
	if cfg := g.Config(); cfg.CartFrac != 0 {
		t.Fatalf("negative cart fraction kept: %.2f", cfg.CartFrac)
	}
	for i := 0; i < 500; i++ {
		if g.Next().Kind == MarketAddToCart {
			t.Fatal("cart op drawn from a zeroed cart fraction")
		}
	}
}

func TestTPCCRemoteFracSweep(t *testing.T) {
	// RemoteFrac pins the cross-warehouse rate for both transaction kinds.
	for _, tc := range []struct {
		frac     float64
		min, max float64
	}{
		{0, 0, 0},
		{0.10, 0.06, 0.14},
		{0.50, 0.44, 0.56},
		{1, 1, 1},
	} {
		cfg := DefaultTPCCConfig(4)
		cfg.RemoteFrac = RemoteFrac(tc.frac)
		g := NewTPCC(17, cfg)
		remote := 0
		const n = 3000
		for i := 0; i < n; i++ {
			if g.Next().Remote {
				remote++
			}
		}
		if f := float64(remote) / n; f < tc.min || f > tc.max {
			t.Fatalf("RemoteFrac=%.2f: observed %.3f, want in [%.2f, %.2f]", tc.frac, f, tc.min, tc.max)
		}
	}
}

func TestTPCCRemoteFracDoesNotPerturbStream(t *testing.T) {
	// Sweeping the remote rate must change only the Remote bit: every other
	// field of the seeded stream stays identical, so E17's sweep compares
	// the same transactions.
	std, all := DefaultTPCCConfig(4), DefaultTPCCConfig(4)
	all.RemoteFrac = RemoteFrac(1)
	a, b := NewTPCC(23, std), NewTPCC(23, all)
	for i := 0; i < 500; i++ {
		x, y := a.Next(), b.Next()
		x.Remote, x.RemoteWarehouse = false, 0
		y.Remote, y.RemoteWarehouse = false, 0
		if fmt.Sprint(x) != fmt.Sprint(y) {
			t.Fatalf("stream diverged at %d:\n%+v\n%+v", i, x, y)
		}
	}
}

func TestTPCCQueryFracMix(t *testing.T) {
	// QueryFrac makes that fraction of the stream the standard's query
	// transactions, split between OrderStatus and StockLevel; StockLevel
	// descriptors carry items to inspect and a threshold in 10..20.
	cfg := DefaultTPCCConfig(2)
	cfg.QueryFrac = 0.30
	g := NewTPCC(29, cfg)
	var status, level int
	const n = 3000
	for i := 0; i < n; i++ {
		op := g.Next()
		switch op.Kind {
		case TPCCOrderStatus:
			status++
		case TPCCStockLevel:
			level++
			if len(op.Items) < 5 || len(op.Items) > 15 {
				t.Fatalf("stock-level inspects %d items, want 5..15", len(op.Items))
			}
			if op.Threshold < 10 || op.Threshold > 20 {
				t.Fatalf("stock-level threshold %d, want 10..20", op.Threshold)
			}
		}
	}
	if f := float64(status+level) / n; f < 0.25 || f > 0.35 {
		t.Fatalf("query fraction %.3f, want ~0.30", f)
	}
	if status == 0 || level == 0 {
		t.Fatalf("query kinds unbalanced: order-status=%d stock-level=%d", status, level)
	}
}

func TestTPCCQueryFracZeroKeepsStream(t *testing.T) {
	// The query draw only happens when QueryFrac > 0, so the zero config
	// reproduces the pre-knob write-only stream bit for bit (the same
	// rule as SocialGen's churn draw). Pinned against a golden prefix
	// captured before the knob could perturb anything: an unconditional
	// rng draw — the regression this guards — shifts every subsequent op.
	golden := []string{
		"new-order/w3/d2/c13/items8/amt0/remotefalse",
		"payment/w1/d1/c81/items0/amt901/remotefalse",
		"new-order/w3/d5/c31/items15/amt0/remotefalse",
		"new-order/w3/d3/c72/items8/amt0/remotefalse",
		"new-order/w1/d1/c99/items5/amt0/remotefalse",
		"new-order/w1/d2/c63/items12/amt0/remotefalse",
		"new-order/w1/d0/c27/items5/amt0/remotefalse",
		"payment/w1/d5/c74/items0/amt1307/remotefalse",
	}
	g := NewTPCC(23, DefaultTPCCConfig(4)) // QueryFrac zero by default
	for i, want := range golden {
		op := g.Next()
		got := fmt.Sprintf("%v/w%d/d%d/c%d/items%d/amt%d/remote%v",
			op.Kind, op.Warehouse, op.District, op.Customer, len(op.Items), op.Amount, op.Remote)
		if got != want {
			t.Fatalf("op %d diverged from the pre-knob stream:\n got %s\nwant %s", i, got, want)
		}
	}
}

func TestMarketKeysDeclared(t *testing.T) {
	g := NewMarket(5, DefaultMarketConfig())
	for i := 0; i < 300; i++ {
		op := g.Next()
		keys := op.Keys()
		if len(keys) == 0 {
			t.Fatalf("empty key set for %v", op.Kind)
		}
		if op.Kind == MarketCheckout && len(keys) != 4 {
			t.Fatalf("checkout declares %d keys, want 4 (cart, price, stock, order)", len(keys))
		}
	}
}

func TestSocialKeysAreFollowerTimelines(t *testing.T) {
	g := NewSocial(4, 50, 12)
	for i := 0; i < 100; i++ {
		op := g.Next()
		keys := op.Keys()
		if len(keys) != len(op.Followers)+1 {
			t.Fatalf("key set %d, want followers+posts = %d", len(keys), len(op.Followers)+1)
		}
		if keys[0] != PostsKey(op.Author) {
			t.Fatalf("first key %s, want %s", keys[0], PostsKey(op.Author))
		}
	}
}

func TestSocialGraphShape(t *testing.T) {
	g := NewSocial(4, 100, 32)
	total := 0
	for u := 0; u < 100; u++ {
		n := g.FollowerCount(u)
		if n < 1 || n > 33 {
			t.Fatalf("user %d has %d followers", u, n)
		}
		total += n
	}
	op := g.Next()
	if len(op.Followers) != g.FollowerCount(op.Author) {
		t.Fatal("op followers mismatch graph")
	}
	for _, f := range op.Followers {
		if f == op.Author {
			t.Fatal("self-follow")
		}
	}
}

func TestClosedLoopCounts(t *testing.T) {
	res := ClosedLoop(4, 25, func() error { return nil })
	if res.Issued != 100 || res.Errors != 0 {
		t.Fatalf("issued=%d errors=%d", res.Issued, res.Errors)
	}
	if res.Latency.Count() != 100 {
		t.Fatalf("latency samples = %d", res.Latency.Count())
	}
	if res.Throughput() <= 0 {
		t.Fatal("zero throughput")
	}
}

func TestClosedLoopSelfThrottles(t *testing.T) {
	// One slot, slow service, many clients: closed loop cannot overload —
	// measured latency stays near service time × queue of clients, and
	// total time ≈ ops × service.
	op := SpinService(1, 200*time.Microsecond)
	res := ClosedLoop(4, 10, op)
	// p50 bounded by clients × service time (each op waits for at most the
	// other 3 clients).
	if res.Latency.P50() > 10*time.Millisecond {
		t.Fatalf("closed-loop p50 = %v, unexpectedly large", res.Latency.P50())
	}
}

func TestOpenLoopBeyondCapacityExplodes(t *testing.T) {
	// Capacity = 1 op / 200µs = 5000/s. Offer 4x that: queueing delay must
	// blow past anything the closed-loop test sees.
	op := SpinService(1, 200*time.Microsecond)
	res := OpenLoop(11, 300, 20000, op)
	if res.Latency.Quantile(0.9) < 2*time.Millisecond {
		t.Fatalf("open-loop p90 = %v; expected queueing explosion", res.Latency.Quantile(0.9))
	}
}

func TestOpenLoopUnderCapacityModest(t *testing.T) {
	op := SpinService(4, 100*time.Microsecond)
	res := OpenLoop(11, 200, 2000, op) // rho = 2000 / 40000 = 0.05
	if res.Latency.P50() > 5*time.Millisecond {
		t.Fatalf("open-loop p50 at low load = %v", res.Latency.P50())
	}
	if res.Errors != 0 {
		t.Fatalf("errors = %d", res.Errors)
	}
}

func TestSocialChurnGraphLockstep(t *testing.T) {
	// The descriptor stream and the generator's graph must stay in
	// lockstep: replaying the follow/unfollow ops onto the seed graph
	// reproduces Followers(), and every compose-post snapshot equals the
	// graph at generation time.
	const users, fanout, ops = 24, 12, 600
	shadow := map[int]map[int]bool{}
	seedGen := NewSocialChurn(5, users, fanout, 0.3)
	for u := 0; u < users; u++ {
		shadow[u] = map[int]bool{}
		for _, f := range seedGen.Followers(u) {
			shadow[u][f] = true
		}
	}
	kinds := map[SocialKind]int{}
	lastPost := int64(0)
	for i := 0; i < ops; i++ {
		op := seedGen.Next()
		kinds[op.Kind]++
		switch op.Kind {
		case SocialFollow:
			if shadow[op.Author][op.Follower] {
				t.Fatalf("op %d: follow of an existing follower %d -> %d", i, op.Follower, op.Author)
			}
			shadow[op.Author][op.Follower] = true
		case SocialUnfollow:
			if !shadow[op.Author][op.Follower] {
				t.Fatalf("op %d: unfollow of a non-follower %d -> %d", i, op.Follower, op.Author)
			}
			delete(shadow[op.Author], op.Follower)
		default:
			if op.PostID <= lastPost {
				t.Fatalf("op %d: post id %d not monotone (last %d)", i, op.PostID, lastPost)
			}
			lastPost = op.PostID
			if len(op.Followers) != len(shadow[op.Author]) {
				t.Fatalf("op %d: post snapshot has %d followers, graph has %d",
					i, len(op.Followers), len(shadow[op.Author]))
			}
			for _, f := range op.Followers {
				if !shadow[op.Author][f] {
					t.Fatalf("op %d: post snapshot includes non-follower %d", i, f)
				}
			}
		}
	}
	if kinds[SocialFollow] == 0 || kinds[SocialUnfollow] == 0 || kinds[SocialPost] == 0 {
		t.Fatalf("degenerate churn mix: %v", kinds)
	}
	// Final graph agreement.
	for u := 0; u < users; u++ {
		if got, want := seedGen.FollowerCount(u), len(shadow[u]); got != want {
			t.Fatalf("user %d: generator has %d followers, replay has %d", u, got, want)
		}
	}
}

func TestSocialChurnDeterministic(t *testing.T) {
	a, b := NewSocialChurn(9, 32, 16, 0.25), NewSocialChurn(9, 32, 16, 0.25)
	for i := 0; i < 200; i++ {
		x, y := a.Next(), b.Next()
		if x.Kind != y.Kind || x.Author != y.Author || x.PostID != y.PostID ||
			x.Follower != y.Follower || len(x.Followers) != len(y.Followers) {
			t.Fatalf("op %d diverged: %+v vs %+v", i, x, y)
		}
	}
}

func TestSocialChurnFreeStreamIsAllPosts(t *testing.T) {
	// NewSocial keeps the pre-churn contract: every op is a compose-post.
	g := NewSocial(7, 16, 8)
	for i := 0; i < 100; i++ {
		if op := g.Next(); op.Kind != SocialPost {
			t.Fatalf("op %d: churn-free generator produced %v", i, op.Kind)
		}
	}
}

func TestSocialOpKeysByKind(t *testing.T) {
	post := SocialOp{Kind: SocialPost, Author: 1, PostID: 3, Followers: []int{2, 4}}
	if got := post.Keys(); len(got) != 3 || got[0] != PostsKey(1) ||
		got[1] != TimelineKey(2) || got[2] != TimelineKey(4) {
		t.Fatalf("post keys = %v", got)
	}
	follow := SocialOp{Kind: SocialFollow, Author: 1, Follower: 9}
	if got := follow.Keys(); len(got) != 1 || got[0] != FollowKey(1, 9) {
		t.Fatalf("follow keys = %v", got)
	}
}

// FollowerCount returns user u's follower count (graph inspection).
func (g *SocialGen) FollowerCount(u int) int { return len(g.followers[u]) }
