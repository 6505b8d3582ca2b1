// Package workload provides the benchmark workloads §5.3 says the field
// lacks good versions of: deterministic, seeded generators for the
// transaction mixes the paper cites — TPC-C (ref [52]), a
// DeathStarBench-style social network (ref [27]), and the Online
// Marketplace microservice benchmark (ref [38]) — plus open-loop and
// closed-loop load drivers (ref [56]: "Closed versus open system models"),
// whose difference experiment E10 demonstrates.
//
// Generators produce *descriptors*, not effects: the same TPC-C op can be
// executed against the core runtime, the actor coordinator, a saga, or a
// microservice deployment, which is exactly what the cross-model
// experiments need.
package workload

import (
	"math/rand"
	"strconv"
)

// BankOp is one transfer in the canonical bank workload.
type BankOp struct {
	From, To int
	Amount   int64
}

// BankGen generates transfers over n accounts. With hot > 0, that fraction
// of traffic targets account 0 (contention knob).
type BankGen struct {
	rng      *rand.Rand
	accounts int
	hotFrac  float64
}

// NewBank creates a seeded bank generator.
func NewBank(seed int64, accounts int, hotFrac float64) *BankGen {
	if accounts < 2 {
		accounts = 2
	}
	return &BankGen{rng: rand.New(rand.NewSource(seed)), accounts: accounts, hotFrac: hotFrac}
}

// Next returns the next transfer.
func (g *BankGen) Next() BankOp {
	from := g.rng.Intn(g.accounts)
	to := g.rng.Intn(g.accounts - 1)
	if to >= from {
		to++
	}
	if g.hotFrac > 0 && g.rng.Float64() < g.hotFrac {
		from = 0
	}
	return BankOp{From: from, To: to, Amount: int64(1 + g.rng.Intn(10))}
}

// --- TPC-C subset -----------------------------------------------------------

// TPCCKind is the transaction type.
type TPCCKind int

// The two write transactions the SFaaS literature evaluates (ref [52]
// builds on exactly this subset plus the rest; NewOrder+Payment is 88% of
// the standard mix), plus the standard's two query transactions —
// OrderStatus and StockLevel — which TPCCApp declares ReadOnly so every
// cell answers them on its query fast path.
const (
	TPCCNewOrder TPCCKind = iota
	TPCCPayment
	TPCCOrderStatus
	TPCCStockLevel
)

func (k TPCCKind) String() string {
	switch k {
	case TPCCNewOrder:
		return "new-order"
	case TPCCPayment:
		return "payment"
	case TPCCOrderStatus:
		return "order-status"
	default:
		return "stock-level"
	}
}

// TPCCItem is one order line.
type TPCCItem struct {
	ItemID int
	Qty    int
}

// TPCCOp is one transaction descriptor.
type TPCCOp struct {
	Kind      TPCCKind
	Warehouse int
	District  int
	Customer  int
	Items     []TPCCItem // NewOrder (order lines) and StockLevel (items to inspect)
	Amount    int64      // Payment only
	// Threshold is StockLevel's low-stock cutoff (standard: uniform in
	// 10..20); zero means the default the app body applies.
	Threshold int64
	// Remote reports a cross-warehouse access (the distributed-transaction
	// trigger: ~10% of NewOrders and 15% of Payments in the standard).
	Remote          bool
	RemoteWarehouse int
}

// TPCCConfig sizes the workload.
type TPCCConfig struct {
	Warehouses int
	// Districts per warehouse (standard: 10).
	Districts int
	// Customers per district (standard: 3000; scale down for tests).
	Customers int
	// Items in the catalog (standard: 100000; scale down).
	Items int
	// NewOrderFrac is the fraction of NewOrder ops (standard mix: ~0.51
	// of all, but of this 2-txn subset ≈ 0.52/0.95).
	NewOrderFrac float64
	// RemoteFrac, when set, pins the fraction of transactions that touch
	// a remote warehouse (TPCCOp.Remote) — the distributed-transaction
	// trigger — for both transaction kinds; point it at 0 to disable
	// cross-warehouse traffic entirely. Nil (the zero value) keeps the
	// standard mix (10% of NewOrders, 15% of Payments). E17 sweeps this
	// knob to tie the app-level matrix to E16's cross-partition scaling
	// curve.
	RemoteFrac *float64
	// QueryFrac is the fraction of the stream that is the standard's query
	// transactions — OrderStatus and StockLevel, alternating by a fair
	// draw — which TPCCApp declares ReadOnly, so they ride every cell's
	// query fast path. Zero (the default) keeps the pure write mix *and*
	// the exact pre-knob rng stream: the query draw only happens when the
	// fraction is positive, like SocialGen's churn draw. E17 sweeps this
	// knob for the matrix's read-path column.
	QueryFrac float64
}

// RemoteFrac boxes a cross-warehouse rate for TPCCConfig.RemoteFrac.
func RemoteFrac(f float64) *float64 { return &f }

// DefaultTPCCConfig returns a laptop-scale configuration.
func DefaultTPCCConfig(warehouses int) TPCCConfig {
	return TPCCConfig{
		Warehouses:   warehouses,
		Districts:    10,
		Customers:    100,
		Items:        1000,
		NewOrderFrac: 0.55,
	}
}

// TPCCGen generates the NewOrder/Payment mix.
type TPCCGen struct {
	rng *rand.Rand
	cfg TPCCConfig
}

// NewTPCC creates a seeded generator.
func NewTPCC(seed int64, cfg TPCCConfig) *TPCCGen {
	if cfg.Warehouses < 1 {
		cfg.Warehouses = 1
	}
	if cfg.Districts < 1 {
		cfg.Districts = 10
	}
	if cfg.Customers < 1 {
		cfg.Customers = 100
	}
	if cfg.Items < 10 {
		cfg.Items = 1000
	}
	if cfg.NewOrderFrac <= 0 {
		cfg.NewOrderFrac = 0.55
	}
	return &TPCCGen{rng: rand.New(rand.NewSource(seed)), cfg: cfg}
}

// Next returns the next transaction descriptor.
func (g *TPCCGen) Next() TPCCOp {
	// The query draw only happens when queries are enabled, so QueryFrac=0
	// generators keep the exact rng stream of the write-only workload.
	if g.cfg.QueryFrac > 0 && g.rng.Float64() < g.cfg.QueryFrac {
		return g.nextQuery()
	}
	op := TPCCOp{
		Warehouse: g.rng.Intn(g.cfg.Warehouses),
		District:  g.rng.Intn(g.cfg.Districts),
		Customer:  g.rng.Intn(g.cfg.Customers),
	}
	// remoteFrac resolves the cross-warehouse probability: the standard
	// per-kind rate unless the config pins one. The random draw is made
	// either way, so sweeping RemoteFrac never perturbs the rest of the
	// seeded stream — only the Remote bit changes.
	remoteFrac := func(std float64) float64 {
		if g.cfg.RemoteFrac != nil {
			return *g.cfg.RemoteFrac
		}
		return std
	}
	if g.rng.Float64() < g.cfg.NewOrderFrac {
		op.Kind = TPCCNewOrder
		n := 5 + g.rng.Intn(11) // 5..15 order lines, per the standard
		op.Items = make([]TPCCItem, n)
		for i := range op.Items {
			op.Items[i] = TPCCItem{ItemID: g.rng.Intn(g.cfg.Items), Qty: 1 + g.rng.Intn(10)}
		}
		op.Remote = g.cfg.Warehouses > 1 && g.rng.Float64() < remoteFrac(0.10)
	} else {
		op.Kind = TPCCPayment
		op.Amount = int64(1 + g.rng.Intn(5000))
		op.Remote = g.cfg.Warehouses > 1 && g.rng.Float64() < remoteFrac(0.15)
	}
	// The remote-warehouse candidate is drawn unconditionally so the rng
	// consumption per op is fixed: sweeping RemoteFrac flips only the
	// Remote bit and the rest of the seeded stream stays identical —
	// E17's sweep compares the same transactions at different rates.
	if g.cfg.Warehouses > 1 {
		w := g.rng.Intn(g.cfg.Warehouses - 1)
		if w >= op.Warehouse {
			w++
		}
		if op.Remote {
			op.RemoteWarehouse = w
		}
	}
	return op
}

// nextQuery draws one of the standard's query transactions: OrderStatus
// (the customer's balance and order count) or StockLevel (how many of a
// district's recently touched items sit below a threshold drawn uniformly
// in 10..20, per the standard). Queries are home-warehouse only, matching
// the standard's terminal model.
func (g *TPCCGen) nextQuery() TPCCOp {
	op := TPCCOp{
		Warehouse: g.rng.Intn(g.cfg.Warehouses),
		District:  g.rng.Intn(g.cfg.Districts),
		Customer:  g.rng.Intn(g.cfg.Customers),
	}
	if g.rng.Float64() < 0.5 {
		op.Kind = TPCCOrderStatus
		return op
	}
	op.Kind = TPCCStockLevel
	op.Threshold = int64(10 + g.rng.Intn(11))
	n := 5 + g.rng.Intn(11) // inspect 5..15 items, like a NewOrder's lines
	op.Items = make([]TPCCItem, n)
	for i := range op.Items {
		op.Items[i] = TPCCItem{ItemID: g.rng.Intn(g.cfg.Items)}
	}
	return op
}

// StockKey / CustomerKey / DistrictKey name the state keys a TPC-C op
// touches, shared by every runtime adapter so the experiments hit
// identical key sets.
func StockKey(warehouse, item int) string {
	return Join("stock", "/", int64(warehouse), int64(item))
}
func CustomerKey(w, d, c int) string {
	return Join("cust", "/", int64(w), int64(d), int64(c))
}
func DistrictKey(w, d int) string { return Join("dist", "/", int64(w), int64(d)) }
func WarehouseKey(w int) string   { return Join("wh", "/", int64(w)) }

// Join returns prefix followed by each id in decimal after sep, in one
// allocation: Join("stock", "/", 1, 2) is "stock/1/2", the bytes
// fmt.Sprintf("stock/%d/%d", 1, 2) gives. Every state key builder and
// the runtime's request and saga step ids use it.
func Join(prefix, sep string, ids ...int64) string {
	var buf [64]byte
	b := append(buf[:0], prefix...)
	for _, id := range ids {
		b = strconv.AppendInt(append(b, sep...), id, 10)
	}
	return string(b)
}

// FirstItem reports whether Items[i] is the first line with its item id:
// the key sets and bodies touch each stock key once however often an
// order repeats an item.
func (op TPCCOp) FirstItem(i int) bool {
	for _, it := range op.Items[:i] {
		if it.ItemID == op.Items[i].ItemID {
			return false
		}
	}
	return true
}

// Keys returns every state key the op touches (its declared key set for
// the deterministic runtime).
func (op TPCCOp) Keys() []string {
	switch op.Kind {
	case TPCCNewOrder, TPCCStockLevel:
		// StockLevel inspects home-warehouse stock; a remote NewOrder
		// draws down the remote warehouse's.
		w := op.Warehouse
		if op.Remote && op.Kind == TPCCNewOrder {
			w = op.RemoteWarehouse
		}
		keys := make([]string, 1, 1+len(op.Items))
		keys[0] = DistrictKey(op.Warehouse, op.District)
		for i, it := range op.Items {
			if op.FirstItem(i) {
				keys = append(keys, StockKey(w, it.ItemID))
			}
		}
		return keys
	case TPCCOrderStatus:
		// The query reads the customer's balance and the district's order
		// counter — both home-warehouse (queries are local in the
		// standard's terminal model).
		return []string{
			CustomerKey(op.Warehouse, op.District, op.Customer),
			DistrictKey(op.Warehouse, op.District),
		}
	default:
		w := op.Warehouse
		if op.Remote {
			w = op.RemoteWarehouse
		}
		return []string{
			WarehouseKey(op.Warehouse),
			CustomerKey(w, op.District, op.Customer),
		}
	}
}

// --- Online marketplace -------------------------------------------------------

// MarketKind is the marketplace operation type.
type MarketKind int

// Marketplace operations, after the Online Marketplace benchmark (ref
// [38]): cart updates dominate, checkouts span services, queries are
// read-only, price updates create write skew with checkouts.
const (
	MarketAddToCart MarketKind = iota
	MarketCheckout
	MarketQueryProduct
	MarketUpdatePrice
)

func (k MarketKind) String() string {
	switch k {
	case MarketAddToCart:
		return "add-to-cart"
	case MarketCheckout:
		return "checkout"
	case MarketQueryProduct:
		return "query-product"
	default:
		return "update-price"
	}
}

// MarketOp is one marketplace request. ResvID and Claims are used only
// by the reservation variant (ReservedMarketGen / ReservedKeys): a cart
// add carries the reservation it creates and the client-quoted Price; a
// checkout carries the reservation ids it claims. Plain streams leave
// them zero, so existing seeded runs are byte-identical.
type MarketOp struct {
	Kind    MarketKind
	User    int
	Product int
	Qty     int
	Price   int64
	ResvID  int64   `json:",omitempty"`
	Claims  []int64 `json:",omitempty"`
}

// MarketConfig sizes the marketplace.
type MarketConfig struct {
	Users    int
	Products int
	// Mix fractions; the remainder goes to queries. NewMarket clamps
	// negative fractions to zero and, when the three sum past 1,
	// normalizes them proportionally — so checkout/price traffic is never
	// silently eaten by an over-full cart fraction.
	CartFrac     float64
	CheckoutFrac float64
	PriceFrac    float64
	// ZipfS skews product popularity. rand.NewZipf requires s > 1, so
	// NewMarket clamps any value <= 1.0 up to 1.1 (the mildest supported
	// skew); higher values concentrate traffic on fewer products.
	ZipfS float64
}

// DefaultMarketConfig returns the mix used in the paper-adjacent
// benchmark: 60% cart, 10% checkout, 5% price updates, 25% queries.
func DefaultMarketConfig() MarketConfig {
	return MarketConfig{
		Users: 1000, Products: 500,
		CartFrac: 0.60, CheckoutFrac: 0.10, PriceFrac: 0.05,
		ZipfS: 1.1,
	}
}

// MarketGen generates marketplace requests with zipfian product skew.
type MarketGen struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	cfg  MarketConfig
}

// NewMarket creates a seeded generator.
func NewMarket(seed int64, cfg MarketConfig) *MarketGen {
	if cfg.Users < 1 {
		cfg.Users = 1000
	}
	if cfg.Products < 2 {
		cfg.Products = 500
	}
	if cfg.ZipfS <= 1.0 {
		// rand.NewZipf panics (returns nil) for s <= 1; clamp to the
		// mildest legal skew rather than fail. Documented on MarketConfig.
		cfg.ZipfS = 1.1
	}
	// Validate the mix the same way the ZipfS clamp does: repair instead of
	// fail. Negative fractions are zeroed; fractions summing past 1 are
	// scaled down proportionally so every class keeps its relative share
	// (previously a cart fraction past 1 silently ate all checkout and
	// price traffic — Next draws one uniform variate against cumulative
	// thresholds).
	if cfg.CartFrac < 0 {
		cfg.CartFrac = 0
	}
	if cfg.CheckoutFrac < 0 {
		cfg.CheckoutFrac = 0
	}
	if cfg.PriceFrac < 0 {
		cfg.PriceFrac = 0
	}
	if sum := cfg.CartFrac + cfg.CheckoutFrac + cfg.PriceFrac; sum > 1 {
		cfg.CartFrac /= sum
		cfg.CheckoutFrac /= sum
		cfg.PriceFrac /= sum
	}
	rng := rand.New(rand.NewSource(seed))
	return &MarketGen{
		rng:  rng,
		zipf: rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Products-1)),
		cfg:  cfg,
	}
}

// Config returns the generator's effective configuration (after clamping
// and mix normalization) — what the stream actually draws from.
func (g *MarketGen) Config() MarketConfig { return g.cfg }

// Next returns the next request.
func (g *MarketGen) Next() MarketOp {
	op := MarketOp{
		User:    g.rng.Intn(g.cfg.Users),
		Product: int(g.zipf.Uint64()),
	}
	r := g.rng.Float64()
	switch {
	case r < g.cfg.CartFrac:
		op.Kind = MarketAddToCart
		op.Qty = 1 + g.rng.Intn(3)
	case r < g.cfg.CartFrac+g.cfg.CheckoutFrac:
		op.Kind = MarketCheckout
	case r < g.cfg.CartFrac+g.cfg.CheckoutFrac+g.cfg.PriceFrac:
		op.Kind = MarketUpdatePrice
		op.Price = int64(100 + g.rng.Intn(900))
	default:
		op.Kind = MarketQueryProduct
	}
	return op
}

// CartKey / PriceKey / MarketStockKey / OrderKey name the state keys a
// marketplace op touches, shared by the MarketApp bodies and auditor so
// every cell hits identical key sets.
func CartKey(user int) string           { return Join("cart", "/", int64(user)) }
func PriceKey(product int) string       { return Join("price", "/", int64(product)) }
func MarketStockKey(product int) string { return Join("mstock", "/", int64(product)) }
func OrderKey(user int) string          { return Join("order", "/", int64(user)) }

// Keys returns every state key the op touches (its declared key set):
// queries read the product pair, checkouts span the cart, the product and
// the buyer's order ledger — the multi-key write-skew surface.
func (op MarketOp) Keys() []string {
	switch op.Kind {
	case MarketAddToCart:
		return []string{CartKey(op.User)}
	case MarketCheckout:
		return []string{CartKey(op.User), PriceKey(op.Product), MarketStockKey(op.Product), OrderKey(op.User)}
	case MarketQueryProduct:
		return []string{PriceKey(op.Product), MarketStockKey(op.Product)}
	default: // MarketUpdatePrice
		return []string{PriceKey(op.Product)}
	}
}

// --- social network -----------------------------------------------------------

// SocialKind is the social-network operation type.
type SocialKind int

// Social operations: compose-post is the DeathStarBench hot path; follow
// and unfollow are the graph churn that mutates an author's fan-out key
// set between posts.
const (
	SocialPost SocialKind = iota
	SocialFollow
	SocialUnfollow
)

func (k SocialKind) String() string {
	switch k {
	case SocialFollow:
		return "follow"
	case SocialUnfollow:
		return "unfollow"
	default:
		return "compose-post"
	}
}

// SocialOp is one social-network request. A compose-post (the zero Kind)
// fans PostID out to the author's followers' timelines; the follower list
// rides in the descriptor — Calvin-style reconnaissance done by the
// workload layer, which owns the authoritative graph. Follow/unfollow
// carry the single edge (Author, Follower) they flip.
type SocialOp struct {
	Kind      SocialKind
	Author    int
	PostID    int64 // compose-post: the id delivered to every timeline
	Followers []int // compose-post: the fan-out set at generation time
	Follower  int   // follow/unfollow: the follower gained or lost
	TextLen   int
}

// SocialGen generates social ops over a zipf-degree follower graph. With a
// churn fraction > 0 it interleaves follow/unfollow ops that mutate the
// graph, so successive posts by the same author can declare different
// fan-out key sets — the dynamic-key-set stress the wide-transaction
// machinery needs.
type SocialGen struct {
	rng       *rand.Rand
	followers [][]int
	churn     float64
	nextPost  int64
}

// NewSocial builds a seeded follower graph of n users where user degree is
// skewed (a few celebrities, many lurkers). The stream is churn-free:
// every op is a compose-post (the pre-churn workload, kept for seeded
// stream stability).
func NewSocial(seed int64, users, maxFollowers int) *SocialGen {
	return NewSocialChurn(seed, users, maxFollowers, 0)
}

// NewSocialChurn is NewSocial with a follow/unfollow fraction: each op is
// a graph mutation with probability churn, a compose-post otherwise.
func NewSocialChurn(seed int64, users, maxFollowers int, churn float64) *SocialGen {
	if users < 2 {
		users = 2
	}
	if maxFollowers < 1 {
		maxFollowers = 16
	}
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(maxFollowers))
	g := &SocialGen{rng: rng, followers: make([][]int, users), churn: churn}
	for u := range g.followers {
		n := int(zipf.Uint64()) + 1
		fs := make([]int, 0, n)
		seen := map[int]struct{}{u: {}}
		for len(fs) < n && len(seen) < users {
			f := rng.Intn(users)
			if _, dup := seen[f]; dup {
				continue
			}
			seen[f] = struct{}{}
			fs = append(fs, f)
		}
		g.followers[u] = fs
	}
	return g
}

// Next returns the next op. Compose-posts snapshot the author's current
// follower list; follow/unfollow mutate the generator's graph in the same
// step, so the descriptor stream and the graph stay in lockstep.
func (g *SocialGen) Next() SocialOp {
	// The churn draw only happens when churn is enabled, so churn-free
	// generators keep the exact rng stream of the pre-churn workload.
	if g.churn > 0 && g.rng.Float64() < g.churn {
		if op, ok := g.nextChurn(); ok {
			return op
		}
	}
	author := g.rng.Intn(len(g.followers))
	g.nextPost++
	return SocialOp{
		Kind:      SocialPost,
		Author:    author,
		PostID:    g.nextPost,
		Followers: append([]int(nil), g.followers[author]...),
		TextLen:   10 + g.rng.Intn(200),
	}
}

// nextChurn flips one follower edge: an unfollow of an existing follower
// half the time (when the author has any), otherwise a follow by a
// non-follower (when one exists).
func (g *SocialGen) nextChurn() (SocialOp, bool) {
	users := len(g.followers)
	author := g.rng.Intn(users)
	fs := g.followers[author]
	if len(fs) > 0 && (g.rng.Float64() < 0.5 || len(fs) >= users-1) {
		i := g.rng.Intn(len(fs))
		f := fs[i]
		g.followers[author] = append(append([]int(nil), fs[:i]...), fs[i+1:]...)
		return SocialOp{Kind: SocialUnfollow, Author: author, Follower: f}, true
	}
	// Find a non-follower; give up (fall back to a post) if the draw
	// keeps hitting existing edges.
	following := map[int]struct{}{author: {}}
	for _, f := range fs {
		following[f] = struct{}{}
	}
	for tries := 0; tries < 8 && len(following) < users; tries++ {
		f := g.rng.Intn(users)
		if _, dup := following[f]; dup {
			continue
		}
		g.followers[author] = append(append([]int(nil), fs...), f)
		return SocialOp{Kind: SocialFollow, Author: author, Follower: f}, true
	}
	return SocialOp{}, false
}

// Followers returns a copy of user u's current follower list.
func (g *SocialGen) Followers(u int) []int {
	return append([]int(nil), g.followers[u]...)
}

// Users returns the size of the follower graph.
func (g *SocialGen) Users() int { return len(g.followers) }

// PostsKey / TimelineKey / FollowKey name the state keys a social op
// touches, shared by the SocialApp bodies and auditor.
func PostsKey(user int) string    { return Join("posts", "/", int64(user)) }
func TimelineKey(user int) string { return Join("timeline", "/", int64(user)) }

// FollowKey is the (author, follower) edge counter: 1 while follower is
// subscribed to author's posts, 0 after an unfollow. Counters instead of
// a single list-valued followers key keep the churn commutative — a
// follow is +1, an unfollow is -1, exact on every cell in any order.
func FollowKey(author, follower int) string {
	return Join("follow", "/", int64(author), int64(follower))
}

// Keys returns every state key the op touches (its declared key set). For
// a compose-post that is the author's post log plus one timeline per
// follower: the key set's width IS the fan-out — on the statefun cell
// each key costs a read send (chunked across invocation rounds past the
// send budget), and on the partitioned core it spreads the transaction
// across partitions. Follow/unfollow touch the single edge they flip.
func (op SocialOp) Keys() []string {
	switch op.Kind {
	case SocialFollow, SocialUnfollow:
		return []string{FollowKey(op.Author, op.Follower)}
	default:
		keys := make([]string, 0, len(op.Followers)+1)
		keys = append(keys, PostsKey(op.Author))
		for _, f := range op.Followers {
			keys = append(keys, TimelineKey(f))
		}
		return keys
	}
}

// --- reserved marketplace ------------------------------------------------------

// The reservation-style marketplace variant (ROADMAP 4b): instead of
// checkout reading the live cart, price, and stock — the write-skew
// surface E18/E21 measure — the price is reserved at cart time. Each
// add-to-cart becomes a reservation: the client-quoted price rides in
// the op descriptor (the quote the user saw), the reserved amount lands
// under a per-reservation key written exactly once, and stock is
// escrowed with a commutative decrement. A checkout then claims
// specific reservation ids — keys only that checkout ever touches — so
// every write op's effects are a pure function of its arguments and its
// private keys. No op reads a key another op writes concurrently, which
// is why the eventual cells audit to exactly zero anomalies on this
// variant: commutativity and unique ownership replace isolation. The
// cost is extra state and ops (a key and a tombstone per reservation)
// and a business-policy change — the quoted price is honored even if a
// price update lands in between.

// ReservationKey names one reservation's escrow: written once by the
// reserving add-to-cart, consumed once by the claiming checkout.
func ReservationKey(user int, id int64) string {
	return Join("resv", "/", int64(user), id)
}

// ReservedKeys returns the op's declared key set under the reservation
// variant. Cart adds touch the escrow and the stock (the price is quoted
// in the args, not read); checkouts touch exactly the claimed
// reservations plus the buyer's order ledger.
func (op MarketOp) ReservedKeys() []string {
	switch op.Kind {
	case MarketAddToCart:
		return []string{MarketStockKey(op.Product), ReservationKey(op.User, op.ResvID)}
	case MarketCheckout:
		keys := make([]string, 0, len(op.Claims)+1)
		for _, id := range op.Claims {
			keys = append(keys, ReservationKey(op.User, id))
		}
		return append(keys, OrderKey(op.User))
	default:
		return op.Keys()
	}
}

// ReservedMarketGen wraps a MarketGen stream with the bookkeeping the
// reservation variant needs: unique reservation ids per cart add, a
// client-side quote for the reserved price, and per-user claim lists so
// each checkout claims reservations exactly once. The base generator's
// rng stream is untouched — the wrapper draws quotes from its own seeded
// rng — so reserved and plain runs sweep identical op mixes.
type ReservedMarketGen struct {
	inner   *MarketGen
	rng     *rand.Rand
	nextID  int64
	idBase  int64
	pending map[int][]int64 // user -> unclaimed reservation ids from this client
}

// maxClaimsPerCheckout bounds a checkout's key width (and so the
// statefun scatter and the core's lock footprint) the way real carts
// bound their size.
const maxClaimsPerCheckout = 8

// NewReservedMarket wraps a seeded base stream. The seed namespaces this
// client's reservation ids (each client claims only ids it issued, so
// ids must be distinct across clients sharing a cell).
func NewReservedMarket(seed int64, cfg MarketConfig) *ReservedMarketGen {
	return &ReservedMarketGen{
		inner:   NewMarket(seed, cfg),
		rng:     rand.New(rand.NewSource(seed ^ 0x5eed)),
		idBase:  seed << 20,
		pending: make(map[int][]int64),
	}
}

// Next returns the next reserved-variant request.
func (g *ReservedMarketGen) Next() MarketOp {
	op := g.inner.Next()
	switch op.Kind {
	case MarketAddToCart:
		g.nextID++
		op.ResvID = g.idBase + g.nextID
		// The quote the client saw — drawn from the same range update-price
		// writes, standing in for a browsed catalog page.
		op.Price = int64(100 + g.rng.Intn(900))
		g.pending[op.User] = append(g.pending[op.User], op.ResvID)
	case MarketCheckout:
		ids := g.pending[op.User]
		n := len(ids)
		if n > maxClaimsPerCheckout {
			n = maxClaimsPerCheckout
		}
		op.Claims = append([]int64(nil), ids[:n]...)
		g.pending[op.User] = ids[n:]
	}
	return op
}

// --- trip booking --------------------------------------------------------------

// BookingKind is the trip-booking operation type.
type BookingKind int

// Booking operations, the examples/booking saga promoted to a
// first-class mix: a trip reserves one flight seat and one hotel room
// atomically, a cancellation releases both, and queries read the trip
// ledger. All mutations are ±1 counter deltas — fully commutative — so
// every cell must audit clean; what the mix measures is the cost of the
// multi-key atomic step (two services plus the user's trip ledger).
const (
	BookingReserve BookingKind = iota
	BookingCancel
	BookingQuery
)

func (k BookingKind) String() string {
	switch k {
	case BookingCancel:
		return "cancel-trip"
	case BookingQuery:
		return "query-trip"
	default:
		return "reserve-trip"
	}
}

// BookingOp is one trip-booking request.
type BookingOp struct {
	Kind   BookingKind
	User   int
	Flight int
	Hotel  int
}

// BookingGen generates booking requests. Cancellations draw only from
// trips this generator has reserved (a client cancels its own booking),
// so the stream never legitimately drives a seat count negative.
type BookingGen struct {
	rng        *rand.Rand
	users      int
	flights    int
	hotels     int
	cancelFrac float64
	queryFrac  float64
	booked     []BookingOp
}

// NewBooking builds a seeded generator over users × flights × hotels
// with the given cancel and query fractions (remainder reserves).
func NewBooking(seed int64, users, flights, hotels int, cancelFrac, queryFrac float64) *BookingGen {
	if users < 1 {
		users = 64
	}
	if flights < 1 {
		flights = 8
	}
	if hotels < 1 {
		hotels = 8
	}
	return &BookingGen{
		rng:        rand.New(rand.NewSource(seed)),
		users:      users,
		flights:    flights,
		hotels:     hotels,
		cancelFrac: cancelFrac,
		queryFrac:  queryFrac,
	}
}

// Next returns the next booking request.
func (g *BookingGen) Next() BookingOp {
	r := g.rng.Float64()
	switch {
	case r < g.cancelFrac && len(g.booked) > 0:
		i := g.rng.Intn(len(g.booked))
		op := g.booked[i]
		g.booked = append(g.booked[:i], g.booked[i+1:]...)
		op.Kind = BookingCancel
		return op
	case r < g.cancelFrac+g.queryFrac:
		return BookingOp{Kind: BookingQuery, User: g.rng.Intn(g.users)}
	default:
		op := BookingOp{
			Kind:   BookingReserve,
			User:   g.rng.Intn(g.users),
			Flight: g.rng.Intn(g.flights),
			Hotel:  g.rng.Intn(g.hotels),
		}
		g.booked = append(g.booked, op)
		return op
	}
}

// FlightKey / HotelKey / TripKey name the booking state: seats sold per
// flight, rooms sold per hotel, trips held per user.
func FlightKey(flight int) string { return Join("flight", "/", int64(flight)) }
func HotelKey(hotel int) string   { return Join("hotel", "/", int64(hotel)) }
func TripKey(user int) string     { return Join("trip", "/", int64(user)) }

// Keys returns the op's declared key set: a reservation (and its
// cancellation) spans the flight, the hotel, and the user's trip ledger.
func (op BookingOp) Keys() []string {
	switch op.Kind {
	case BookingQuery:
		return []string{TripKey(op.User)}
	default:
		return []string{FlightKey(op.Flight), HotelKey(op.Hotel), TripKey(op.User)}
	}
}

// --- double-entry ledger -------------------------------------------------------

// LedgerKind is the ledger operation type.
type LedgerKind int

// Ledger operations, the examples/streamledger job promoted to a
// first-class mix: a posting moves an amount between two accounts and
// journals the entry id on both sides (a bounded commutative PushCap),
// queries read one balance. Conservation (Σ balances constant) is the
// audited invariant.
const (
	LedgerPost LedgerKind = iota
	LedgerQuery
)

func (k LedgerKind) String() string {
	if k == LedgerQuery {
		return "query-balance"
	}
	return "post"
}

// LedgerOp is one ledger request.
type LedgerOp struct {
	Kind   LedgerKind
	From   int
	To     int
	Amount int64
	Entry  int64 // unique journal entry id
}

// LedgerGen generates seeded postings over n accounts; queryFrac of the
// stream reads balances. Entry ids are namespaced by the seed so
// concurrent clients journal distinct ids.
type LedgerGen struct {
	rng       *rand.Rand
	accounts  int
	queryFrac float64
	nextEntry int64
	idBase    int64
}

// NewLedger builds a seeded generator.
func NewLedger(seed int64, accounts int, queryFrac float64) *LedgerGen {
	if accounts < 2 {
		accounts = 32
	}
	return &LedgerGen{
		rng:       rand.New(rand.NewSource(seed)),
		accounts:  accounts,
		queryFrac: queryFrac,
		idBase:    seed << 20,
	}
}

// Next returns the next ledger request.
func (g *LedgerGen) Next() LedgerOp {
	if g.queryFrac > 0 && g.rng.Float64() < g.queryFrac {
		return LedgerOp{Kind: LedgerQuery, From: g.rng.Intn(g.accounts)}
	}
	from := g.rng.Intn(g.accounts)
	to := g.rng.Intn(g.accounts - 1)
	if to >= from {
		to++
	}
	g.nextEntry++
	return LedgerOp{
		Kind:   LedgerPost,
		From:   from,
		To:     to,
		Amount: int64(1 + g.rng.Intn(100)),
		Entry:  g.idBase + g.nextEntry,
	}
}

// AcctKey / JournalKey name the ledger state: one balance and one
// bounded journal of recent entry ids per account.
func AcctKey(account int) string    { return Join("acct", "/", int64(account)) }
func JournalKey(account int) string { return Join("journal", "/", int64(account)) }

// Keys returns the op's declared key set: a posting touches both sides'
// balances and journals.
func (op LedgerOp) Keys() []string {
	if op.Kind == LedgerQuery {
		return []string{AcctKey(op.From)}
	}
	return []string{AcctKey(op.From), AcctKey(op.To), JournalKey(op.From), JournalKey(op.To)}
}
