package workload

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// decodeSeeds are the fuzz corpus: generator output of every kind, local
// and remote, nil and empty Items, and the inputs JSON reads differently
// from the canonical layout — each of which the fast path must refuse.
func decodeSeeds() []string {
	var seeds []string
	add := func(op TPCCOp) {
		raw, _ := json.Marshal(op)
		seeds = append(seeds, string(raw))
	}
	for _, q := range []float64{0, 0.5, 1} {
		for _, r := range []float64{0, 1} {
			cfg := DefaultTPCCConfig(4)
			cfg.QueryFrac, cfg.RemoteFrac = q, RemoteFrac(r)
			g := NewTPCC(7, cfg)
			for i := 0; i < 8; i++ {
				add(g.Next())
			}
		}
	}
	add(TPCCOp{})
	add(TPCCOp{Kind: TPCCStockLevel, Items: []TPCCItem{}})
	add(TPCCOp{Kind: TPCCNewOrder, Warehouse: -3, Items: []TPCCItem{{ItemID: -1, Qty: math.MaxInt64}}})
	add(TPCCOp{Amount: math.MinInt64, Threshold: math.MaxInt64, Remote: true, RemoteWarehouse: math.MinInt64})
	const tail = `,"Items":null,"Amount":0,"Threshold":0,"Remote":false,"RemoteWarehouse":0}`
	return append(seeds,
		`{"Kind":01,"Warehouse":0,"District":0,"Customer":0`+tail,
		`{"Kind":0,"Warehouse":-01,"District":0,"Customer":0`+tail,
		`{"Kind":0,"Warehouse":00,"District":0,"Customer":0`+tail,
		`{"Kind":0,"Warehouse":0,"District":0,"Customer":0,"Items":[{"ItemID":07,"Qty":1}],"Amount":0,"Threshold":0,"Remote":false,"RemoteWarehouse":0}`,
		`{"Kind":+1,"Warehouse":0,"District":0,"Customer":0`+tail,
		`{"Kind": 1,"Warehouse":0,"District":0,"Customer":0`+tail,
		` {"Kind":1,"Warehouse":0,"District":0,"Customer":0`+tail,
		`{"Kind":1,"Warehouse":0,"District":0,"Customer":0`+tail+"\n",
		`{"Kind":1e0,"Warehouse":0,"District":0,"Customer":0`+tail,
		`{"Kind":1.0,"Warehouse":0,"District":0,"Customer":0`+tail,
		`{"Kind":1,"Warehouse":9223372036854775808,"District":0,"Customer":0`+tail,
		`{"Kind":1,"Warehouse":-9223372036854775809,"District":0,"Customer":0`+tail,
		`{"Kind":1,"Warehouse":99999999999999999999,"District":0,"Customer":0`+tail,
		`{"Warehouse":2,"Kind":1,"District":0,"Customer":0`+tail,
		`{"Kind":1,"Warehouse":0,"District":0,"Customer":0,"Extra":5`+tail,
		`{"kind":1,"Warehouse":0,"District":0,"Customer":0`+tail,
		`{"KIND":1,"Warehouse":0,"District":0,"Customer":0`+tail,
		`{"Kind":1,"Warehouse":0,"District":0,"Customer":0,"Items":[],"Amount":0,"Threshold":0,"Remote":true,"RemoteWarehouse":0}`,
		`{"Kind":1,"Warehouse":0,"District":0,"Customer":0,"Items":[{"Qty":1,"ItemID":2}],"Amount":0,"Threshold":0,"Remote":false,"RemoteWarehouse":0}`,
		`{"Kind":1,"Warehouse":0,"District":0,"Customer":0,"Items":[{"ItemID":1,"Qty":2},],"Amount":0,"Threshold":0,"Remote":false,"RemoteWarehouse":0}`,
		`{"Kind":1,"Warehouse":0,"District":0,"Customer":0,"Items":[{"ItemID":1,"Qty":2}{"ItemID":1,"Qty":2}],"Amount":0,"Threshold":0,"Remote":false,"RemoteWarehouse":0}`,
		`{"Kind":1,"Warehouse":0,"District":0,"Customer":0`+tail+`}`,
		`{"Kind":1,"Warehouse":0,"District":0,"Customer":0`+tail[:len(tail)-1],
		`{"Kind":1,"Warehouse":0,"District":0,"Customer":0,"Items":null,"Amount":0,"Threshold":0,"Remote":0,"RemoteWarehouse":0}`,
		`{"Kind":-,"Warehouse":0,"District":0,"Customer":0`+tail,
		`null`, `{}`, `[]`, ``, `{"Kind":"1"}`,
	)
}

// FuzzDecodeTPCCOp is a differential test: DecodeTPCCOp must give
// exactly what json.Unmarshal gives — the same value under DeepEqual and
// the same error-ness — on every input.
func FuzzDecodeTPCCOp(f *testing.F) {
	for _, s := range decodeSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		got, gotErr := DecodeTPCCOp(b)
		var want TPCCOp
		wantErr := json.Unmarshal(b, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: DecodeTPCCOp error %v, json.Unmarshal error %v", b, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: DecodeTPCCOp = %+v, json.Unmarshal = %+v", b, got, want)
		}
	})
}

// TestDecodeTPCCOpTakesGeneratorOutput pins the gain: every op the
// generator emits, in every mix, parses on the fast path and round-trips,
// so a layout drift cannot fall back to json.Unmarshal unnoticed.
func TestDecodeTPCCOpTakesGeneratorOutput(t *testing.T) {
	for _, r := range []float64{0, 1} {
		cfg := DefaultTPCCConfig(4)
		cfg.QueryFrac, cfg.RemoteFrac = 0.5, RemoteFrac(r)
		g := NewTPCC(1, cfg)
		for i := 0; i < 20000; i++ {
			op := g.Next()
			raw, err := json.Marshal(op)
			if err != nil {
				t.Fatal(err)
			}
			got, ok := decodeTPCCOpFast(raw)
			if !ok {
				t.Fatalf("RemoteFrac %v op %d fell back to json.Unmarshal: %s", r, i, raw)
			}
			if !reflect.DeepEqual(got, op) {
				t.Fatalf("RemoteFrac %v op %d: decoded %+v, want %+v", r, i, got, op)
			}
		}
	}
}

// TestKeyBuildersMatchSprintf pins every key builder to the fmt.Sprintf
// format it replaced, negative and extreme ids included.
func TestKeyBuildersMatchSprintf(t *testing.T) {
	for _, a := range []int{0, 1, -1, 42, -907, math.MaxInt64, math.MinInt64} {
		b, c := a/3-5, -a/7+11
		pairs := [][2]string{
			{StockKey(a, b), fmt.Sprintf("stock/%d/%d", a, b)},
			{CustomerKey(a, b, c), fmt.Sprintf("cust/%d/%d/%d", a, b, c)},
			{DistrictKey(a, b), fmt.Sprintf("dist/%d/%d", a, b)},
			{WarehouseKey(a), fmt.Sprintf("wh/%d", a)},
			{CartKey(a), fmt.Sprintf("cart/%d", a)},
			{PriceKey(a), fmt.Sprintf("price/%d", a)},
			{MarketStockKey(a), fmt.Sprintf("mstock/%d", a)},
			{OrderKey(a), fmt.Sprintf("order/%d", a)},
			{PostsKey(a), fmt.Sprintf("posts/%d", a)},
			{TimelineKey(a), fmt.Sprintf("timeline/%d", a)},
			{FollowKey(a, b), fmt.Sprintf("follow/%d/%d", a, b)},
			{ReservationKey(a, int64(c)<<20), fmt.Sprintf("resv/%d/%d", a, int64(c)<<20)},
			{FlightKey(a), fmt.Sprintf("flight/%d", a)},
			{HotelKey(a), fmt.Sprintf("hotel/%d", a)},
			{TripKey(a), fmt.Sprintf("trip/%d", a)},
			{AcctKey(a), fmt.Sprintf("acct/%d", a)},
			{JournalKey(a), fmt.Sprintf("journal/%d", a)},
		}
		for _, p := range pairs {
			if p[0] != p[1] {
				t.Errorf("key builder gave %q, fmt.Sprintf gives %q", p[0], p[1])
			}
		}
	}
}
