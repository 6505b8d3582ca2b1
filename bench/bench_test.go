package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tca"
	"tca/internal/fabric"
	"tca/internal/workload"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	sorted := make([]int64, 1000)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	if p, err := percentile(sorted, 0.99); err != nil || p != 990 {
		t.Fatalf("p99 of 1..1000 = %d, %v; want 990 with exactly 10 beyond", p, err)
	}
	if _, err := percentile(sorted[:999], 0.99); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(sorted, 0.999); err == nil {
		t.Fatal("p999 of 1000 samples has 0 beyond it and must be refused")
	}
	if p, err := percentile(sorted[:21], 0.5); err != nil || p != 11 {
		t.Fatalf("median of 1..21 = %d, %v; want 11", p, err)
	}
	if _, err := percentile(sorted[:19], 0.5); err == nil {
		t.Fatal("median of 19 samples has 9 beyond it and must be refused")
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{1, "op", 0, 100, ""},
		{1, "gen", 0, 10, "op"},
		{1, "accept", 20, 50, "op"},
		{1, "wait", 40, 90, "op"},   // overlaps accept by 10: counted once
		{1, "audit", 95, 120, "op"}, // runs past its parent: clipped to 5
		{2, "op", 1000, 1040, ""},   // another op with the same names
		{2, "accept", 1000, 1040, "op"},
		{0, "settle", 0, 7, "run"}, // parent not recorded: nothing to subtract from
	}
	want := []int64{100 - (10 + 30 + 40 + 5), 10, 30, 50, 25, 0, 40, 7}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s/%d = %d, want %d", spans[i].Name, spans[i].OpID, got[i], want[i])
		}
	}
	rows := breakdown(spans)
	for _, r := range rows {
		if r.Name == "op" && (r.Count != 2 || r.SelfMS != 15.0/1e6) {
			t.Errorf("breakdown row op = %+v, want count 2 and 15ns of self time", r)
		}
	}
}

// fakeHandle is an already-resolved or later-resolved tca.Handle.
type fakeHandle struct {
	done chan struct{}
	err  error
}

func (h *fakeHandle) Done() <-chan struct{}   { return h.done }
func (h *fakeHandle) Result() ([]byte, error) { <-h.done; return nil, h.err }

// fakeCell is a tca.Cell that runs TPC-C bodies serially over a map. It
// can lose its nth Add (the bug the invariant check must see from
// outside) and stall inside its first Submit (for the open-loop test).
type fakeCell struct {
	app *tca.App

	mu      sync.Mutex
	state   mapTxn
	adds    int
	loseAdd int // 1-based index of the warehouse/district Add to drop; 0 drops none

	stallFirst time.Duration
	submits    atomic.Int64
}

type lossyTxn struct{ c *fakeCell }

func (t lossyTxn) Get(k string) ([]byte, bool, error) { return t.c.state.Get(k) }
func (t lossyTxn) Put(k string, v []byte) error       { return t.c.state.Put(k, v) }
func (t lossyTxn) PushCap(string, int64, int) error   { return nil }
func (t lossyTxn) Add(k string, d int64) error {
	// Only the checked counters count: a lost customer-balance Add is
	// outside what the harness can know from handles alone.
	if !strings.HasPrefix(k, "cust/") {
		t.c.adds++
		if t.c.adds == t.c.loseAdd {
			return nil
		}
	}
	return t.c.state.Add(k, d)
}

func newFakeCell() *fakeCell { return &fakeCell{app: tca.TPCCApp(), state: mapTxn{}} }

func (c *fakeCell) Model() tca.ProgrammingModel { return tca.Deterministic }
func (c *fakeCell) Guarantee() tca.Guarantee    { return tca.Guarantee{} }
func (c *fakeCell) App() *tca.App               { return c.app }
func (c *fakeCell) Settle() error               { return nil }
func (c *fakeCell) Close()                      {}

func (c *fakeCell) Read(key string) ([]byte, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state.Get(key)
}

func (c *fakeCell) Invoke(reqID, op string, args []byte, tr *fabric.Trace) ([]byte, error) {
	return c.Submit(reqID, op, args, tr).Result()
}

func (c *fakeCell) Submit(_, opName string, args []byte, _ *fabric.Trace) tca.Handle {
	if c.submits.Add(1) == 1 && c.stallFirst > 0 {
		time.Sleep(c.stallFirst)
	}
	op, _ := c.app.Op(opName)
	c.mu.Lock()
	_, err := op.Body(lossyTxn{c}, args)
	c.mu.Unlock()
	h := &fakeHandle{done: make(chan struct{}), err: err}
	close(h.done)
	return h
}

// fakeDriver wires a driver to a fake cell the way deploy does to a real one.
func fakeDriver(cell tca.Cell, nSessions, depth int) *driver {
	spec := workloadSpec{Name: "fake", Model: cell.Model(), Exact: true}
	dep := &deployment{spec: spec, cell: cell}
	for s := 0; s < nSessions; s++ {
		dep.sess = append(dep.sess, &sessState{
			sess: tca.NewSession(cell, "t/"+string(rune('a'+s)), tca.SessionOptions{MaxInFlight: depth}),
			gen:  workload.NewTPCC(int64(s+1), tpccConfig(spec)),
		})
	}
	return &driver{deployment: dep, epoch: time.Now()}
}

func TestInvariantCheckFlagsALostAdd(t *testing.T) {
	for _, tc := range []struct{ loseAdd, wantDrift int }{{0, 0}, {57, 1}} {
		cell := newFakeCell()
		cell.loseAdd = tc.loseAdd
		d := fakeDriver(cell, 2, 4)
		for i := 0; i < 200; i++ {
			d.one(d.sess[i%2], time.Time{})
		}
		d.wg.Wait()
		off, err := d.expected().drift(cell)
		if err != nil {
			t.Fatal(err)
		}
		if len(off) != tc.wantDrift {
			t.Errorf("losing Add #%d: drift = %v, want %d keys", tc.loseAdd, off, tc.wantDrift)
		}
		var c checks
		c.foldRound(d.spec, 0, &roundResult{Attempted: 200, Drift: off})
		if failed := len(c.Errors) > 0; failed != (tc.wantDrift > 0) {
			t.Errorf("losing Add #%d: check errors = %v", tc.loseAdd, c.Errors)
		}
	}
}

type everyMillisecond struct{}

func (everyMillisecond) Gap() time.Duration { return time.Millisecond }

func TestOpenLoopMeasuresFromDueTime(t *testing.T) {
	const stall = 40 * time.Millisecond
	cell := newFakeCell()
	cell.stallFirst = stall
	d := fakeDriver(cell, 1, 64)
	var stop atomic.Bool
	var late []int64
	gens := d.openLoop(everyMillisecond{}, &stop, &late)
	time.Sleep(stall + 20*time.Millisecond)
	stop.Store(true)
	gens.Wait()
	d.wg.Wait()

	samples := d.sess[0].samples // in completion order: put the stalled first arrival first
	sort.Slice(samples, func(i, j int) bool { return samples[i].origin < samples[j].origin })
	if len(samples) < 10 {
		t.Fatalf("only %d arrivals issued", len(samples))
	}
	// Arrivals 2..40 fell due while the scheduler was stuck in the first
	// Submit. Their own service is instant, so only timing from the due
	// time shows the stall; timing from the Submit call would hide it.
	var worstFromDue, worstFromCall int64
	for _, sm := range samples[1:] {
		worstFromDue = max(worstFromDue, sm.done-sm.origin)
		worstFromCall = max(worstFromCall, sm.done-sm.call)
	}
	if worstFromDue < int64(stall/2) {
		t.Errorf("worst latency from due time = %v, want most of the %v stall", time.Duration(worstFromDue), stall)
	}
	if worstFromCall > int64(stall/4) {
		t.Errorf("worst latency from the Submit call = %v: the fake serves instantly", time.Duration(worstFromCall))
	}
	sortInt64(late)
	if worst := late[len(late)-1]; worst < int64(stall/2) {
		t.Errorf("worst reported lateness = %v, want most of the %v stall", time.Duration(worst), stall)
	}
}

func TestJudge(t *testing.T) {
	tx := metricDef{"tx_s", "1/s", "higher", 0.15}
	lat := metricDef{"apply_p50_us", "us", "lower", 0.15}
	steady := func(v float64) metricValue { return metricValue{Value: v, Rounds: []float64{v * 0.98, v, v * 1.02}} }
	for _, tc := range []struct {
		m    metricDef
		a, b metricValue
		want verdict
	}{
		{tx, steady(1000), steady(900), verdictOK},
		{tx, steady(1000), steady(800), verdictWorse},
		{tx, steady(1000), steady(2000), verdictOK},
		{lat, steady(100), steady(120), verdictWorse},
		{lat, steady(100), steady(80), verdictOK},
		{lat, steady(100), metricValue{Value: 120, Rounds: []float64{90, 120, 130}}, verdictUnresolved},
	} {
		if _, got := judge(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s %v -> %v: %s, want %s", tc.m.Name, tc.a.Value, tc.b.Value, got, tc.want)
		}
	}
}

func TestPerLayerDeclaredIsPrintedAndViceVersa(t *testing.T) {
	traced, probes := map[string]float64{}, map[string]float64{}
	for _, m := range perLayerMetrics {
		if m.Source == "traced" {
			traced[m.Name] = 1
		} else {
			probes[m.Name] = 1
		}
	}
	if out, err := perLayer(traced, probes); err != nil || len(out) != len(perLayerMetrics) {
		t.Fatalf("complete input: %d metrics, %v", len(out), err)
	}
	probes["wal.unheard_of"] = 1
	if _, err := perLayer(traced, probes); err == nil {
		t.Error("an undeclared measured metric must be refused")
	}
	delete(probes, "wal.unheard_of")
	delete(traced, "core.commits")
	if _, err := perLayer(traced, probes); err == nil {
		t.Error("a declared but unmeasured metric must be refused")
	}
}

// benchmarkJSON mirrors the root BENCHMARK.json; unknown keys fail the lint.
type benchmarkJSON struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []jsonWorkload  `json:"workloads"`
	EndToEnd   []jsonEndToEnd  `json:"end_to_end"`
	PerLayer   []jsonLayerSpec `json:"per_layer"`
}

type jsonWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type jsonEndToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type jsonLayerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// wantBenchmarkJSON is the document the program's own catalogue implies.
func wantBenchmarkJSON() benchmarkJSON {
	want := benchmarkJSON{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		want.Workloads = append(want.Workloads, jsonWorkload{w.Name, w.Why})
	}
	for _, m := range endToEndMetrics {
		want.EndToEnd = append(want.EndToEnd, jsonEndToEnd{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayerMetrics {
		want.PerLayer = append(want.PerLayer, jsonLayerSpec{m.Name, m.Unit, m.Better})
	}
	return want
}

func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	f, err := os.Open("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var got benchmarkJSON
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if want := wantBenchmarkJSON(); !reflect.DeepEqual(got, want) {
		raw, _ := json.MarshalIndent(want, "", "  ")
		t.Errorf("BENCHMARK.json and catalog.go/workloads.go disagree; the program implies:\n%s", raw)
	}
}

// TestCatalogueLint checks the catalogue against the limits of the
// driver's contract and against itself.
func TestCatalogueLint(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, name, unit, better string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is not a legal name", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
		if kind != "workload" && !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q", name, unit)
		}
		if kind != "workload" && better != "higher" && better != "lower" {
			t.Errorf("%s: better = %q", name, better)
		}
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, 2..8 allowed", n)
	}
	for _, w := range workloads {
		check("workload", w.Name, "", "")
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if !w.Exact && w.NotExactWhy == "" {
			t.Errorf("workload %s is inexact without a reason", w.Name)
		}
	}
	if n := len(endToEndMetrics); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, 1..16 allowed", n)
	}
	e2e := map[string]bool{"correct": true, "failed": true}
	for _, m := range endToEndMetrics {
		check("end-to-end", m.Name, m.Unit, m.Better)
		e2e[m.Name] = true
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !e2e["setup_s"] {
		t.Error("setup_s must be an end-to-end metric")
	}
	if n := len(perLayerMetrics); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, 1..128 allowed", n)
	}
	for _, m := range perLayerMetrics {
		check("per-layer", m.Name, m.Unit, m.Better)
		if m.Source != "probe" && m.Source != "traced" {
			t.Errorf("per-layer %s: source %q", m.Name, m.Source)
		}
		if len(m.Moves) == 0 {
			t.Errorf("per-layer %s moves nothing: say which end-to-end metric it should move, on which workload", m.Name)
		}
		for _, mv := range m.Moves {
			if _, ok := findWorkload(mv.Workload); !e2e[mv.Metric] || (mv.Workload != "*" && !ok) {
				t.Errorf("per-layer %s moves %s on %s: no such metric or workload", m.Name, mv.Metric, mv.Workload)
			}
		}
	}
}
