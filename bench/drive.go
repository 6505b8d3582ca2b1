package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tca"
	"tca/internal/fabric"
	"tca/internal/workload"
)

// tempDirs tracks every WAL directory the process created so that exit
// paths that skip defers (watchdog, signal, failed check) still remove them.
var tempDirs struct {
	mu   sync.Mutex
	dirs map[string]struct{}
}

func newTempDir() (string, error) {
	dir, err := os.MkdirTemp("", "tca-bench-")
	if err != nil {
		return "", err
	}
	tempDirs.mu.Lock()
	if tempDirs.dirs == nil {
		tempDirs.dirs = map[string]struct{}{}
	}
	tempDirs.dirs[dir] = struct{}{}
	tempDirs.mu.Unlock()
	return dir, nil
}

func removeTempDir(dir string) {
	os.RemoveAll(dir)
	tempDirs.mu.Lock()
	delete(tempDirs.dirs, dir)
	tempDirs.mu.Unlock()
}

func removeAllTempDirs() {
	tempDirs.mu.Lock()
	defer tempDirs.mu.Unlock()
	for dir := range tempDirs.dirs {
		os.RemoveAll(dir)
	}
	tempDirs.dirs = nil
}

// streamSeed is the generator seed of session s in round r of a run.
func streamSeed(seed int64, round, s int) int64 {
	return seed*10000 + int64(round)*100 + int64(s)
}

func tpccConfig(spec workloadSpec) workload.TPCCConfig {
	cfg := workload.DefaultTPCCConfig(warehouses)
	cfg.QueryFrac = spec.QueryFrac
	return cfg
}

// sessState is one simulated client: a Session, its seeded stream, and the
// samples, spans and expected counters its ops produced.
type sessState struct {
	sess *tca.Session
	gen  *workload.TPCCGen
	// permits caps the session's in-flight ops on a closed loop (nil on
	// the open loop): the loop takes one before it submits and the op's
	// waiter returns it. Holding the depth here and not in the Session
	// keeps the wait for a free slot out of the timed Submit call, so
	// accept latency is the cell's acceptance and not the previous op's
	// completion.
	permits chan struct{}

	mu      sync.Mutex
	samples []sample
	spans   []span
	exp     expectation
}

// sample is one op as the harness saw it. Times are nanoseconds since
// the round began.
type sample struct {
	origin int64 // when the op was due: the Submit call, or the arrival time on the open loop
	call   int64 // Session.Submit called
	accept int64 // Session.Submit returned
	done   int64 // Handle.Done closed
	sim    int64 // traced: modeled fabric latency charged to the op
	audit  int64 // traced: time inside the auditor's Record and Observe
	hops   int32 // traced: fabric hops charged to the op
	// cellErrs counts the aborts the cell answered before the final
	// outcome, each followed by a client retry.
	cellErrs int32
	failed   bool // the final outcome is an error (an exhausted shed included)
	shed     bool // ... and that error is ErrOverloaded
}

// deployment is a freshly set-up cell with its sessions.
type deployment struct {
	spec   workloadSpec
	cell   tca.Cell
	sess   []*sessState
	primed []workload.TPCCOp // the priming ops, in the order they applied
	logDir string
	// setup is deploy (WAL open included) + sessions + one priming op per
	// session resolved, so lazily initialised state is paid for here;
	// setupCPU is the process CPU time it used, at most setup.
	setup    time.Duration
	setupCPU time.Duration
}

func (d *deployment) close() {
	d.cell.Close()
	if d.logDir != "" {
		removeTempDir(d.logDir)
	}
}

// deploy sets up a fresh cell for one round. depth is the sessions'
// MaxInFlight; sampleCap pre-sizes the per-session sample log so that
// its growth does not count as retained memory.
func deploy(spec workloadSpec, seed int64, round, depth, sampleCap int) (*deployment, error) {
	d := &deployment{spec: spec}
	if spec.Model == tca.Deterministic {
		dir, err := newTempDir()
		if err != nil {
			return nil, err
		}
		d.logDir = dir
	}
	for s := 0; s < sessions; s++ {
		d.sess = append(d.sess, &sessState{samples: make([]sample, 0, sampleCap)})
	}
	cpu0, err := cpuTimeUS()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	env := tca.NewEnv(streamSeed(seed, round, 99), envNodes)
	cell, err := tca.DeployWith(spec.Model, tca.TPCCApp(), env, tca.Options{
		Clients: cellClients,
		Workers: coreWorkers,
		LogDir:  d.logDir,
		Fsync:   tca.FsyncEveryBatch,
	})
	if err != nil {
		if d.logDir != "" {
			removeTempDir(d.logDir)
		}
		return nil, fmt.Errorf("deploy %s: %w", spec.Name, err)
	}
	d.cell = cell
	for s, st := range d.sess {
		st.sess = tca.NewSession(cell, fmt.Sprintf("r%d/s%d", round, s), tca.SessionOptions{MaxInFlight: depth, RetryBudget: shedRetryBudget})
		st.gen = workload.NewTPCC(streamSeed(seed, round, s), tpccConfig(spec))
		op := st.gen.Next()
		args, err := json.Marshal(op)
		if err != nil {
			d.close()
			return nil, err
		}
		if _, err := st.sess.Invoke(op.Kind.String(), args, nil); err != nil {
			d.close()
			return nil, fmt.Errorf("%s: priming op: %w", spec.Name, err)
		}
		st.exp.add(op)
		d.primed = append(d.primed, op)
	}
	d.setup = time.Since(t0)
	cpu1, err := cpuTimeUS()
	if err != nil {
		d.close()
		return nil, err
	}
	d.setupCPU = min(time.Duration((cpu1-cpu0)*1e3), d.setup)
	return d, nil
}

// driver issues ops against a deployment and records what came back.
// With an auditor it is the traced pass: every op also gets spans, a
// fabric trace and a live audit.
type driver struct {
	*deployment
	epoch time.Time
	aud   *tca.TPCCAuditor
	opSeq atomic.Int64
	wg    sync.WaitGroup // one per unresolved handle
}

func (d *driver) since(t time.Time) int64 { return int64(t.Sub(d.epoch)) }

// expected is what the settled cell must hold: the sessions' expected
// counters summed (call once every waiter has ended).
func (d *driver) expected() *expectation {
	var exp expectation
	for _, s := range d.sess {
		exp.merge(&s.exp)
	}
	return &exp
}

// one generates, encodes and submits one op on s and leaves a waiter on
// its handle. due is the open loop's arrival time (zero on a closed
// loop): latency then counts from when the op should have been sent.
func (d *driver) one(s *sessState, due time.Time) {
	id := d.opSeq.Add(1)
	traced := d.aud != nil
	var tGen, tEnc, tRec, tRecEnd time.Time
	if traced {
		tGen = time.Now()
	}
	op := s.gen.Next()
	if traced {
		tEnc = time.Now()
	}
	args, err := json.Marshal(op)
	if err != nil {
		panic(err) // a plain struct of ints: cannot fail
	}
	name := op.Kind.String()
	var tr *fabric.Trace
	var auditID string
	if traced {
		tr = fabric.NewTrace()
		tRec = time.Now()
		auditID = "a/" + strconv.FormatInt(id, 10)
		d.aud.Record(auditID, name, args)
		tRecEnd = time.Now()
	}
	call := time.Now()
	h := s.sess.Submit(name, args, tr)
	acc := time.Now()
	origin := call
	if !due.IsZero() {
		origin = due
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		_, opErr := h.Result()
		var cellErrs int32
		for opErr != nil && cellErrs < clientRetries && clientRetryable(d.spec.Model, opErr) {
			cellErrs++
			time.Sleep(time.Duration(cellErrs) * clientBackoff)
			h = s.sess.Submit(name, args, tr)
			_, opErr = h.Result()
		}
		done := time.Now()
		sm := sample{
			origin: d.since(origin), call: d.since(call), accept: d.since(acc), done: d.since(done),
			cellErrs: cellErrs, failed: opErr != nil, shed: errors.Is(opErr, tca.ErrOverloaded),
		}
		obsEnd := done
		if traced {
			sm.hops, sm.sim = int32(tr.Hops()), int64(tr.Total())
			d.observe(auditID, name, args, h, opErr, call, done)
			obsEnd = time.Now()
			sm.audit = int64(tRecEnd.Sub(tRec) + obsEnd.Sub(done))
		}
		s.mu.Lock()
		s.samples = append(s.samples, sm)
		if applied(d.spec.Model, opErr) {
			s.exp.add(op)
		}
		if traced {
			s.spans = append(s.spans,
				span{id, "op", d.since(tGen), d.since(obsEnd), ""},
				span{id, "gen", d.since(tGen), d.since(tEnc), "op"},
				span{id, "encode", d.since(tEnc), d.since(tRec), "op"},
				span{id, "audit.record", d.since(tRec), d.since(tRecEnd), "op"},
				span{id, "accept", sm.call, sm.accept, "op"},
				span{id, "wait", sm.accept, sm.done, "op"},
				span{id, "audit.observe", sm.done, d.since(obsEnd), "op"},
			)
		}
		s.mu.Unlock()
		if s.permits != nil {
			<-s.permits
		}
	}()
}

// clientRetries is how many times the harness, as a client would, submits
// an op again after the cell aborted it (exhausted 2PL retries, a
// compensated saga), backing off a little longer each time: an op the
// actor cell starved once is starved again if it comes straight back
// (ROADMAP item 1). Latency runs from the first submission to the final
// outcome, and only an op that still fails counts as failed.
const (
	clientRetries = 5
	clientBackoff = 2 * time.Millisecond
)

// clientRetryable reports whether an aborted op may be submitted again: it
// must not have applied, and a shed that outlived the session's own retry
// budget is the admission controller's final answer.
func clientRetryable(model tca.ProgrammingModel, err error) bool {
	return !applied(model, err) && !errors.Is(err, tca.ErrOverloaded)
}

// observe feeds one resolved op to the live auditor, the way
// tca.RunConcurrencyCellOpts does from inside the package.
func (d *driver) observe(auditID, name string, args []byte, h tca.Handle, opErr error, start, end time.Time) {
	if !applied(d.spec.Model, opErr) {
		d.aud.Discard(auditID)
		return
	}
	var sampled map[string][]byte
	// The dataflow cell's Read quiesces the whole job; its live sample is
	// skipped (the package-internal harness peeks dirty state instead).
	if d.spec.Model != tca.StatefulDataflow {
		for _, k := range d.aud.LiveKeys(name, args) {
			if v, found, err := d.cell.Read(k); err == nil && found {
				if sampled == nil {
					sampled = map[string][]byte{}
				}
				sampled[k] = v
			}
		}
	}
	var seq int64
	if sh, ok := h.(interface{ Seq() int64 }); ok {
		seq = sh.Seq() // the deterministic core's log position
	}
	d.aud.Observe(tca.Commit{ReqID: auditID, Op: name, Args: args, Start: start, End: end, Live: sampled, Seq: seq})
}

// closedLoop runs one goroutine per session, each submitting its next op
// as soon as fewer than sessionDepth of its ops are in flight, until stop.
func (d *driver) closedLoop(stop *atomic.Bool) *sync.WaitGroup {
	var wg sync.WaitGroup
	for _, s := range d.sess {
		s := s
		s.permits = make(chan struct{}, sessionDepth)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				s.permits <- struct{}{}
				d.one(s, time.Time{})
			}
		}()
	}
	return &wg
}

// openLoop runs the single scheduler goroutine: arrivals fall due on the
// seeded schedule whether or not earlier ones have completed, and go to
// the sessions round-robin. It returns each arrival's lateness (Submit
// call minus due time) through late once the goroutine has ended.
func (d *driver) openLoop(arrivals workload.ArrivalProcess, stop *atomic.Bool, late *[]int64) *sync.WaitGroup {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		due := time.Now()
		for i := 0; !stop.Load(); i++ {
			due = due.Add(arrivals.Gap())
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			*late = append(*late, int64(time.Since(due)))
			d.one(d.sess[i%len(d.sess)], due)
		}
	}()
	return &wg
}

// usage is the process's cumulative CPU time and allocation counters.
type usage struct {
	cpuUS   float64
	mallocs uint64
	bytes   uint64
}

func cpuTimeUS() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e6 + float64(t.Usec) }
	return tv(ru.Utime) + tv(ru.Stime), nil
}

func readUsage() (usage, error) {
	cpu, err := cpuTimeUS()
	if err != nil {
		return usage{}, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{cpuUS: cpu, mallocs: ms.Mallocs, bytes: ms.TotalAlloc}, nil
}

func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// roundConfig is one round: a fresh cell, a warm-up, a measured window.
type roundConfig struct {
	spec   workloadSpec
	seed   int64
	round  int
	warmup time.Duration
	window time.Duration
	traced bool
}

// timeSlice is one sliceEvery-long piece of the measured window: the CPU
// the process used in it and how fast the machine was running.
type timeSlice struct {
	lo, hi int64 // ns since the round began
	cpuUS  float64
	factor float64
}

// roundResult is what one round measured. Sample slices are sorted.
// "Norm" values are at reference machine speed (calib.go); the others
// are as the clock read them.
type roundResult struct {
	Setup      setupSample
	WindowS    float64
	Factor     float64 // the window's mean speed factor
	Attempted  int64   // ops submitted in the window
	Failed     int64   // ... whose final outcome was an error
	Shed       int64   // ... that error being an exhausted shed
	CellErrs   int64   // aborts the cell answered to window ops (each retried by the client)
	Committed  int64   // handles that resolved without error inside the window
	NormTxS    float64
	NormCPUUS  float64 // CPU over the window
	CPUUS      float64
	AcceptNS   []int64 // normalised
	ApplyNS    []int64 // normalised
	RawApplyNS []int64
	Mallocs    float64
	AllocB     float64
	RetainedB  float64
	Drift      []string
	SettleMS   float64

	Completed int64   // window ops that also resolved inside it
	LateNS    []int64 // open loop only: every arrival's lateness

	// Traced only.
	Isolated bool  // the cell's Guarantee().Isolated
	TotalOps int64 // every op of the round, priming and warm-up included
	Retries  int64 // session shed-retries over the whole round
	Spans    []span
	WaitNS   []int64
	AuditNS  []int64
	SimNS    []int64
	Hops     int64
	Counters map[string]float64
	Audit    *auditResult
	DirBytes int64
}

type auditResult struct {
	VerifyMS    float64
	Anomalies   []string
	Reordered   int
	GraphCycles int
	Violations  int
}

func runRound(rc roundConfig) (*roundResult, error) {
	// On a closed loop the harness holds the depth (sessState.permits);
	// the Session's own cap is set above it so that it never binds.
	depth := 2 * sessionDepth
	if rc.spec.OpenRate > 0 {
		depth = openLoopDepth
	}
	total := rc.warmup + rc.window
	dep, err := deploy(rc.spec, rc.seed, rc.round, depth, int(30000*total.Seconds())/sessions)
	if err != nil {
		return nil, err
	}
	defer dep.close()
	d := &driver{deployment: dep, epoch: time.Now().Add(-dep.setup)}
	res := &roundResult{}
	if rc.traced {
		aud := tca.NewTPCCAuditor()
		defer aud.Close()
		for _, op := range dep.primed {
			aud.RecordOp(op) // applied serially during set-up
		}
		d.aud = aud
		res.Spans = append(res.Spans, span{0, "setup", 0, int64(dep.setup), "run"})
	}

	var stop atomic.Bool
	var gens *sync.WaitGroup
	if rc.spec.OpenRate > 0 {
		gens = d.openLoop(workload.NewPoissonArrivals(streamSeed(rc.seed, rc.round, 98), rc.spec.OpenRate), &stop, &res.LateNS)
	} else {
		gens = d.closedLoop(&stop)
	}
	time.Sleep(rc.warmup)
	heap0 := heapAfterGC()
	u0, err := readUsage()
	if err != nil {
		return nil, err
	}
	wStart := time.Now()
	cal := startCalibrator(d.epoch)
	var slices []timeSlice
	for lo, cpu := wStart, u0.cpuUS; lo.Sub(wStart) < rc.window; {
		time.Sleep(sliceEvery)
		now, err := cpuTimeUS()
		if err != nil {
			return nil, err
		}
		hi := time.Now()
		slices = append(slices, timeSlice{lo: d.since(lo), hi: d.since(hi), cpuUS: now - cpu})
		lo, cpu = hi, now
	}
	u1, err := readUsage()
	wEnd := time.Now()
	stop.Store(true)
	cal.finish()
	if err != nil {
		return nil, err
	}
	gens.Wait()
	d.wg.Wait()
	for _, s := range d.sess {
		s.sess.Drain()
	}
	tSettle := time.Now()
	if err := d.cell.Settle(); err != nil {
		return nil, fmt.Errorf("%s: settle: %w", rc.spec.Name, err)
	}
	settled := time.Now()
	heap1 := heapAfterGC()

	res.WindowS = wEnd.Sub(wStart).Seconds()
	res.SettleMS = float64(settled.Sub(tSettle)) / 1e6
	w0, w1 := d.since(wStart), slices[len(slices)-1].hi
	own := cal.cost(w0, w1)
	res.CPUUS = u1.cpuUS - u0.cpuUS - own.cpuUS
	res.Mallocs = float64(u1.mallocs - u0.mallocs - own.mallocs)
	res.AllocB = float64(u1.bytes - u0.bytes - own.bytes)
	res.RetainedB = float64(heap1) - float64(heap0)

	res.Factor = cal.factor(w0, w1)
	for i := range slices {
		sl := &slices[i]
		sl.factor = cal.factor(sl.lo, sl.hi)
		res.NormCPUUS += (sl.cpuUS - cal.cost(sl.lo, sl.hi).cpuUS) / sl.factor
	}
	// factorAt is the speed factor of the slice t falls in.
	factorAt := func(t int64) float64 {
		i := sort.Search(len(slices), func(k int) bool { return slices[k].hi > t })
		return slices[min(i, len(slices)-1)].factor
	}
	var normCommitted float64
	for _, s := range d.sess {
		res.Retries += s.sess.Retries()
		res.Spans = append(res.Spans, s.spans...)
		res.TotalOps += int64(len(s.samples)) + 1
		for _, sm := range s.samples {
			if sm.done >= w0 && sm.done < w1 && !sm.failed {
				res.Committed++
				normCommitted += factorAt(sm.done)
			}
			if sm.origin < w0 || sm.origin >= w1 {
				continue
			}
			res.Attempted++
			res.CellErrs += int64(sm.cellErrs)
			if sm.failed {
				res.Failed++
				if sm.shed {
					res.Shed++
				}
				continue // a failed op has no latency: it missed any limit
			}
			if sm.done < w1 {
				res.Completed++
			}
			f := factorAt(sm.origin)
			res.AcceptNS = append(res.AcceptNS, int64(float64(sm.accept-sm.call)/f))
			res.ApplyNS = append(res.ApplyNS, int64(float64(sm.done-sm.origin)/f))
			res.RawApplyNS = append(res.RawApplyNS, sm.done-sm.origin)
			if rc.traced {
				res.WaitNS = append(res.WaitNS, sm.done-sm.accept)
				res.AuditNS = append(res.AuditNS, sm.audit)
				res.SimNS = append(res.SimNS, sm.sim)
				res.Hops += int64(sm.hops)
			}
		}
	}
	res.NormTxS = normCommitted / res.WindowS
	for _, v := range []*[]int64{&res.AcceptNS, &res.ApplyNS, &res.RawApplyNS, &res.WaitNS, &res.AuditNS, &res.SimNS, &res.LateNS} {
		sortInt64(*v)
	}

	if res.Drift, err = d.expected().drift(d.cell); err != nil {
		return nil, err
	}
	if rc.traced {
		res.Spans = append(res.Spans,
			span{0, "warmup", int64(dep.setup), w0, "run"},
			span{0, "window", w0, w1, "run"},
			span{0, "settle", d.since(tSettle), d.since(settled), "run"})
		res.Isolated = d.cell.Guarantee().Isolated
		res.Counters = cellCounters(d.cell)
		res.DirBytes = dirSize(dep.logDir)
		// Verify reads every key the run touched, and the dataflow cell's
		// Read quiesces the whole job each time (~2 ms): a minute for a
		// window's worth of keys. That cell promises no isolation, so its
		// verdict would be a read-out anyway; it keeps the live checks only.
		var anomalies []string
		t0 := time.Now()
		if rc.spec.Model != tca.StatefulDataflow {
			if anomalies, err = d.aud.Verify(d.cell); err != nil {
				return nil, fmt.Errorf("%s: audit verify: %w", rc.spec.Name, err)
			}
		}
		t1 := time.Now()
		res.Spans = append(res.Spans,
			span{0, "verify", d.since(t0), d.since(t1), "run"},
			span{0, "run", 0, d.since(t1), ""})
		st := d.aud.Stats()
		res.Audit = &auditResult{
			VerifyMS:    float64(t1.Sub(t0)) / 1e6,
			Anomalies:   anomalies,
			Reordered:   st.Reordered,
			GraphCycles: st.GraphCycles,
			Violations:  st.LiveViolations,
		}
	}
	return res, nil
}
