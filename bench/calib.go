package main

import (
	"encoding/json"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tca/internal/workload"
)

// The build box is a small shared VM whose speed swings by up to 1.7x for
// seconds at a time (no steal time is reported; everything simply runs
// slower). Raw wall-clock numbers therefore differ more between two runs
// of the same code than any bound worth gating on. The benchmark measures
// the machine while it measures the program: a calibrator goroutine times
// a fixed kernel every calibEvery throughout each window, each
// sliceEvery-long slice of the window gets the speed factor
//
//	factor = trimmed mean kernel time in the slice / calibRefNS
//
// and every time-based end-to-end metric is reported at reference speed:
// durations divided by the factor of the slice they began in, rates
// multiplied by it. calibRefNS is the kernel's time on the build box when
// nothing disturbs it, so on a quiet box the factor is ~1 and the
// normalised number is the raw one. Counts (allocations, bytes, hops) are
// never normalised. The raw numbers and the kernel time are printed beside
// the normalised ones.
const (
	calibEvery = 10 * time.Millisecond
	calibIters = 60
	calibRefNS = 400e3
	calibTrim  = 0.2 // share of the slowest samples dropped: preemptions, GC assists
	sliceEvery = 200 * time.Millisecond
)

// The open loop needs a second yardstick. At a third of capacity the
// processors idle between arrivals, and what an op then waits for is the
// box waking up: the timer tick (1 ms here: a 100 µs sleep takes 1.1 ms)
// and the vCPU leaving its halt. That latency flips between two regimes
// ~30% apart for whole runs and has nothing to do with how fast the CPU
// computes — the kernel above does not see it. The generator's own
// lateness does: it is the same wake-up, measured on every arrival, and
// the median latency of the cell stays within ±5% of twice the median
// lateness across regimes. So the open loop's median apply latency is
// reported at reference wake-up latency: divided by median lateness /
// lateRefNS. The CPU charged to an op moves the other way: the faster the
// box wakes, the longer the runtime's idle processors spin instead of
// parking, and per-op CPU times median lateness holds within ±8% across
// regimes where per-op CPU alone moves ±12%; so the open loop's CPU per
// op (already at reference CPU speed) is multiplied by the same factor.
// Everything on the closed loops, which never idle, uses the kernel's
// factor alone.
const lateRefNS = 400e3

func wakeFactor(sortedLateNS []int64) float64 {
	if len(sortedLateNS) == 0 {
		return 1
	}
	return float64(sortedLateNS[len(sortedLateNS)/2]) / lateRefNS
}

// calibKernel is the fixed unit of work: the mix the cells spend most of
// their CPU on — JSON encode and decode of an op, map writes, small
// allocations.
func calibKernel(op *workload.TPCCOp, state map[int]int64) {
	for i := 0; i < calibIters; i++ {
		raw, _ := json.Marshal(op) // a plain struct of ints: cannot fail
		var back workload.TPCCOp
		_ = json.Unmarshal(raw, &back) // its own encoding: cannot fail
		state[(back.Customer+i)&1023] += int64(len(raw))
	}
}

func calibInput() (workload.TPCCOp, map[int]int64) {
	return workload.NewTPCC(1, workload.DefaultTPCCConfig(warehouses)).Next(), map[int]int64{}
}

// trimmedMean is the mean of v without its calibTrim largest values.
func trimmedMean(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]int64(nil), v...)
	sortInt64(s)
	s = s[:len(s)-int(float64(len(s))*calibTrim)]
	var sum int64
	for _, x := range s {
		sum += x
	}
	return float64(sum) / float64(len(s))
}

// kernelCost is what one calibKernel run allocates, measured once: the
// kernel is deterministic, so the calibrator's own allocations can be
// taken out of a window's counters exactly.
var kernelCost = sync.OnceValue(func() usage {
	op, state := calibInput()
	calibKernel(&op, state) // the map's first growth is not per-run cost
	const runs = 50
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		calibKernel(&op, state)
	}
	runtime.ReadMemStats(&m1)
	return usage{mallocs: (m1.Mallocs - m0.Mallocs) / runs, bytes: (m1.TotalAlloc - m0.TotalAlloc) / runs}
})

// calibrator samples the kernel's time on its own goroutine until finish.
type calibrator struct {
	epoch time.Time
	stop  atomic.Bool
	wg    sync.WaitGroup
	at    []int64 // sample start, ns since epoch; ascending
	ns    []int64 // kernel time
}

func startCalibrator(epoch time.Time) *calibrator {
	c := &calibrator{epoch: epoch}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		op, state := calibInput()
		for !c.stop.Load() {
			t0 := time.Now()
			calibKernel(&op, state)
			c.ns = append(c.ns, int64(time.Since(t0)))
			c.at = append(c.at, int64(t0.Sub(c.epoch)))
			time.Sleep(calibEvery)
		}
	}()
	return c
}

func (c *calibrator) finish() {
	c.stop.Store(true)
	c.wg.Wait()
}

// cost is what the sampler itself consumed between lo and hi ns since
// the epoch: its kernels' time (CPU-bound, so wall time is CPU time) and
// their allocations. The harness subtracts it from what it charges the
// program.
func (c *calibrator) cost(lo, hi int64) usage {
	var u usage
	per := kernelCost()
	for k, at := range c.at {
		if at >= lo && at < hi {
			u.cpuUS += float64(c.ns[k]) / 1e3
			u.mallocs += per.mallocs
			u.bytes += per.bytes
		}
	}
	return u
}

// factor is the machine's speed factor over [lo, hi) ns since the epoch
// (call after finish). An interval the sampler never ran in — the
// program starved it — gets the factor of the whole sample.
func (c *calibrator) factor(lo, hi int64) float64 {
	i := sort.Search(len(c.at), func(k int) bool { return c.at[k] >= lo })
	j := sort.Search(len(c.at), func(k int) bool { return c.at[k] >= hi })
	in := c.ns[i:j]
	if len(in) == 0 {
		in = c.ns
	}
	if len(in) == 0 {
		return 1
	}
	return trimmedMean(in) / calibRefNS
}

// calibNow times the kernel n times on the calling goroutine and returns
// the speed factor — for short phases (a cell's set-up) that a background
// sampler would barely touch.
func calibNow(n int) float64 {
	op, state := calibInput()
	ns := make([]int64, n)
	for i := range ns {
		t0 := time.Now()
		calibKernel(&op, state)
		ns[i] = int64(time.Since(t0))
	}
	return trimmedMean(ns) / calibRefNS
}
