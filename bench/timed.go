package main

import (
	"fmt"
	"time"
)

// metricValue is one reported number. Rounds holds the per-round values a
// median was taken over, so -compare can see the rounds' own spread.
type metricValue struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Rounds []float64 `json:"rounds,omitempty"`
}

// checks are the validity read-outs printed beside the metrics. They fail
// the run but are not compared between commits.
type checks struct {
	Attempted     int64    `json:"attempted"`
	Failed        int64    `json:"failed"`
	FailFrac      float64  `json:"fail_frac"`
	DriftKeys     int      `json:"drift_keys"`
	Drift         []string `json:"drift,omitempty"`
	ApplySamples  int      `json:"apply_samples"`
	CompletedFrac float64  `json:"completed_frac"`
	LateP50US     float64  `json:"late_p50_us,omitempty"`
	LateP99US     float64  `json:"late_p99_us,omitempty"`
	Errors        []string `json:"errors,omitempty"`
}

func (c *checks) failf(format string, a ...any) {
	c.Errors = append(c.Errors, fmt.Sprintf(format, a...))
}

// foldRound adds one round's counts to the checks and applies the
// pass/fail rules: drift on an exact workload, a growing open-loop
// backlog, or a percentile the sample cannot support.
func (c *checks) foldRound(spec workloadSpec, round int, r *roundResult) {
	c.Attempted += r.Attempted
	c.Failed += r.Failed
	c.DriftKeys += len(r.Drift)
	c.ApplySamples += len(r.ApplyNS)
	for i, d := range r.Drift {
		if i == 8 {
			c.Drift = append(c.Drift, fmt.Sprintf("round %d: ... %d more", round, len(r.Drift)-i))
			break
		}
		c.Drift = append(c.Drift, fmt.Sprintf("round %d: %s", round, d))
	}
	if spec.Exact && len(r.Drift) > 0 {
		c.failf("round %d: %d keys drifted on an exact workload", round, len(r.Drift))
	}
	if r.Attempted == 0 {
		c.failf("round %d: no op attempted in the window", round)
	}
	// Ops still in flight when the window closes keep a closed loop a
	// little under 1; only the open loop can fall behind.
	frac := float64(r.Completed+r.Failed) / float64(max(r.Attempted, 1))
	if c.CompletedFrac == 0 || frac < c.CompletedFrac {
		c.CompletedFrac = frac
	}
	if spec.OpenRate > 0 {
		if frac < minCompleted {
			c.failf("round %d: completed/arrived = %.3f < %.2f: the backlog is growing", round, frac, minCompleted)
		}
		if p, err := percentile(r.LateNS, 0.99); err == nil {
			c.LateP99US = max(c.LateP99US, float64(p)/1e3)
		}
		if p, err := percentile(r.LateNS, 0.50); err == nil {
			c.LateP50US = max(c.LateP50US, float64(p)/1e3)
		}
	}
	if c.Attempted > 0 {
		c.FailFrac = float64(c.Failed) / float64(c.Attempted)
	}
}

// pct is percentile in microseconds; a percentile the sample cannot
// support is a failed check and reads as 0.
func pct(c *checks, what string, sorted []int64, q float64) float64 {
	p, err := percentile(sorted, q)
	if err != nil {
		c.failf("%s: %v", what, err)
		return 0
	}
	return float64(p) / 1e3
}

// setupSample is one cell set-up: how long it took and how much of that
// the CPU was busy. Only the busy part scales with machine speed — the
// rest is waiting on timer ticks and fsyncs — so only it is normalised.
type setupSample struct {
	seconds    float64
	cpuSeconds float64
}

func (s setupSample) at(factor float64) float64 {
	return s.seconds - s.cpuSeconds + s.cpuSeconds/factor
}

// rawMetrics are the time-based numbers as the clock read them, printed
// beside the normalised end-to-end metrics and never compared.
var rawMetrics = []struct{ Name, Unit string }{
	{"calib_us", "us"}, {"setup_s", "s"}, {"tx_s", "1/s"}, {"apply_p50_us", "us"}, {"apply_p99_us", "us"}, {"cpu_us_per_op", "us"},
}

// endToEnd turns a workload's rounds into its end-to-end metrics. Every
// rate and latency is the median of the rounds, percentiles being taken
// over each round's full sample first, and every time-based one is at
// reference machine speed (calib.go); raw holds the same numbers
// un-normalised. setups are the set-ups timed for setup_s and
// setupFactor the machine's speed factor while they ran.
func endToEnd(spec workloadSpec, rounds []*roundResult, setups []setupSample, setupFactor float64) (e2e, raw map[string]metricValue, c checks) {
	per, rawPer := map[string][]float64{}, map[string][]float64{}
	add := func(m map[string][]float64, name string, v float64) { m[name] = append(m[name], v) }
	for i, r := range rounds {
		c.foldRound(spec, i, r)
		ops := float64(max(r.Attempted, 1))
		rawTx, rawP50 := float64(r.Committed)/r.WindowS, pct(&c, "apply p50", r.RawApplyNS, 0.50)
		tx, applyP50, cpu := r.NormTxS, pct(&c, "apply p50", r.ApplyNS, 0.50), r.NormCPUUS/ops
		if spec.OpenRate > 0 {
			// The offered rate pins an open loop's throughput; its median
			// latency follows the box's wake-up latency, not its CPU
			// speed, and its idle processors spin the longer the faster
			// they are woken: see wakeFactor.
			wake := wakeFactor(r.LateNS)
			tx, applyP50, cpu = rawTx, rawP50/wake, cpu*wake
		}
		add(per, "tx_s", tx)
		add(per, "accept_p50_us", pct(&c, "accept p50", r.AcceptNS, 0.50))
		add(per, "apply_p50_us", applyP50)
		add(per, "cpu_us_per_op", cpu)
		add(per, "allocs_per_op", r.Mallocs/ops)
		add(per, "alloc_kb_per_op", r.AllocB/ops/1024)
		add(per, "retained_b_per_op", r.RetainedB/float64(max(r.Committed, 1)))

		add(rawPer, "calib_us", r.Factor*calibRefNS/1e3)
		add(rawPer, "tx_s", rawTx)
		add(rawPer, "apply_p50_us", rawP50)
		add(rawPer, "apply_p99_us", pct(&c, "apply p99", r.RawApplyNS, 0.99))
		add(rawPer, "cpu_us_per_op", r.CPUUS/ops)
	}
	for _, s := range setups {
		add(per, "setup_s", s.at(setupFactor))
		add(rawPer, "setup_s", s.seconds)
	}
	e2e, raw = map[string]metricValue{}, map[string]metricValue{}
	for _, m := range endToEndMetrics {
		e2e[m.Name] = metricValue{Value: median(per[m.Name]), Unit: m.Unit, Rounds: per[m.Name]}
	}
	for _, m := range rawMetrics {
		raw[m.Name] = metricValue{Value: median(rawPer[m.Name]), Unit: m.Unit, Rounds: rawPer[m.Name]}
	}
	return e2e, raw, c
}

// roundPlan splits a run's measuring time over the timed rounds.
func roundPlan(seconds float64) (warmup, window time.Duration) {
	window = time.Duration(seconds / timedRounds * float64(time.Second))
	warmup = window / 6
	if warmup > time.Second {
		warmup = time.Second
	}
	return warmup, window
}

// timeSetups deploys and closes n fresh cells of the workload and returns
// their set-ups with the machine's speed factor over the batch. A set-up
// takes 0.4–12 ms: too short for a speed factor of its own, so kernel runs
// before and after the batch give one for all of it.
func timeSetups(spec workloadSpec, seed int64, n int) ([]setupSample, float64, error) {
	before := calibNow(setupCalibRuns)
	var out []setupSample
	for i := 0; i < n; i++ {
		dep, err := deploy(spec, seed, timedRounds+i, sessionDepth, 0)
		if err != nil {
			return nil, 0, err
		}
		out = append(out, setupSample{dep.setup.Seconds(), dep.setupCPU.Seconds()})
		dep.close()
	}
	return out, (before + calibNow(setupCalibRuns)) / 2, nil
}
