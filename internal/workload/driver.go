package workload

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Op is the unit of work a driver executes.
type Op func() error

// DriverResult summarizes one load run.
type DriverResult struct {
	// Issued and Errors count operations.
	Issued, Errors int64
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// Latency is the response-time distribution, never nil. Under the
	// open-loop driver it includes queueing delay from the request's
	// scheduled arrival time — the number that explodes at saturation
	// (ref [56]). Grid repeats pool its Samples (grid.PooledQuantile) for
	// the p99 the experiment tables report.
	Latency *LatencyReservoir
}

// Throughput returns completed operations per second.
func (r DriverResult) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Issued-r.Errors) / r.Elapsed.Seconds()
}

// ClosedLoop runs n client goroutines, each issuing ops back to back for
// the given number of operations per client. Closed systems
// self-throttle: when the server slows down, the arrival rate drops with
// it, hiding saturation from the latency distribution.
func ClosedLoop(clients, opsPerClient int, op Op) DriverResult {
	res := NewLatencyReservoir(0, 1)
	var errs atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < opsPerClient; i++ {
				t0 := time.Now()
				err := op()
				res.Record(time.Since(t0))
				if err != nil {
					errs.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return DriverResult{
		Issued:  int64(clients * opsPerClient),
		Errors:  errs.Load(),
		Elapsed: time.Since(start),
		Latency: res,
	}
}

// ArrivalProcess generates the inter-arrival gaps of an open-loop load
// stream. Implementations are deterministic per seed: the same seed
// produces the identical arrival schedule, which is what makes open-loop
// runs comparable across configurations.
type ArrivalProcess interface {
	// Gap returns the time until the next arrival.
	Gap() time.Duration
}

// poissonArrivals draws exponential inter-arrival gaps — the memoryless
// arrival process of the M/M/1 model.
type poissonArrivals struct {
	rng  *rand.Rand
	rate float64
}

// NewPoissonArrivals returns Poisson arrivals at rate ops/second.
// Non-positive rates are invalid; callers should validate (OpenLoop does).
func NewPoissonArrivals(seed int64, rate float64) ArrivalProcess {
	return &poissonArrivals{rng: rand.New(rand.NewSource(seed)), rate: rate}
}

func (p *poissonArrivals) Gap() time.Duration {
	return time.Duration(p.rng.ExpFloat64() / p.rate * float64(time.Second))
}

// mmppArrivals is a two-state Markov-modulated Poisson process: a "calm"
// state and a "burst" state, each Poisson at its own rate, with
// exponentially distributed dwell times. The long-run mean rate equals the
// configured rate (the states' rates are rate·2/(b+1) and rate·2b/(b+1)
// with equal expected dwell), so an MMPP sweep offers the same average
// load as a Poisson sweep — only clumpier: bursts at b× the calm rate,
// which is what stresses a bounded queue harder than smooth arrivals.
type mmppArrivals struct {
	rng   *rand.Rand
	rates [2]float64 // calm, burst
	dwell time.Duration
	state int
	left  time.Duration // remaining dwell in the current state
}

// NewMMPPArrivals returns bursty (Markov-modulated Poisson) arrivals with
// long-run mean rate ops/second. burst is the burst-to-calm rate ratio
// (values <= 1 degenerate to Poisson), dwell the expected time in each
// state (zero means 10ms).
func NewMMPPArrivals(seed int64, rate, burst float64, dwell time.Duration) ArrivalProcess {
	if burst < 1 {
		burst = 1
	}
	if dwell <= 0 {
		dwell = 10 * time.Millisecond
	}
	rng := rand.New(rand.NewSource(seed))
	m := &mmppArrivals{
		rng:   rng,
		rates: [2]float64{rate * 2 / (burst + 1), rate * 2 * burst / (burst + 1)},
		dwell: dwell,
	}
	m.left = m.drawDwell()
	return m
}

func (m *mmppArrivals) drawDwell() time.Duration {
	return time.Duration(m.rng.ExpFloat64() * float64(m.dwell))
}

// Gap advances across state boundaries: when the next exponential draw
// overshoots the remaining dwell, the process flips state at the boundary
// and redraws from there — exact, because the exponential is memoryless.
func (m *mmppArrivals) Gap() time.Duration {
	var elapsed time.Duration
	for {
		gap := time.Duration(m.rng.ExpFloat64() / m.rates[m.state] * float64(time.Second))
		if gap < m.left {
			m.left -= gap
			return elapsed + gap
		}
		elapsed += m.left
		m.state = 1 - m.state
		m.left = m.drawDwell()
	}
}

// Pace is the open-loop pacing loop every open-loop driver shares:
// arrival i is due gap() after arrival i-1, and submit(i, due) is called
// at — never before — its due time, regardless of how the system under
// test keeps up.
func Pace(n int, gap func() time.Duration, submit func(i int, due time.Time)) {
	next := time.Now()
	for i := 0; i < n; i++ {
		next = next.Add(gap())
		if wait := time.Until(next); wait > 0 {
			time.Sleep(wait)
		}
		submit(i, next)
	}
}

// OpenLoop issues n operations with Poisson arrivals at the given rate
// (ops/second), regardless of how the server keeps up. Latency is measured
// from the *scheduled arrival time*, so queueing delay counts: when the
// offered rate exceeds capacity, latency grows without bound — the
// open-vs-closed contrast of ref [56]. A non-positive rate or n is invalid
// and returns an empty result immediately instead of spinning.
func OpenLoop(seed int64, n int, rate float64, op Op) DriverResult {
	if rate <= 0 || n <= 0 {
		return DriverResult{Latency: NewLatencyReservoir(0, 1)}
	}
	res := NewLatencyReservoir(0, 1)
	var errs atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	Pace(n, NewPoissonArrivals(seed, rate).Gap, func(_ int, scheduled time.Time) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := op()
			res.Record(time.Since(scheduled))
			if err != nil {
				errs.Add(1)
			}
		}()
	})
	wg.Wait()
	return DriverResult{
		Issued:  int64(n),
		Errors:  errs.Load(),
		Elapsed: time.Since(start),
		Latency: res,
	}
}

// SpinService returns an Op that busy-spins for d with at most c
// concurrent executions — a stand-in server with capacity c/d ops/sec,
// used by the load-model experiments. The spin yields the processor each
// turn so a fleet of driver goroutines parked here cannot starve the cell
// goroutines (executors, choreographies) they share the runtime with.
func SpinService(c int, d time.Duration) Op {
	slots := make(chan struct{}, c)
	return func() error {
		slots <- struct{}{}
		end := time.Now().Add(d)
		for time.Now().Before(end) {
			runtime.Gosched()
		}
		<-slots
		return nil
	}
}
