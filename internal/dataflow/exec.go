package dataflow

import (
	"sync"
	"sync/atomic"

	"tca/internal/metrics"
	"tca/internal/mq"
)

// pollBatch is the most records one fetch hands an instance.
const pollBatch = 128

// runtime is one live execution of a job.
type runtime struct {
	job  *Job
	stop chan struct{}
	wg   sync.WaitGroup

	insts  []*instance
	ckptMu sync.Mutex
}

// instance runs the operator over one source partition.
type instance struct {
	rt    *runtime
	tp    mq.TopicPartition
	pos   atomic.Int64 // next offset to process; stored after each record
	state *mapState
	// out is the topic sink's output since the last checkpoint.
	out []Record
	// cuts carries checkpoint requests; the instance answers each on the
	// channel it receives, between two records.
	cuts chan chan cut
}

// cut is one instance's part of a checkpoint.
type cut struct {
	offset int64
	state  map[string][]byte
	out    []Record
}

func newRuntime(j *Job, partitions int, ck *checkpoint) *runtime {
	rt := &runtime{job: j, stop: make(chan struct{})}
	sinkRecords := j.m.Counter("dataflow.sink_records")
	parks := j.m.Counter("dataflow.idle_parks")
	for p := 0; p < partitions; p++ {
		inst := &instance{
			rt:    rt,
			tp:    mq.TopicPartition{Topic: j.sourceTopic, Partition: p},
			state: newMapState(),
			cuts:  make(chan chan cut),
		}
		if ck != nil {
			inst.pos.Store(ck.cuts[p].offset)
			inst.state.restore(ck.cuts[p].state)
		}
		rt.insts = append(rt.insts, inst)
		rt.wg.Add(1)
		go inst.run(j.stages[0].fn, sinkRecords, parks)
	}
	return rt
}

func (rt *runtime) halt() {
	close(rt.stop)
	rt.wg.Wait()
}

// lag sums the records each instance has yet to process. It reads every
// position before any high-water mark: a total of zero then means that at
// one instant between the two passes every partition was fully processed,
// and, since an instance stores its position only after the operator's
// sends are in the broker, that no record was mid-flight.
func (rt *runtime) lag() int64 {
	pos := make([]int64, len(rt.insts))
	for p, inst := range rt.insts {
		pos[p] = inst.pos.Load()
	}
	var lag int64
	for p, inst := range rt.insts {
		if hw, err := rt.job.broker.HighWater(inst.tp); err == nil {
			lag += hw - pos[p]
		}
	}
	return lag
}

// run fetches the partition and runs the operator on each record. Between
// batches it serves a pending stop or checkpoint request (select picks it or
// the next batch at random). After an empty fetch it signals WaitIdle and
// parks on the broker's append wakeup; dataflow.idle_parks counts the parks.
func (i *instance) run(fn ProcessFunc, sinkRecords, parks *metrics.Counter) {
	defer i.rt.wg.Done()
	j := i.rt.job
	ctx := &OpCtx{state: i.state, emit: func(rec Record) {
		if j.sinkTopic != "" {
			i.out = append(i.out, rec)
		}
		if j.sinkFn != nil {
			j.sinkFn(rec)
		}
		sinkRecords.Inc()
	}}
	for {
		pos := i.pos.Load()
		// Start checked the source partition, so Fetch and Grown cannot fail.
		msgs, _ := j.broker.Fetch(i.tp, pos, pollBatch)
		for _, m := range msgs {
			fn(ctx, Record{
				Key: m.Key, Value: m.Value,
				Topic: m.Topic, Partition: m.Partition, Offset: m.Offset,
			})
			i.pos.Store(m.Offset + 1)
		}
		wake := ready
		if len(msgs) == 0 {
			wake, _ = j.broker.Grown(i.tp, pos)
			parks.Inc()
			j.parked.signal()
		}
		select {
		case <-i.rt.stop:
			return
		case reply := <-i.cuts:
			reply <- cut{offset: i.pos.Load(), state: i.state.snapshot(), out: i.out}
			i.out = nil
		case <-wake:
		}
	}
}

// ready is closed: after a non-empty batch run does not wait.
var ready = func() <-chan struct{} { c := make(chan struct{}); close(c); return c }()

// broadcast wakes all its waiters at once: signal closes the channel that
// wait made, if any. A signal with no waiter costs one lock.
type broadcast struct {
	mu sync.Mutex
	ch chan struct{}
}

func (b *broadcast) wait() <-chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.ch == nil {
		b.ch = make(chan struct{})
	}
	return b.ch
}

func (b *broadcast) signal() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.ch != nil {
		close(b.ch)
		b.ch = nil
	}
}
