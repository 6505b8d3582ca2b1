package dataflow

import (
	"fmt"
	"time"
)

// checkpoint is one completed snapshot: every instance's cut, indexed by
// partition, with its sink output already committed.
type checkpoint struct {
	epoch uint64
	cuts  []cut
}

// checkpoint asks every instance for its cut, commits the topic sink's
// output in one broker transaction, and saves the checkpoint. The
// instances are asked one after another, each answering between two
// records; see the package doc for why that is a consistent cut.
//
// Ordering note: the sink transaction commits before the checkpoint record
// is persisted. A crash between the two replays the epoch and can duplicate
// *output* (state stays exactly-once); production engines close this window
// with resumable transaction handles, which the broker stand-in does not
// model. The window is nanoseconds wide here and irrelevant to the
// experiments, but it is the honest place to say so.
func (rt *runtime) checkpoint(epoch uint64) error {
	rt.ckptMu.Lock()
	defer rt.ckptMu.Unlock()

	ck := &checkpoint{epoch: epoch, cuts: make([]cut, len(rt.insts))}
	var out []Record
	timeout := time.After(10 * time.Second)
	for p, inst := range rt.insts {
		reply := make(chan cut, 1) // the instance never blocks answering
		select {
		case inst.cuts <- reply:
			ck.cuts[p] = <-reply
		case <-rt.stop:
			return ErrNotRunning
		case <-timeout:
			return fmt.Errorf("dataflow: checkpoint %d timed out (%d/%d instances)", epoch, p, len(rt.insts))
		}
		out = append(out, ck.cuts[p].out...)
		ck.cuts[p].out = nil
	}
	if err := rt.commit(epoch, out); err != nil {
		return fmt.Errorf("dataflow: sink commit for epoch %d: %w", epoch, err)
	}
	rt.job.latest.Store(ck)
	return nil
}

// commit publishes an epoch's sink output atomically via a transactional
// producer.
func (rt *runtime) commit(epoch uint64, recs []Record) error {
	j := rt.job
	if len(recs) == 0 {
		return nil
	}
	p := j.broker.NewTransactionalProducer(fmt.Sprintf("%s-sink-%d", j.cfg.Name, epoch))
	if err := p.Begin(); err != nil {
		return err
	}
	for _, r := range recs {
		if _, _, err := p.Send(j.sinkTopic, r.Key, r.Value); err != nil {
			p.Abort()
			return err
		}
	}
	return p.Commit()
}
