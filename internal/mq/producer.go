package mq

import (
	"fmt"
	"sync"
)

// Producer appends messages to topics. A Producer is safe for concurrent
// use except for the transactional methods, which follow Kafka's model of a
// single in-flight transaction per producer.
type Producer struct {
	b *Broker

	// Idempotence: a stable producer id plus per-partition sequence
	// numbers lets the broker drop retry duplicates.
	id    string
	seqMu sync.Mutex
	seqs  map[TopicPartition]int64

	// Transactions.
	txnID    string // transactional id ("" = non-transactional)
	epoch    int64
	txnMu    sync.Mutex
	inTxn    bool
	buffered []bufferedSend
	offsets  map[string]map[TopicPartition]int64 // group -> offsets, committed with the txn
}

type bufferedSend struct {
	tp  TopicPartition
	msg Message
}

// NewProducer creates a producer. A non-empty id enables idempotent
// produce: broker-side dedup of retry duplicates.
func (b *Broker) NewProducer(id string) *Producer {
	return &Producer{b: b, id: id, seqs: make(map[TopicPartition]int64)}
}

// NewTransactionalProducer creates a producer with a transactional id.
// Creating a new producer with the same transactional id fences all earlier
// instances (zombie fencing), exactly Kafka's protection against a crashed
// producer's late writes.
func (b *Broker) NewTransactionalProducer(txnID string) *Producer {
	b.mu.Lock()
	b.producerEpochs[txnID]++
	epoch := b.producerEpochs[txnID]
	b.mu.Unlock()
	return &Producer{
		b: b,
		// The idempotence id is scoped by epoch, as in Kafka: an epoch bump
		// resets the sequence space, so a restarted instance (whose seqs
		// begin again at 1) is not deduplicated against its fenced
		// predecessor's sequences. Cross-instance exactly-once comes from
		// transactional offset commits, not sequence dedup.
		id:    fmt.Sprintf("%s@%d", txnID, epoch),
		txnID: txnID,
		epoch: epoch,
		seqs:  make(map[TopicPartition]int64),
	}
}

func (p *Producer) checkFenced() error {
	if p.txnID == "" {
		return nil
	}
	p.b.mu.Lock()
	cur := p.b.producerEpochs[p.txnID]
	p.b.mu.Unlock()
	if cur != p.epoch {
		return fmt.Errorf("%w: %s epoch %d < %d", ErrFenced, p.txnID, p.epoch, cur)
	}
	return nil
}

// Send appends one message, choosing the partition by key hash. Returns the
// assigned partition and offset. Inside a transaction the message is
// buffered and gets its offset at commit.
func (p *Producer) Send(topicName, key string, value []byte) (TopicPartition, int64, error) {
	return p.SendH(topicName, key, value, nil)
}

// SendH is Send with headers.
func (p *Producer) SendH(topicName, key string, value []byte, headers map[string]string) (TopicPartition, int64, error) {
	if err := p.checkFenced(); err != nil {
		return TopicPartition{}, 0, err
	}
	t, err := p.b.topic(topicName)
	if err != nil {
		return TopicPartition{}, 0, err
	}
	tp := TopicPartition{Topic: topicName, Partition: t.partitionFor(key)}
	msg := Message{Key: key, Value: append([]byte(nil), value...), Headers: cloneHeaders(headers)}

	p.txnMu.Lock()
	if p.inTxn {
		p.buffered = append(p.buffered, bufferedSend{tp: tp, msg: msg})
		p.txnMu.Unlock()
		return tp, -1, nil
	}
	p.txnMu.Unlock()

	part := t.parts[tp.Partition]
	seq := p.nextSeq(tp, 1)
	_, off := part.append(tp.Topic, tp.Partition, p.id, seq, []Message{msg})
	if off < 0 { // idempotent duplicate: report the end of the log
		off = part.highWater() - 1
	}
	return tp, off, nil
}

func (p *Producer) nextSeq(tp TopicPartition, n int64) int64 {
	if p.id == "" {
		return 0
	}
	p.seqMu.Lock()
	defer p.seqMu.Unlock()
	base := p.seqs[tp] + 1
	p.seqs[tp] += n
	return base
}

// Begin starts a producer transaction. Messages sent until Commit are
// invisible to consumers; Abort discards them.
func (p *Producer) Begin() error {
	if p.txnID == "" {
		return fmt.Errorf("mq: producer %q is not transactional", p.id)
	}
	if err := p.checkFenced(); err != nil {
		return err
	}
	p.txnMu.Lock()
	defer p.txnMu.Unlock()
	if p.inTxn {
		return ErrTxnActive
	}
	p.inTxn = true
	p.buffered = nil
	p.offsets = nil
	return nil
}

// SendOffsets adds consumer-group offset commits to the transaction so that
// consume-transform-produce is atomic: either the outputs appear *and* the
// inputs are marked consumed, or neither.
func (p *Producer) SendOffsets(group string, offs map[TopicPartition]int64) error {
	p.txnMu.Lock()
	defer p.txnMu.Unlock()
	if !p.inTxn {
		return ErrNoTxn
	}
	if p.offsets == nil {
		p.offsets = make(map[string]map[TopicPartition]int64)
	}
	g, ok := p.offsets[group]
	if !ok {
		g = make(map[TopicPartition]int64)
		p.offsets[group] = g
	}
	for tp, off := range offs {
		if off > g[tp] {
			g[tp] = off
		}
	}
	return nil
}

// Commit atomically publishes the buffered messages and offset commits.
// Buffered messages never enter the log before Commit, so consumers can
// never observe an aborted transaction's data (read-committed by
// construction, the same observable semantics as Kafka's read_committed).
func (p *Producer) Commit() error {
	if err := p.checkFenced(); err != nil {
		return err
	}
	p.txnMu.Lock()
	if !p.inTxn {
		p.txnMu.Unlock()
		return ErrNoTxn
	}
	buffered := p.buffered
	offsets := p.offsets
	p.inTxn = false
	p.buffered = nil
	p.offsets = nil
	p.txnMu.Unlock()

	// Group by partition and append under the broker lock ordering:
	// partition appends are individually atomic; offsets commit last so a
	// crash between the two at worst redelivers (at-least-once floor), it
	// never loses.
	byPart := make(map[TopicPartition][]Message)
	var order []TopicPartition
	for _, s := range buffered {
		if _, ok := byPart[s.tp]; !ok {
			order = append(order, s.tp)
		}
		byPart[s.tp] = append(byPart[s.tp], s.msg)
	}
	for _, tp := range order {
		part, err := p.b.partition(tp)
		if err != nil {
			return err
		}
		msgs := byPart[tp]
		seq := p.nextSeq(tp, int64(len(msgs)))
		part.append(tp.Topic, tp.Partition, p.id, seq, msgs)
	}
	for group, offs := range offsets {
		p.b.commitOffsets(group, offs)
	}
	return nil
}

// Abort discards the buffered transaction.
func (p *Producer) Abort() error {
	p.txnMu.Lock()
	defer p.txnMu.Unlock()
	if !p.inTxn {
		return ErrNoTxn
	}
	p.inTxn = false
	p.buffered = nil
	p.offsets = nil
	return nil
}

func cloneHeaders(h map[string]string) map[string]string {
	if h == nil {
		return nil
	}
	c := make(map[string]string, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}
