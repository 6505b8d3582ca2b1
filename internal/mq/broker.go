// Package mq implements the durable, partitioned message log that plays the
// role of Kafka/RabbitMQ in the paper's messaging taxonomy (§3.2): producers
// append to topic partitions, consumer groups pull from committed offsets,
// and the delivery guarantee — at-most-once, at-least-once, exactly-once —
// is a property of *how offsets are acknowledged relative to processing*,
// which is precisely the application-level coordination burden the paper
// highlights.
//
// Exactly-once support follows Kafka's design surface: idempotent producers
// (producer id + sequence number dedup), transactional produce (a batch of
// messages across partitions becomes visible atomically), and transactional
// consume-transform-produce (consumer group offsets commit atomically with
// the produced messages).
package mq

import (
	"errors"
	"fmt"
	"sync"

	"tca/internal/fabric"
)

// Common broker errors.
var (
	ErrNoTopic     = errors.New("mq: no such topic")
	ErrNoPartition = errors.New("mq: no such partition")
	ErrTxnActive   = errors.New("mq: producer transaction already active")
	ErrNoTxn       = errors.New("mq: no active producer transaction")
	ErrFenced      = errors.New("mq: producer fenced by newer instance")
)

// Message is one record in a partition log.
type Message struct {
	Topic     string
	Partition int
	Offset    int64
	Key       string
	Value     []byte
	Headers   map[string]string
}

// TopicPartition addresses one partition.
type TopicPartition struct {
	Topic     string
	Partition int
}

func (tp TopicPartition) String() string {
	return fmt.Sprintf("%s/%d", tp.Topic, tp.Partition)
}

// partition is one append-only log plus producer dedup state.
type partition struct {
	mu   sync.Mutex
	msgs []Message
	// producer dedup: highest sequence number appended per producer id.
	producerSeq map[string]int64
	grown       chan struct{} // closed by the next append; only Grown makes it
}

var closedChan = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

func newPartition() *partition {
	return &partition{producerSeq: make(map[string]int64)}
}

// append adds messages, deduplicating by (producerID, seq) when producerID
// is non-empty. Returns the number actually appended and the offset of the
// first appended message (-1 when everything was a duplicate).
func (p *partition) append(topic string, part int, producerID string, baseSeq int64, msgs []Message) (int, int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	appended := 0
	base := int64(-1)
	for i, m := range msgs {
		if producerID != "" {
			seq := baseSeq + int64(i)
			if last, ok := p.producerSeq[producerID]; ok && seq <= last {
				continue // duplicate from producer retry
			}
			p.producerSeq[producerID] = seq
		}
		m.Topic = topic
		m.Partition = part
		m.Offset = int64(len(p.msgs))
		if base < 0 {
			base = m.Offset
		}
		p.msgs = append(p.msgs, m)
		appended++
	}
	if appended > 0 && p.grown != nil {
		close(p.grown)
		p.grown = nil
	}
	return appended, base
}

func (p *partition) read(from int64, max int) []Message {
	p.mu.Lock()
	defer p.mu.Unlock()
	if from < 0 {
		from = 0
	}
	if from >= int64(len(p.msgs)) {
		return nil
	}
	end := from + int64(max)
	if end > int64(len(p.msgs)) {
		end = int64(len(p.msgs))
	}
	out := make([]Message, end-from)
	copy(out, p.msgs[from:end])
	return out
}

func (p *partition) highWater() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return int64(len(p.msgs))
}

// topic is a set of partitions.
type topic struct {
	name  string
	parts []*partition
}

// Broker is the message broker. Safe for concurrent use.
type Broker struct {
	mu     sync.Mutex
	topics map[string]*topic
	// group -> topic/partition -> next offset to deliver
	offsets map[string]map[TopicPartition]int64
	// transactional producer fencing: transactional id -> epoch
	producerEpochs map[string]int64

	cluster *fabric.Cluster // optional: duplicate-delivery injection
}

// NewBroker creates an empty broker.
func NewBroker() *Broker {
	return &Broker{
		topics:         make(map[string]*topic),
		offsets:        make(map[string]map[TopicPartition]int64),
		producerEpochs: make(map[string]int64),
	}
}

// WithChaos attaches a fabric cluster whose duplicate-delivery probability
// is applied to consumed batches, modeling redelivery by the transport.
func (b *Broker) WithChaos(c *fabric.Cluster) *Broker {
	b.mu.Lock()
	b.cluster = c
	b.mu.Unlock()
	return b
}

// CreateTopic creates a topic with n partitions. Idempotent; partition
// count of an existing topic is not changed.
func (b *Broker) CreateTopic(name string, n int) {
	if n <= 0 {
		n = 1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.topics[name]; ok {
		return
	}
	t := &topic{name: name, parts: make([]*partition, n)}
	for i := range t.parts {
		t.parts[i] = newPartition()
	}
	b.topics[name] = t
}

// Partitions returns the partition count of a topic.
func (b *Broker) Partitions(name string) (int, error) {
	t, err := b.topic(name)
	if err != nil {
		return 0, err
	}
	return len(t.parts), nil
}

func (b *Broker) topic(name string) (*topic, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if t, ok := b.topics[name]; ok {
		return t, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrNoTopic, name)
}

func (b *Broker) partition(tp TopicPartition) (*partition, error) {
	t, err := b.topic(tp.Topic)
	if err != nil {
		return nil, err
	}
	if tp.Partition < 0 || tp.Partition >= len(t.parts) {
		return nil, fmt.Errorf("%w: %s", ErrNoPartition, tp)
	}
	return t.parts[tp.Partition], nil
}

// HighWater returns the end offset (next offset to be written) of tp.
func (b *Broker) HighWater(tp TopicPartition) (int64, error) {
	p, err := b.partition(tp)
	if err != nil {
		return 0, err
	}
	return p.highWater(), nil
}

// Grown returns a channel that is closed at once if tp holds a record at
// offset, else by the next append to tp: a reader's wakeup after an empty
// fetch. An append with no reader waiting pays one nil check for it.
func (b *Broker) Grown(tp TopicPartition, offset int64) (<-chan struct{}, error) {
	p, err := b.partition(tp)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if offset < int64(len(p.msgs)) {
		return closedChan, nil
	}
	if p.grown == nil {
		p.grown = make(chan struct{})
	}
	return p.grown, nil
}

// Fetch reads up to max messages from tp starting at offset (a low-level
// read that does not touch group offsets; the dataflow source uses this).
func (b *Broker) Fetch(tp TopicPartition, offset int64, max int) ([]Message, error) {
	p, err := b.partition(tp)
	if err != nil {
		return nil, err
	}
	return p.read(offset, max), nil
}

// PartitionForKey maps a key to one of n partitions with fabric.Hash, the
// fabric's placement hash, so co-partitioned topics align. Exported so
// anything else sharded by key uses the same hash: one hash, one owner.
func PartitionForKey(key string, n int) int {
	if n <= 1 {
		return 0
	}
	return int(fabric.Hash(key) % uint64(n))
}

func (t *topic) partitionFor(key string) int {
	return PartitionForKey(key, len(t.parts))
}

// committedOffset returns the group's committed offset for tp (0 if none).
func (b *Broker) committedOffset(group string, tp TopicPartition) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	g, ok := b.offsets[group]
	if !ok {
		return 0
	}
	return g[tp]
}

// commitOffsets atomically records the group's offsets.
func (b *Broker) commitOffsets(group string, offs map[TopicPartition]int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	g, ok := b.offsets[group]
	if !ok {
		g = make(map[TopicPartition]int64)
		b.offsets[group] = g
	}
	for tp, off := range offs {
		if off > g[tp] {
			g[tp] = off
		}
	}
}

// ProduceIdempotent appends one message with an explicit (producerID, seq)
// pair, deduplicating replays: a message with a sequence number at or below
// the highest seen for producerID on the target partition is dropped.
// Callers that derive seq deterministically from their input (e.g. the
// stateful-functions runtime, which uses the consumed record's offset) get
// exactly-once appends across crash-replay cycles.
func (b *Broker) ProduceIdempotent(topicName, key string, value []byte, producerID string, seq int64) (appended bool, err error) {
	t, err := b.topic(topicName)
	if err != nil {
		return false, err
	}
	part := t.partitionFor(key)
	msg := Message{Key: key, Value: append([]byte(nil), value...)}
	n, _ := t.parts[part].append(topicName, part, producerID, seq, []Message{msg})
	return n == 1, nil
}

// Produce appends one message directly to an explicit partition, bypassing
// the key hash, and returns its offset. Callers that own their partitioning
// scheme use this instead of Producer.Send.
func (b *Broker) Produce(tp TopicPartition, key string, value []byte) (int64, error) {
	p, err := b.partition(tp)
	if err != nil {
		return 0, err
	}
	msg := Message{Key: key, Value: append([]byte(nil), value...)}
	_, off := p.append(tp.Topic, tp.Partition, "", 0, []Message{msg})
	return off, nil
}
