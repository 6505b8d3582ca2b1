package mq

import (
	"fmt"
	"sync"
)

// DeliveryMode selects when a consumer acknowledges messages relative to
// processing them — the decision that determines the end-to-end guarantee
// (§3.2 "Relation of Messaging & State").
type DeliveryMode int

const (
	// AtLeastOnce delivers from the committed offset and advances it only
	// on explicit Ack. A crash between processing and Ack redelivers.
	AtLeastOnce DeliveryMode = iota
	// AtMostOnce advances the committed offset at Poll time, before the
	// application processes. A crash after Poll loses the batch.
	AtMostOnce
)

func (m DeliveryMode) String() string {
	switch m {
	case AtLeastOnce:
		return "at-least-once"
	case AtMostOnce:
		return "at-most-once"
	default:
		return fmt.Sprintf("delivery(%d)", int(m))
	}
}

// Consumer pulls messages from a set of topic partitions on behalf of a
// consumer group. Not safe for concurrent use (one goroutine per consumer,
// the usual client contract).
type Consumer struct {
	b     *Broker
	group string
	mode  DeliveryMode

	mu       sync.Mutex
	assigned []TopicPartition
	next     int // round-robin cursor over assigned partitions
	// pending are delivered-but-unacked offsets (at-least-once).
	pending map[TopicPartition]int64
}

// NewConsumer creates a consumer in the given group, assigned all
// partitions of the listed topics. (Static assignment: this repository
// models one consumer per partition set; group rebalancing protocols are
// out of scope and orthogonal to the delivery-guarantee experiments.)
func (b *Broker) NewConsumer(group string, mode DeliveryMode, topics ...string) (*Consumer, error) {
	c := &Consumer{b: b, group: group, mode: mode, pending: make(map[TopicPartition]int64)}
	for _, t := range topics {
		n, err := b.Partitions(t)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			c.assigned = append(c.assigned, TopicPartition{Topic: t, Partition: i})
		}
	}
	return c, nil
}

// Poll fetches up to max messages, rotating over assigned partitions.
// Returns nil when nothing is available.
//
// Under AtMostOnce the committed offset advances immediately; under
// AtLeastOnce the caller must Ack (or the broker will redeliver the same
// messages to the group after a restart). If the broker has chaos attached,
// a batch may be delivered twice — receivers are responsible for dedup,
// the core difficulty §3.2 describes.
func (c *Consumer) Poll(max int) ([]Message, error) {
	if max <= 0 {
		max = 64
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for range c.assigned {
		tp := c.assigned[c.next%len(c.assigned)]
		c.next++
		from := c.fetchPosLocked(tp)
		msgs, err := c.b.Fetch(tp, from, max)
		if err != nil {
			return nil, err
		}
		if len(msgs) == 0 {
			continue
		}
		last := msgs[len(msgs)-1].Offset
		switch c.mode {
		case AtMostOnce:
			c.b.commitOffsets(c.group, map[TopicPartition]int64{tp: last + 1})
		case AtLeastOnce:
			c.pending[tp] = last + 1
		}
		// Duplicate-delivery injection: the transport redelivers the batch.
		c.b.mu.Lock()
		cl := c.b.cluster
		c.b.mu.Unlock()
		if cl != nil && cl.DupVerdict() {
			msgs = append(msgs, msgs...)
		}
		return msgs, nil
	}
	return nil, nil
}

// fetchPosLocked is where the next Poll reads from: the committed offset,
// advanced past delivered-but-unacked messages so one consumer instance
// does not re-read its own in-flight batch.
func (c *Consumer) fetchPosLocked(tp TopicPartition) int64 {
	pos := c.b.committedOffset(c.group, tp)
	if p, ok := c.pending[tp]; ok && p > pos {
		pos = p
	}
	return pos
}

// Ack commits all delivered offsets (at-least-once mode). Call after the
// batch's effects are durable.
func (c *Consumer) Ack() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.pending) == 0 {
		return
	}
	offs := make(map[TopicPartition]int64, len(c.pending))
	for tp, off := range c.pending {
		offs[tp] = off
	}
	c.b.commitOffsets(c.group, offs)
	c.pending = make(map[TopicPartition]int64)
}

// PendingOffsets returns the delivered-but-unacked offsets, which a
// transactional processor passes to Producer.SendOffsets for exactly-once
// consume-transform-produce.
func (c *Consumer) PendingOffsets() map[TopicPartition]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	offs := make(map[TopicPartition]int64, len(c.pending))
	for tp, off := range c.pending {
		offs[tp] = off
	}
	return offs
}

// ClearPending forgets delivered-but-unacked state, simulating a consumer
// crash: the next Poll re-reads from the committed offset.
func (c *Consumer) ClearPending() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pending = make(map[TopicPartition]int64)
	c.next = 0
}

// Lag returns the total unconsumed messages across the assignment.
func (c *Consumer) Lag() (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var lag int64
	for _, tp := range c.assigned {
		hw, err := c.b.HighWater(tp)
		if err != nil {
			return 0, err
		}
		lag += hw - c.b.committedOffset(c.group, tp)
	}
	return lag, nil
}
