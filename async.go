package pskyline

import (
	"errors"
	"fmt"
	"strings"
	"sync"
)

// maxIngestBatch bounds how many queued elements the background goroutine
// ingests under one lock hold (and thus per published view): large enough to
// amortize view publication, small enough to keep view freshness and writer
// lock holds bounded.
const maxIngestBatch = 256

// OverloadPolicy selects what a full async queue does to producers.
type OverloadPolicy int

const (
	// Block (the default) applies backpressure: Push blocks until the
	// consumer makes room. Nothing is ever dropped; producers slow to the
	// ingestion rate.
	Block OverloadPolicy = iota
	// DropNewest sheds the arriving element: Push returns ErrOverloaded
	// immediately and the element is never queued. Latency stays bounded
	// and the already-accepted prefix of the stream is preserved intact.
	DropNewest
	// DropOldest evicts the oldest queued (not yet ingested) element to
	// make room for the arriving one. Push always succeeds; under sustained
	// overload the queue holds the most recent elements — the natural choice
	// for a sliding-window operator, where old elements expire anyway.
	// Because evicted elements already held reserved sequence numbers, the
	// numbers returned by Push/PushBatch are provisional under this policy:
	// a later eviction shifts what the engine actually assigns.
	DropOldest
)

func (p OverloadPolicy) String() string {
	switch p {
	case DropNewest:
		return "drop-newest"
	case DropOldest:
		return "drop-oldest"
	default:
		return "block"
	}
}

// ParseOverloadPolicy parses an overload policy name: "block", "drop-newest"
// or "drop-oldest" ("" selects the default, block).
func ParseOverloadPolicy(s string) (OverloadPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "block":
		return Block, nil
	case "drop-newest", "dropnewest":
		return DropNewest, nil
	case "drop-oldest", "dropoldest":
		return DropOldest, nil
	}
	return 0, fmt.Errorf("pskyline: unknown overload policy %q (want block, drop-newest or drop-oldest)", s)
}

// ErrOverloaded is returned by Push and PushBatch under the DropNewest
// policy when the async queue is full. The element (or batch suffix) was not
// ingested; the caller may retry, shed, or back off. Test with errors.Is.
var ErrOverloaded = errors.New("pskyline: async queue full")

// asyncQueue is the bounded single-consumer ingestion queue behind
// Options.AsyncQueue. The channel carries writeOps in order and a single
// consumer hands them, in batches, to the Monitor's one write body
// (applyOpsLocked), which decides the sequence numbers:
//
//   - Standalone monitors: producers reserve numbers from q.next under
//     enqMu so Push/PushBatch can return them, and the apply numbers the
//     pushes from the engine position. Reservation order is channel order,
//     so the two agree exactly under Block and DropNewest; under DropOldest
//     evictions consume reserved numbers and the returned ones are
//     provisional.
//   - Shard members: the ShardedMonitor assigns global numbers under its
//     own mutex and enqueues pre-numbered ops in order; the apply keeps
//     them. The consumer follows each drained batch with a watermark tick so
//     expiry keeps up with the rest of the stream. Under DropOldest an
//     eviction leaves a sequence gap (the element never existed) instead of
//     renumbering.
//
// The channel's capacity is the overload bound; pol decides what happens
// when it is reached. Drop bookkeeping runs under enqMu, which satisfies
// the metrics' single-writer contract and keeps it off the consumer's
// ingestion path.
type asyncQueue struct {
	m     *Monitor
	ch    chan writeOp
	pol   OverloadPolicy
	flush chan chan struct{} // Drain requests, acknowledged when the queue is empty
	done  chan struct{}      // closed when the consumer goroutine exits

	enqMu  sync.Mutex
	next   uint64 // next sequence number to reserve (standalone monitors)
	closed bool
}

func newAsyncQueue(m *Monitor, capacity int, pol OverloadPolicy) *asyncQueue {
	q := &asyncQueue{
		m:     m,
		ch:    make(chan writeOp, capacity),
		pol:   pol,
		flush: make(chan chan struct{}),
		done:  make(chan struct{}),
		next:  m.eng.NextSeq(),
	}
	go q.run()
	return q
}

// put queues one operation according to the overload policy, reporting
// whether it was accepted. Callers hold enqMu.
func (q *asyncQueue) put(op writeOp) bool {
	switch q.pol {
	case DropNewest:
		select {
		case q.ch <- op:
			return true
		default:
			q.m.met.qDrops.Inc()
			return false
		}
	case DropOldest:
		for {
			select {
			case q.ch <- op:
				return true
			default:
			}
			// Full: evict the oldest queued element and retry. The receive
			// is non-blocking because the consumer may drain the queue
			// between our two selects — then the send simply succeeds.
			select {
			case <-q.ch:
				q.m.met.qDrops.Inc()
			default:
			}
		}
	default:
		q.ch <- op
		return true
	}
}

// dropped counts the suffix a DropNewest cut discards at element i of an
// n-element batch (put already counted element i itself) and reports it.
func (q *asyncQueue) dropped(i, n int) error {
	q.m.met.qDrops.Add(uint64(n - i - 1))
	return fmt.Errorf("batch elements %d..%d dropped: %w", i, n-1, ErrOverloaded)
}

// enqueueBatch reserves consecutive sequence numbers and queues a
// standalone monitor's elements in order. Under Block the whole batch is
// queued (blocking as the queue fills); under DropNewest a full queue cuts
// the batch — the accepted prefix keeps its numbers and ErrOverloaded
// reports the dropped suffix, which consumes no number; under DropOldest
// the whole batch is queued, evicting as needed. Returns the first accepted
// element's number. The elements are already validated; admitNs is the
// batch's front-end admission stamp, carried through the queue so measured
// latency includes queue residency.
func (q *asyncQueue) enqueueBatch(es []Element, admitNs int64) (uint64, error) {
	q.enqMu.Lock()
	defer q.enqMu.Unlock()
	if q.closed {
		return 0, ErrClosed
	}
	first := q.next
	for i := range es {
		if !q.put(writeOp{el: es[i], seq: q.next, admitNs: admitNs}) {
			return first, q.dropped(i, len(es))
		}
		q.next++
	}
	return first, nil
}

// enqueueOps queues a shard member's pre-numbered batch in order. The
// sharded front end assigns the numbers under its own mutex and enqueues in
// assignment order, so channel order is sequence order; the queue's own
// counter is never consulted. A DropNewest cut (or a DropOldest eviction)
// leaves a permanent gap at the assigned numbers.
func (q *asyncQueue) enqueueOps(ops []writeOp) error {
	q.enqMu.Lock()
	defer q.enqMu.Unlock()
	if q.closed {
		return ErrClosed
	}
	for i := range ops {
		if !q.put(ops[i]) {
			return q.dropped(i, len(ops))
		}
	}
	return nil
}

// stop closes the queue to producers and waits for the consumer to apply
// everything already queued and exit. Idempotent.
func (q *asyncQueue) stop() {
	q.enqMu.Lock()
	if !q.closed {
		q.closed = true
		close(q.ch)
	}
	q.enqMu.Unlock()
	<-q.done
}

// run is the single consumer: it drains the queue in batches of up to
// maxIngestBatch operations and applies each batch as one write. buf
// reserves one extra slot for a shard member's watermark tick.
func (q *asyncQueue) run() {
	defer close(q.done)
	buf := make([]writeOp, 0, maxIngestBatch+1)
	for {
		select {
		case op, ok := <-q.ch:
			if !ok {
				return
			}
			buf = q.gather(append(buf[:0], op))
			q.ingest(buf)
		case ack := <-q.flush:
			// Every element sent before the Drain call is already
			// buffered in ch (its send completed first), so a
			// non-blocking sweep empties everything Drain must wait for.
			buf = buf[:0]
			for {
				select {
				case op, ok := <-q.ch:
					if !ok {
						break
					}
					buf = append(buf, op)
					if len(buf) == maxIngestBatch {
						q.ingest(buf)
						buf = buf[:0]
					}
					continue
				default:
				}
				break
			}
			// The last batch may be empty: an idle shard member still
			// applies its watermark tick, so a Drain of the sharded front
			// end leaves every shard expired to the same stream position.
			q.ingest(buf)
			close(ack)
		}
	}
}

// gather opportunistically tops the batch up with whatever is already
// queued, without blocking.
func (q *asyncQueue) gather(buf []writeOp) []writeOp {
	for len(buf) < maxIngestBatch {
		select {
		case op, ok := <-q.ch:
			if !ok {
				return buf
			}
			buf = append(buf, op)
		default:
			return buf
		}
	}
	return buf
}

// ingest applies one drained batch, passing the current queue depth so the
// flight record captures the backlog behind it. A shard member appends a
// watermark tick first, so expiry catches up to sequence numbers routed to
// other shards. A durability failure is already latched by the apply (later
// pushes fail fast) and the batch is dropped. buf's payload references are
// cleared so the scratch does not pin expired points.
func (q *asyncQueue) ingest(buf []writeOp) {
	if op, ok := q.m.wmOp(); ok {
		buf = append(buf, op)
	}
	if len(buf) == 0 {
		return
	}
	_, _ = q.m.applyOps(buf, len(q.ch))
	clear(buf)
	// Semi-sync replication: the consumer, not the enqueuer, carries the
	// quorum wait, so backpressure surfaces as queue depth rather than a
	// blocked enqueue. Waiter errors (replication server shutdown) are
	// dropped here — the batch is applied and locally durable, and the
	// enqueuers already returned their sequence numbers.
	if q.m.commitWaiter.Load() != nil {
		_ = q.m.commitWait(q.m.NextSeq())
	}
}

// Drain blocks until every element enqueued before the call has been
// ingested and is visible to readers through the published view. Without an
// async queue it returns immediately: synchronous pushes publish before
// they return.
func (m *Monitor) Drain() {
	if m.aq == nil {
		return
	}
	ack := make(chan struct{})
	select {
	case m.aq.flush <- ack:
		<-ack
	case <-m.aq.done:
		// Consumer already shut down; Close drained the queue first.
	}
}

// Close drains and shuts down the background goroutines (the async
// ingestion consumer and the shed-policy reattacher), then flushes and
// closes the write-ahead log. Further Push and PushBatch calls return
// ErrClosed; queries keep serving the final published view. Close is
// idempotent and safe to call concurrently. Without an async queue or
// durability it is a no-op.
func (m *Monitor) Close() error {
	if m.aq != nil {
		m.aq.stop()
	}
	m.stopReattacher()
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	if m.wal != nil {
		return m.wal.Close()
	}
	return nil
}
