// Package pskyline is a continuous probabilistic skyline operator over
// sliding windows of uncertain data streams, implementing
//
//	W. Zhang, X. Lin, Y. Zhang, W. Wang, J. X. Yu.
//	"Probabilistic Skyline Operator over Sliding Windows", ICDE 2009.
//
// Each stream element is a point in a d-dimensional numeric space (smaller
// values are better on every dimension) with an occurrence probability
// P ∈ (0, 1]. Over the N most recent elements, the skyline probability of an
// element a is
//
//	Psky(a) = P(a) · Π_{a' in window, a' dominates a} (1 − P(a'))
//
// and the q-skyline is the set of elements with Psky ≥ q. A Monitor answers
// the continuous q-skyline, ad-hoc queries at any threshold q' ≥ q,
// multi-threshold (MSKY) monitoring, probabilistic top-k, and time-based
// windows, while keeping only the candidate set S_{N,q} — expected
// poly-logarithmic in N — indexed in aggregate R-trees.
//
// Quickstart:
//
//	m, err := pskyline.NewMonitor(pskyline.Options{
//		Dims:       2,
//		Window:     100_000,
//		Thresholds: []float64{0.3},
//	})
//	...
//	for e := range stream {
//		m.Push(pskyline.Element{Point: e.Point, Prob: e.Prob, Data: e.ID})
//	}
//	for _, s := range m.Skyline() {
//		fmt.Println(s.Point, s.Psky, s.Data)
//	}
package pskyline

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"pskyline/internal/core"
	"pskyline/internal/geom"
	"pskyline/internal/obs"
	"pskyline/internal/vfs"
	"pskyline/internal/wal"
)

// ErrClosed is returned by Push and PushBatch after Close.
var ErrClosed = errors.New("pskyline: monitor is closed")

// errShardMember guards a shard member's public write entry points: pushes
// must carry globally assigned sequence numbers, which only the owning
// ShardedMonitor can provide.
var errShardMember = errors.New("pskyline: monitor is a shard member; push through its ShardedMonitor")

// Element is one uncertain stream element handed to Push.
type Element struct {
	// Point is the element's location; smaller coordinates dominate. Its
	// length must equal Options.Dims, and every coordinate must be finite.
	Point []float64
	// Prob is the occurrence probability, in (0, 1].
	Prob float64
	// TS is an application timestamp. It is required (and must be
	// non-decreasing) when the Monitor uses a time-based window, and
	// otherwise only stored.
	TS int64
	// Data is an arbitrary payload returned with query results.
	Data any
}

// SkyPoint is one element of a skyline answer.
type SkyPoint struct {
	// Seq is the element's arrival position (0-based).
	Seq uint64
	// Point is the element's location.
	Point []float64
	// Prob is the element's occurrence probability.
	Prob float64
	// Psky is the element's skyline probability in the current window.
	Psky float64
	// TS is the timestamp supplied at Push.
	TS int64
	// Data is the payload supplied at Push.
	Data any
}

// Options configures a Monitor. Exactly one of Window and Period must be
// positive.
type Options struct {
	// Dims is the dimensionality of the data space (≥ 1).
	Dims int
	// Window is the count-based sliding window size N: queries cover the N
	// most recent elements.
	Window int
	// Period selects a time-based window instead: queries cover elements
	// with TS within the most recent Period time units. Pushes must then
	// carry non-decreasing TS values.
	Period int64
	// Thresholds are the continuously maintained skyline probability
	// thresholds q_1 > … > q_k (MSKY when more than one). Ad-hoc queries
	// accept any q' ≥ q_k. At least one threshold is required.
	Thresholds []float64
	// MaxEntries overrides the aggregate R-tree fanout (0 = default).
	MaxEntries int
	// OnEnter and OnLeave, if set, are called during Push whenever an
	// element enters or leaves the q_1-skyline. Callbacks run while the
	// Monitor's lock is held: they must not call back into the Monitor.
	OnEnter func(SkyPoint)
	OnLeave func(SkyPoint)
	// TopK enables continuous top-k monitoring (Section VI): after any
	// Push that changes the ranked list of the TopK candidates with the
	// highest skyline probabilities ≥ TopKMinQ, OnTopK receives the new
	// ranking. TopKMinQ defaults to the smallest threshold. Like OnEnter,
	// OnTopK runs under the Monitor's lock. With PushBatch or an async
	// queue the ranking is re-derived once per ingestion batch, so
	// intermediate rankings inside a batch are not reported.
	TopK     int
	TopKMinQ float64
	OnTopK   func([]SkyPoint)

	// TraceDepth is the capacity of the structured trace ring: the last
	// TraceDepth q_1-skyline transitions are kept for Trace() and the
	// /debug/skyline endpoint (rounded up to a power of two; 0 selects
	// DefaultTraceDepth).
	TraceDepth int

	// AsyncQueue, when positive, decouples producers from ingestion: Push
	// and PushBatch validate the elements, enqueue them on a bounded
	// buffer of this capacity (blocking for backpressure when it is full)
	// and return immediately with the sequence numbers the elements will
	// receive. A single background goroutine drains the buffer in batches,
	// updates the engine and publishes a fresh read view once per batch.
	// Use Drain to wait for the queue to empty and Close to shut the
	// goroutine down. Zero disables the queue: Push and PushBatch then
	// ingest synchronously and a view is published before they return.
	AsyncQueue int

	// AsyncPolicy selects what a full async queue does to producers: Block
	// (the default — backpressure), DropNewest (reject the arriving element
	// with ErrOverloaded) or DropOldest (evict the oldest queued element to
	// make room — the window semantics tolerate gaps, recency wins). Drops
	// are counted in Metrics().QueueDropped. Ignored without AsyncQueue.
	AsyncPolicy OverloadPolicy

	// Latency configures ingest-to-visibility latency tracking and the
	// flight recorder, which are always on; the zero value selects the
	// defaults. See LatencyOptions.
	Latency LatencyOptions

	// Durability, when Dir is set, makes the monitor crash-recoverable:
	// every element is appended to a write-ahead log before the engine
	// applies it, checkpoints are installed periodically, and Open recovers
	// the combined state after a crash. See the Durability type.
	Durability Durability

	// shard marks the monitor as one shard of a ShardedMonitor: sequence
	// numbers arrive pre-assigned from the sharded front end, the engine
	// runs without a window of its own (expiry is driven by sequence or
	// timestamp watermarks), and the public Push/PushBatch entry points are
	// disabled. Set only by NewSharded.
	shard *shardMember

	// metricLabels and sharedReg let a multi-tenant host register this
	// monitor's metric series, labeled, into one shared export registry
	// (one family per metric name across all streams and shards). Set by
	// StreamRegistry and NewSharded.
	metricLabels []obs.Label
	sharedReg    *obs.Registry
}

// Monitor is a continuous probabilistic skyline operator. It is safe for
// concurrent use by any number of goroutines.
//
// Internally the Monitor is split into a single-writer ingestion path and a
// lock-free read path. Writers (Push, PushBatch, AddThreshold, ...) are
// serialized on a mutex and, after every completed update, publish an
// immutable View of the full answerable state through an atomic pointer.
// Readers (Skyline, Query, TopK, View) only load that pointer: they never
// block the writer, never block each other, and never touch the live
// R-trees, so read throughput scales with cores.
//
// Memory model: a read observes exactly the state left by the most recently
// published update — never a partially applied one. A batch (PushBatch or an
// async ingestion batch) publishes once at the end, so readers see either
// the state before the whole batch or after it, nothing in between. The
// atomic publication gives the usual happens-before edge: once a reader
// obtains a view containing element a, it also observes every effect of the
// writes up to and including a's ingestion.
type Monitor struct {
	mu     sync.Mutex // guards eng, data, topk, lastGens
	eng    *core.Engine
	data   map[uint64]any
	period int64
	opts   Options
	topk   *core.TopKTracker
	dims   int

	view     atomic.Pointer[View]
	lastGens []uint64 // engine band generations at last publish

	ops []writeOp // synchronous write scratch, guarded by mu

	// Observability: the metrics block (stage histograms recorded by the
	// engine, mirrors refreshed at publish), the lock-free skyline trace
	// ring, the export registry, and the occurrence-probability running sum
	// behind the theory-bound gauges (plain fields, guarded by mu).
	met       monMetrics
	trace     *obs.Ring[TraceEvent]
	reg       *obs.Registry
	probSum   float64
	probCount uint64

	// Ingest-to-visibility latency tracking (Options.Latency): flight is the
	// per-write span recorder, and shardIdx labels this monitor's flight
	// spans (−1 unsharded).
	flight   *obs.FlightRecorder
	shardIdx int32

	aq *asyncQueue // nil when Options.AsyncQueue == 0

	// Durability (nil wal when disabled). dur holds the normalized options;
	// ckptSince and ckptSeq are checkpoint bookkeeping under mu; replaying
	// suppresses callbacks while recovery re-ingests the log tail; walErr
	// latches the first unrecoverable durability failure so every later
	// write fails fast. fsys is the filesystem seam shared by the WAL and
	// the checkpoint store; walPol the parsed failure policy. Under the
	// "shed" policy degradedCh wakes the reattacher goroutine, whose
	// lifecycle reattachStop/reattachDone/reattachOnce manage.
	wal       *wal.WAL
	dur       Durability
	fsys      vfs.FS
	walPol    wal.Policy
	ckptSince int
	ckptSeq   uint64
	replaying bool
	recovery  RecoveryInfo

	// lastTS is the highest element timestamp ingested (guarded by mu). It
	// is checkpointed and, for shard members, drives the recovered global
	// watermark. snapShardWindow carries a recovered checkpoint's logical
	// shard window for the Open-time configuration check.
	lastTS          int64
	snapShardWindow int
	walErr          atomic.Pointer[error]
	commitWaiter    atomic.Pointer[CommitWaiter] // semi-sync replication hook (repl.go)
	degradedCh      chan struct{}
	reattachStop    chan struct{}
	reattachDone    chan struct{}
	reattachOnce    sync.Once

	closed bool // guarded by mu; Push/PushBatch return ErrClosed once set
}

// NewMonitor returns a Monitor for the given options. When
// Options.Durability.Dir is set it is equivalent to Open: the directory's
// durable state (if any) is recovered and new pushes are logged.
func NewMonitor(opt Options) (*Monitor, error) {
	if opt.Durability.Dir != "" {
		return Open(opt)
	}
	m, err := newMonitorCore(opt)
	if err != nil {
		return nil, err
	}
	return m.finish(), nil
}

// newMonitorCore builds a fresh monitor without publishing a view or
// starting background goroutines (the recovery path replays the WAL tail in
// between).
func newMonitorCore(opt Options) (*Monitor, error) {
	if opt.shard != nil {
		// A shard member holds one slice of a globally numbered stream:
		// the logical count window lives in the shard config (the engine
		// runs windowless and expires by explicit sequence/timestamp
		// watermarks), and the front end validated the window/period
		// exclusivity already.
		if (opt.shard.window > 0) == (opt.Period > 0) || opt.Window != 0 {
			return nil, errors.New("pskyline: internal: malformed shard member configuration")
		}
	} else if (opt.Window > 0) == (opt.Period > 0) {
		return nil, errors.New("pskyline: exactly one of Window and Period must be positive")
	}
	m, err := newMonitorBase(opt)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(core.Options{
		Dims:          opt.Dims,
		Window:        opt.Window,
		Thresholds:    opt.Thresholds,
		MaxEntries:    opt.MaxEntries,
		TrackArrivals: opt.shard != nil,
		OnChange:      m.onChange,
		Metrics:       &m.met.eng,
	})
	if err != nil {
		return nil, fmt.Errorf("pskyline: %w", err)
	}
	m.eng = eng
	if err := m.initTopK(); err != nil {
		return nil, fmt.Errorf("pskyline: %w", err)
	}
	m.dims = eng.Dims()
	return m, nil
}

// newMonitorBase checks the async options and returns a monitor carrying
// opt with what every construction path sets up the same way: the payload
// map, the skyline trace ring and the latency instrumentation (windowed
// histograms, flight recorder, shard label). newMonitorCore gives it a
// fresh engine; restoreCore a checkpointed one.
func newMonitorBase(opt Options) (*Monitor, error) {
	if opt.AsyncQueue < 0 {
		return nil, errors.New("pskyline: AsyncQueue must be >= 0")
	}
	if opt.AsyncPolicy < Block || opt.AsyncPolicy > DropOldest {
		return nil, errors.New("pskyline: unknown AsyncPolicy")
	}
	lo := opt.Latency
	m := &Monitor{
		data:     make(map[uint64]any),
		period:   opt.Period,
		opts:     opt,
		trace:    newTraceRing(opt.TraceDepth),
		flight:   obs.NewFlightRecorder(lo.FlightDepth, lo.SlowDepth, lo.SlowThreshold),
		shardIdx: -1,
	}
	if sh := opt.shard; sh != nil {
		m.shardIdx = int32(sh.index)
	}
	m.met.latApplied.Init(lo.Epoch)
	m.met.latVisible.Init(lo.Epoch)
	return m, nil
}

// initTopK attaches the continuous top-k tracker configured in m.opts.
func (m *Monitor) initTopK() error {
	if m.opts.TopK <= 0 {
		return nil
	}
	minQ := m.opts.TopKMinQ
	if minQ == 0 {
		ths := m.eng.Thresholds()
		minQ = ths[len(ths)-1]
	}
	var err error
	m.topk, err = core.NewTopKTracker(m.eng, m.opts.TopK, minQ)
	return err
}

// finish publishes the first view, assembles the export registry and starts
// the background goroutines: the async ingestion queue and, under the shed
// durability policy, the reattacher. No other goroutine can reference the
// monitor yet, so the "locked" helpers run without the lock.
func (m *Monitor) finish() *Monitor {
	m.publishLocked()
	if m.opts.AsyncQueue > 0 {
		m.aq = newAsyncQueue(m, m.opts.AsyncQueue, m.opts.AsyncPolicy)
	}
	m.buildRegistry()
	if m.wal != nil && m.walPol == wal.Shed {
		m.reattachStop = make(chan struct{})
		m.reattachDone = make(chan struct{})
		go m.reattacher(m.reattachStop)
	}
	return m
}

// onChange runs under m.mu (the engine is only driven from Push).
func (m *Monitor) onChange(ev core.Event) {
	if m.replaying {
		// Recovery replay re-executes transitions that were already
		// reported before the crash: keep the payload cleanup, skip the
		// re-notification (callbacks, churn counters, trace).
		if ev.ToBand == -1 {
			delete(m.data, ev.Item.Seq)
		}
		return
	}
	enter := ev.FromBand != 0 && ev.ToBand == 0
	leave := ev.FromBand == 0 && ev.ToBand != 0
	if enter || leave {
		// Churn accounting and the structured trace: atomic stores into
		// fixed storage, so the ingestion path stays allocation-free.
		if enter {
			m.met.enters.Inc()
		} else {
			m.met.leaves.Inc()
		}
		it := ev.Item
		m.trace.Record(TraceEvent{
			Seq: it.Seq, Processed: m.eng.Processed(), At: obs.WallAt(m.eng.ArrivalNs()),
			Prob: it.P, Psky: it.Psky().Float(), FromBand: ev.FromBand, ToBand: ev.ToBand, Point: it.Point,
		})
	}
	if enter && m.opts.OnEnter != nil {
		m.opts.OnEnter(m.skyPointOf(ev))
	}
	if leave && m.opts.OnLeave != nil {
		m.opts.OnLeave(m.skyPointOf(ev))
	}
	if ev.ToBand == -1 {
		delete(m.data, ev.Item.Seq)
	}
}

// skyPointOf clones the item's point: the engine recycles departed items'
// coordinate storage, so callback payloads must not alias live tree state.
func (m *Monitor) skyPointOf(ev core.Event) SkyPoint {
	it := ev.Item
	return SkyPoint{
		Seq:   it.Seq,
		Point: append([]float64(nil), it.Point...),
		Prob:  it.P,
		TS:    it.TS,
		Data:  m.data[it.Seq],
	}
}

// validate replicates the engine's element checks so that enqueueing and
// batching can reject bad input up front, before any element is ingested.
func (m *Monitor) validate(e Element) error {
	if len(e.Point) != m.dims {
		return fmt.Errorf("pskyline: point dimensionality %d != %d", len(e.Point), m.dims)
	}
	for i, x := range e.Point {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("pskyline: point coordinate %d is %v, not finite", i, x)
		}
	}
	if !(e.Prob > 0 && e.Prob <= 1) { // also rejects NaN
		return fmt.Errorf("pskyline: occurrence probability %v out of (0,1]", e.Prob)
	}
	return nil
}

// Push processes one arriving element and returns its sequence number. It
// is PushBatch of one element.
//
// With an async queue (Options.AsyncQueue > 0) Push only validates and
// enqueues the element — blocking when the queue is full — and returns the
// sequence number the element will receive once the background goroutine
// ingests it; call Drain to wait for queries to observe it.
func (m *Monitor) Push(e Element) (uint64, error) {
	one := [1]Element{e}
	return m.PushBatch(one[:])
}

// PushBatch processes a batch of arriving elements as one write: the
// elements are validated up front (an invalid element fails the whole batch
// before anything is ingested), applied in order under one lock hold, and a
// single read view is published afterwards, so concurrent readers observe
// either none or all of the batch. The final state is byte-identical to
// pushing the elements one at a time in the same order. The elements
// receive consecutive sequence numbers starting at the returned value.
// Batching amortizes the lock, the WAL group commit and view publication:
// for write-heavy streams it is substantially cheaper than element-wise
// Push.
//
// With an async queue the batch is enqueued whole (blocking when the queue
// is full) and ingested by the background goroutine.
func (m *Monitor) PushBatch(es []Element) (uint64, error) {
	if m.opts.shard != nil {
		return 0, errShardMember
	}
	for i := range es {
		if err := m.validate(es[i]); err != nil {
			return 0, fmt.Errorf("batch element %d: %w", i, err)
		}
	}
	if p := m.walErr.Load(); p != nil {
		return 0, *p
	}
	// Stamp admission before queueing and the lock, so queue residency and
	// lock wait count toward the elements' latency.
	admit := obs.NowNs()
	if m.aq != nil {
		return m.aq.enqueueBatch(es, admit)
	}
	first, err := m.pushSync(es, admit)
	if err != nil || len(es) == 0 {
		return first, err
	}
	// Semi-sync replication waits outside the ingest lock: the elements are
	// applied and locally durable; the waiter only gates the return until
	// the follower quorum acks (or the stream degrades to async).
	return first, m.commitWait(first + uint64(len(es)))
}

// pushSync is a synchronous PushBatch's locked section: it stages the
// elements as writeOps in the monitor's scratch and applies them.
func (m *Monitor) pushSync(es []Element, admit int64) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ops := slices.Grow(m.ops[:0], len(es))
	for i := range es {
		ops = append(ops, writeOp{el: es[i], admitNs: admit})
	}
	first, err := m.applyOpsLocked(ops, -1)
	clear(ops) // drop payload references from the scratch
	if cap(ops) <= maxIngestBatch {
		// Keep a scratch sized for ordinary batches; a bulk load's larger
		// one would stay pinned for the monitor's lifetime.
		m.ops = ops[:0]
	}
	return first, err
}

// writeOp is one sequenced operation of the write path: an element push,
// or — for shard members only — a watermark tick (tick == true) that tells
// the shard how far the global stream has advanced: seq is then the newest
// assigned sequence number and wmTS the highest assigned timestamp, so the
// shard can expire its slice of the window even though the elements
// driving the expiry were routed elsewhere. Ticks carry no data, are
// idempotent and commute with each other; the expiry bound they establish
// is monotone.
type writeOp struct {
	el   Element
	seq  uint64
	tick bool
	wmTS int64
	// admitNs is the element's front-end admission stamp (obs.NowNs at the
	// moment Push/PushBatch accepted it, before sequencing, queueing or lock
	// wait), carried to the apply for ingest-to-visibility latency
	// recording. Always 0 on ticks.
	admitNs int64
}

// applyOps is applyOpsLocked for callers that do not hold m.mu: the async
// consumer and the sharded front end.
func (m *Monitor) applyOps(ops []writeOp, queue int) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.applyOpsLocked(ops, queue)
}

// applyOpsLocked is the Monitor's one write body: the paper's per-arrival
// protocol run over a batch under one lock hold. It numbers the pushes (a
// standalone monitor from the engine position — async reservations are
// provisional under DropOldest, whose evictions consume reserved numbers;
// a shard member keeps the front end's global numbers), logs them under
// one group commit, applies every op in order (pushLocked for elements,
// tickLocked for watermark ticks), and — if anything changed — refreshes
// the continuous top-k, publishes one view, records latency and counts the
// pushes toward the checkpoint cadence. queue is the async backlog at apply
// entry (−1 for synchronous writes), kept in the flight record. It returns
// the first push's sequence number (the engine position when ops holds
// none). A durability failure is latched (later writes fail fast) and drops
// the whole batch rather than applying unlogged elements; recoverable
// failures were already absorbed by the WAL's Retry/Shed policy. The ops
// were validated on entry, so an engine rejection is a bug and panics.
// Callers hold m.mu.
func (m *Monitor) applyOpsLocked(ops []writeOp, queue int) (uint64, error) {
	if m.closed {
		return 0, ErrClosed
	}
	if p := m.walErr.Load(); p != nil {
		return 0, *p
	}
	first := m.eng.NextSeq()
	if m.opts.shard == nil {
		for i := range ops {
			ops[i].seq = first + uint64(i)
		}
	}
	var sp opSpan
	m.beginOpLocked(&sp, ops, queue)
	if m.wal != nil {
		if err := m.logOpsLocked(ops); err != nil {
			return 0, err
		}
	}
	pushes, expired := 0, 0
	for i := range ops {
		if ops[i].tick {
			expired += m.tickLocked(ops[i].seq, ops[i].wmTS)
			continue
		}
		if err := m.pushLocked(ops[i].seq, ops[i].el); err != nil {
			panic("pskyline: validated element rejected by engine: " + err.Error())
		}
		if pushes == 0 {
			first = ops[i].seq
		}
		pushes++
	}
	if pushes == 0 && expired == 0 {
		return first, nil
	}
	sp.applyDone()
	m.refreshTopKLocked()
	m.publishLocked()
	m.endOpLocked(&sp, first, pushes, ops)
	m.maybeCheckpointLocked(pushes)
	return first, nil
}

// pushLocked is the paper's per-arrival step at sequence number seq: expire
// what the arrival pushes out of the window, then insert it. A standalone
// count window expires inside the engine; a time window expires by
// timestamp; a shard member — whose engine runs windowless over a sparse
// slice of the global stream — expires by the count window implied by seq.
// The live write path and WAL replay (dense and sparse logs) both run it,
// so recovery re-executes exactly the live transitions. Callers hold m.mu.
func (m *Monitor) pushLocked(seq uint64, e Element) error {
	if m.period > 0 {
		m.eng.ExpireOlderThan(e.TS - m.period)
	} else if sh := m.opts.shard; sh != nil && seq >= uint64(sh.window) {
		m.eng.ExpireSeqBelow(seq - uint64(sh.window) + 1)
	}
	// Record the payload before the engine runs so departure events
	// (including the degenerate immediate ones) can clean it up.
	if e.Data != nil {
		m.data[seq] = e.Data
	}
	if _, err := m.eng.PushAt(seq, geom.Point(e.Point), e.Prob, e.TS); err != nil {
		delete(m.data, seq)
		return fmt.Errorf("pskyline: %w", err)
	}
	m.probSum += e.Prob
	m.probCount++
	if e.TS > m.lastTS {
		m.lastTS = e.TS
	}
	return nil
}

// refreshTopKLocked re-derives the continuous top-k ranking and fires
// OnTopK if the ranked membership changed. Callers hold m.mu.
func (m *Monitor) refreshTopKLocked() {
	if m.topk == nil {
		return
	}
	changed, top, err := m.topk.Refresh()
	if err == nil && changed && m.opts.OnTopK != nil {
		m.opts.OnTopK(m.results(top))
	}
}

// publishLocked captures the engine's current bands into an immutable View
// and swaps it in for readers. Bands whose generation counter is unchanged
// since the previous publication are reused from the previous view
// (copy-on-write): the engine guarantees an unchanged generation means a
// byte-identical extraction. Callers hold m.mu.
func (m *Monitor) publishLocked() {
	ths := m.eng.Thresholds()
	nb := len(ths) + 1
	prev := m.view.Load()
	reuse := prev != nil && len(prev.bands) == nb && len(m.lastGens) == nb
	bands := make([][]SkyPoint, nb)
	gens := make([]uint64, nb)
	for i := 0; i < nb; i++ {
		gens[i] = m.eng.BandGen(i)
		if reuse && m.lastGens[i] == gens[i] {
			bands[i] = prev.bands[i]
			continue
		}
		bands[i] = m.extractBandLocked(i)
	}
	m.lastGens = gens
	m.view.Store(&View{
		processed:  m.eng.Processed(),
		thresholds: ths,
		bands:      bands,
		stats: Stats{
			Processed:     m.eng.Processed(),
			Candidates:    m.eng.CandidateSize(),
			Skyline:       m.eng.SkylineSize(),
			MaxCandidates: m.eng.MaxCandidateSize(),
			MaxSkyline:    m.eng.MaxSkylineSize(),
		},
		counters: m.eng.Counters(),
	})
	m.met.mirrorLocked(m.eng, m.probSum, m.probCount)
}

// extractBandLocked copies threshold band i out of the engine, attaching
// payloads. Callers hold m.mu.
func (m *Monitor) extractBandLocked(i int) []SkyPoint {
	rs := m.eng.BandResults(i)
	out := make([]SkyPoint, len(rs))
	for j, r := range rs {
		out[j] = SkyPoint{
			Seq:   r.Seq,
			Point: r.Point,
			Prob:  r.P,
			Psky:  r.Psky,
			TS:    r.TS,
			Data:  m.data[r.Seq],
		}
	}
	return out
}

func (m *Monitor) results(rs []core.Result) []SkyPoint {
	out := make([]SkyPoint, len(rs))
	for i, r := range rs {
		out[i] = SkyPoint{
			Seq:   r.Seq,
			Point: r.Point,
			Prob:  r.P,
			Psky:  r.Psky,
			TS:    r.TS,
			Data:  m.data[r.Seq],
		}
	}
	return out
}

// View returns the most recently published read view. It never returns nil
// and never blocks: the view is swapped in atomically by the writer, and
// reading it contends with nothing. Use it to answer several queries
// against one consistent snapshot of the stream.
func (m *Monitor) View() *View {
	return m.view.Load()
}

// Skyline returns the current q_1-skyline sorted by descending skyline
// probability. It reads the published view: it never blocks on the writer.
func (m *Monitor) Skyline() []SkyPoint {
	return m.view.Load().Skyline()
}

// Query answers an ad-hoc skyline query at threshold q' ≥ q_k (QSKY). It
// reads the published view: it never blocks on the writer.
func (m *Monitor) Query(qPrime float64) ([]SkyPoint, error) {
	return m.view.Load().Query(qPrime)
}

// TopK returns the k elements with the highest skyline probabilities among
// those with Psky ≥ minQ (minQ ≥ q_k), in descending order. It reads the
// published view: it never blocks on the writer.
func (m *Monitor) TopK(k int, minQ float64) ([]SkyPoint, error) {
	return m.view.Load().TopK(k, minQ)
}

// Thresholds returns the maintained thresholds, sorted descending.
func (m *Monitor) Thresholds() []float64 {
	return m.view.Load().Thresholds()
}

// AddThreshold begins maintaining an additional threshold (a new MSKY user
// registering a confidence level). The threshold must be above the smallest
// maintained one: candidates for looser thresholds were already discarded.
//
// Threshold changes redefine the band structure in place without emitting
// enter/leave events: if the new threshold becomes the largest, OnEnter and
// OnLeave simply track the new q_1-skyline from the next Push onward.
func (m *Monitor) AddThreshold(q float64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.eng.AddThreshold(q); err != nil {
		return fmt.Errorf("pskyline: %w", err)
	}
	m.publishLocked()
	return nil
}

// RemoveThreshold stops maintaining a threshold (an MSKY user leaving). The
// smallest threshold cannot be removed — it bounds the retained state.
func (m *Monitor) RemoveThreshold(q float64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.eng.RemoveThreshold(q); err != nil {
		return fmt.Errorf("pskyline: %w", err)
	}
	m.publishLocked()
	return nil
}

// Stats reports the operator's size counters.
type Stats struct {
	// Processed is the number of elements pushed so far.
	Processed uint64
	// Candidates is the current candidate set size |S_{N,q_k}|.
	Candidates int
	// Skyline is the current |SKY_{N,q_1}|.
	Skyline int
	// MaxCandidates and MaxSkyline are the maxima observed over the
	// stream so far.
	MaxCandidates int
	MaxSkyline    int
}

// Stats returns current and peak sizes as of the last published view. Like
// the query methods it reads the published view and never blocks on the
// writer.
func (m *Monitor) Stats() Stats {
	return m.view.Load().Stats()
}

// Counters returns the operator's accumulated work counters (entries
// classified, elements touched, lazy entry updates, candidate removals and
// band moves) as of the last published view — useful for capacity planning
// and for verifying that the index is pruning effectively on a given
// workload. Lock-free, like Stats.
func (m *Monitor) Counters() core.Counters {
	return m.view.Load().Counters()
}
