package pskyline

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"

	"pskyline/internal/obs"
	"pskyline/internal/wal"
)

// watermark publishes the sharded stream's frontier: count is the number of
// globally assigned sequence numbers (== the next unassigned one) and ts the
// highest assigned element timestamp. The front end stores both under its
// mutex at assignment time; shard consumers read them lock-free to derive
// catch-up ticks, so an async shard's expiry always reflects the latest
// assignment, not just the ops it happened to receive.
type watermark struct {
	count atomic.Uint64
	ts    atomic.Int64
}

// shardMember marks a Monitor as one shard of a ShardedMonitor and carries
// the sharding seams: the logical count window (the engine itself runs
// windowless — expiry is watermark-driven) and the owning front end's
// frontier.
type shardMember struct {
	window int        // logical count window (0 = time-based)
	wm     *watermark // the owning front end's stream frontier
	index  int        // this shard's position, labelling its flight spans
}

// tickLocked applies a watermark tick: expire everything that left the
// global window ending at sequence `last` (count windows) or at timestamp
// wmTS (time windows). Returns the number of expiries. Callers hold m.mu.
func (m *Monitor) tickLocked(last uint64, wmTS int64) int {
	if m.period > 0 {
		return m.eng.ExpireOlderThan(wmTS - m.period)
	}
	if w := uint64(m.opts.shard.window); last+1 > w {
		return m.eng.ExpireSeqBelow(last + 1 - w)
	}
	return 0
}

// wmOp derives a shard member's catch-up tick from the owning front end's
// current frontier. Reports false for standalone monitors and before
// anything was assigned.
func (m *Monitor) wmOp() (writeOp, bool) {
	if m.opts.shard == nil {
		return writeOp{}, false
	}
	wm := m.opts.shard.wm
	n := wm.count.Load()
	if n == 0 {
		return writeOp{}, false
	}
	return writeOp{tick: true, seq: n - 1, wmTS: wm.ts.Load()}, true
}

// ShardedOptions configures NewSharded: the embedded Options apply to every
// shard (Durability.Dir becomes the root of per-shard namespaces
// <dir>/shard-NNN; metric series carry a "shard" label).
type ShardedOptions struct {
	Options
	// Shards is the number of single-writer partitions (≥ 1). Each shard
	// owns a disjoint slice of the data space and runs its own engine, WAL
	// namespace and (with AsyncQueue) ingestion goroutine, so shards ingest
	// in parallel on multi-core hosts.
	Shards int
	// Router partitions the space across shards. It must be total and
	// deterministic (the same element always routes to the same shard for a
	// given shard count); correctness does not depend on WHICH shard an
	// element lands on — see DESIGN.md §13 — so re-partitioning across
	// restarts is safe. Nil selects GridRouter{}.
	Router Router
}

// mergedView caches one merged snapshot keyed by the per-shard views it was
// computed from: as long as every shard still publishes the same *View, the
// merge is reused.
type mergedView struct {
	parts []*View
	view  *View
}

// ShardedMonitor partitions one logical stream across N per-core
// single-writer Monitor shards and answers queries over the merged candidate
// set. Sequence numbers are assigned globally by the front end, elements are
// routed to their home shard by a deterministic Router, and every shard
// expires by shared sequence/timestamp watermarks, so the merged answer is
// EXACTLY the answer a single monitor over the same stream would give (the
// merge-exactness argument is spelled out in DESIGN.md §13).
//
// Like Monitor it is safe for concurrent use: writes serialize on the front
// end's mutex (then fan out to per-shard locks or queues), queries read the
// shards' published views lock-free and merge outside any lock.
//
// Restrictions: OnEnter/OnLeave/OnTopK callbacks and continuous TopK are not
// supported — band transitions are per-shard events, not global ones.
// Ad-hoc TopK queries (the TopK method) work normally.
type ShardedMonitor struct {
	shards []*Monitor
	router Router
	window int
	period int64
	async  bool
	wm     *watermark
	reg    *obs.Registry
	rec    RecoveryInfo

	mu      sync.Mutex // serializes sequence assignment and sync fan-out
	nextSeq uint64
	closed  bool
	groups  [][]writeOp // per-shard batch scratch, guarded by mu

	merged  atomic.Pointer[mergedView]
	maxCand atomic.Int64 // peak merged candidate count observed at merges
	maxSky  atomic.Int64

	closeOnce sync.Once
	closeErr  error
}

// NewSharded opens a sharded monitor: opt.Shards independent shard engines
// behind one globally sequenced front end. With Durability.Dir set each
// shard recovers its own WAL namespace (<dir>/shard-NNN) and the front end
// resumes numbering after the highest recovered position; the shard count
// and Router may differ from the previous run — see ShardedOptions.Router.
func NewSharded(opt ShardedOptions) (*ShardedMonitor, error) {
	if opt.Shards < 1 {
		return nil, errors.New("pskyline: Shards must be >= 1")
	}
	if opt.OnEnter != nil || opt.OnLeave != nil || opt.OnTopK != nil || opt.TopK > 0 {
		return nil, errors.New("pskyline: sharded monitors do not support OnEnter/OnLeave/TopK tracking: band transitions are per-shard, not global")
	}
	if (opt.Window > 0) == (opt.Period > 0) {
		return nil, errors.New("pskyline: exactly one of Window and Period must be positive")
	}
	r := opt.Router
	if r == nil {
		r = GridRouter{}
	}
	reg := opt.sharedReg
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &ShardedMonitor{
		router: r,
		window: opt.Window,
		period: opt.Period,
		async:  opt.AsyncQueue > 0,
		wm:     &watermark{},
		reg:    reg,
		groups: make([][]writeOp, opt.Shards),
	}
	for i := 0; i < opt.Shards; i++ {
		so := opt.Options
		so.Window = 0
		so.shard = &shardMember{window: opt.Window, wm: s.wm, index: i}
		so.sharedReg = reg
		so.metricLabels = append(append([]obs.Label(nil), opt.metricLabels...),
			obs.Label{Key: "shard", Value: strconv.Itoa(i)})
		if so.Durability.Dir != "" {
			var err error
			if so.Durability, err = so.Durability.Namespace(fmt.Sprintf("shard-%03d", i)); err != nil {
				s.abort()
				return nil, err
			}
		}
		sh, err := NewMonitor(so)
		if err != nil {
			s.abort()
			return nil, fmt.Errorf("pskyline: shard %d: %w", i, err)
		}
		s.shards = append(s.shards, sh)
	}

	// Resume global numbering past every shard's recovered position and
	// aggregate what recovery found. The per-shard maxima are consistent:
	// each shard's log holds a subsequence of one globally numbered stream.
	var next uint64
	var wmTS int64
	for _, sh := range s.shards {
		sh.mu.Lock()
		if n := sh.eng.NextSeq(); n > next {
			next = n
		}
		if sh.lastTS > wmTS {
			wmTS = sh.lastTS
		}
		sh.mu.Unlock()
		ri := sh.Recovery()
		s.rec.Recovered = s.rec.Recovered || ri.Recovered
		if ri.CheckpointSeq > s.rec.CheckpointSeq {
			s.rec.CheckpointSeq = ri.CheckpointSeq
		}
		s.rec.Replayed += ri.Replayed
		s.rec.TruncatedBytes += ri.TruncatedBytes
		s.rec.SegmentsDropped += ri.SegmentsDropped
		s.rec.TornSegments += ri.TornSegments
		s.rec.CorruptSegments += ri.CorruptSegments
		s.rec.CheckpointsSkipped += ri.CheckpointsSkipped
		s.rec.TmpFilesRemoved += ri.TmpFilesRemoved
		s.rec.Duration += ri.Duration
	}
	s.nextSeq = next
	s.wm.count.Store(next)
	s.wm.ts.Store(wmTS)
	if next > 0 {
		// Expiry parity after recovery: a shard's log only drives its own
		// expiry, so shards that lagged the global frontier at crash time
		// catch up here before the first query.
		tick := []writeOp{{tick: true, seq: next - 1, wmTS: wmTS}}
		for _, sh := range s.shards {
			if _, err := sh.applyOps(tick, -1); err != nil {
				s.abort()
				return nil, err
			}
		}
	}
	return s, nil
}

// abort closes the shards opened so far during a failed NewSharded.
func (s *ShardedMonitor) abort() {
	for _, sh := range s.shards {
		sh.Close()
	}
}

// Push assigns the next global sequence number to e and routes it to its
// home shard. It is PushBatch of one element: in synchronous mode every
// other shard is ticked to the new watermark so the merged view stays exact
// after every push; with an async queue the op is enqueued on the home
// shard only (its consumer derives watermark ticks itself) and Drain makes
// it visible to queries.
//
// Synchronous sharded pushes pay one lock/publish per shard per element;
// prefer PushBatch or AsyncQueue for throughput.
func (s *ShardedMonitor) Push(e Element) (uint64, error) {
	one := [1]Element{e}
	return s.PushBatch(one[:])
}

// PushBatch assigns consecutive global sequence numbers to the batch, groups
// it by home shard preserving order, and applies each group as one write —
// one group commit and one published view per participating shard (plus an
// end-of-batch watermark tick on every shard in synchronous mode). Returns
// the first assigned number. The final merged state is identical to pushing
// the elements one at a time in the same order.
func (s *ShardedMonitor) PushBatch(es []Element) (uint64, error) {
	for i := range es {
		if err := s.shards[0].validate(es[i]); err != nil {
			return 0, fmt.Errorf("batch element %d: %w", i, err)
		}
	}
	admit := obs.NowNs() // before the front-end lock: its wait counts toward latency
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	first := s.nextSeq
	if len(es) == 0 {
		return first, nil
	}
	for _, sh := range s.shards {
		if p := sh.walErr.Load(); p != nil {
			return 0, *p
		}
	}
	maxTS := s.wm.ts.Load()
	for i := range es {
		if es[i].TS > maxTS {
			maxTS = es[i].TS
		}
	}
	last := first + uint64(len(es)) - 1
	s.nextSeq = last + 1
	s.wm.count.Store(s.nextSeq)
	s.wm.ts.Store(maxTS)
	for i := range es {
		h := s.router.Route(es[i].Point, es[i].Prob, len(s.shards))
		s.groups[h] = append(s.groups[h], writeOp{el: es[i], seq: first + uint64(i), admitNs: admit})
	}
	var firstErr error
	if s.async {
		for i, sh := range s.shards {
			if len(s.groups[i]) == 0 {
				continue
			}
			if err := sh.aq.enqueueOps(s.groups[i]); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	} else {
		tick := writeOp{tick: true, seq: last, wmTS: maxTS}
		for i, sh := range s.shards {
			if _, err := sh.applyOps(append(s.groups[i], tick), -1); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	for i := range s.groups {
		clear(s.groups[i]) // drop payload references from the scratch
		s.groups[i] = s.groups[i][:0]
	}
	return first, firstErr
}

// Drain blocks until every element pushed before the call is visible to
// queries on every shard, and every shard has expired up to the global
// watermark. Synchronous mode returns immediately.
func (s *ShardedMonitor) Drain() {
	for _, sh := range s.shards {
		sh.Drain()
	}
}

// Close shuts every shard down (draining async queues, flushing and closing
// WALs). Idempotent and safe to call concurrently; returns the first
// shard's error.
func (s *ShardedMonitor) Close() error {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		for _, sh := range s.shards {
			if err := sh.Close(); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
		}
	})
	return s.closeErr
}

// View returns a consistent merged snapshot over all shards. With one shard
// it is the shard's own published view; otherwise the per-shard candidate
// views are merged through the canonical cross-shard recomputation (cached
// until any shard publishes again). Its queries have the semantics of a
// single Monitor's; its Stats carry the merged current sizes and the peak
// merged sizes, sampled when views are merged, not continuously. Never nil,
// never blocks the writers.
func (s *ShardedMonitor) View() *View {
	if len(s.shards) == 1 {
		return s.shards[0].View()
	}
	parts := make([]*View, len(s.shards))
	for i, sh := range s.shards {
		parts[i] = sh.View()
	}
	if mv := s.merged.Load(); mv != nil && sameParts(mv.parts, parts) {
		return mv.view
	}
	v := mergeCandidateViews(parts)
	maxAtomic(&s.maxCand, int64(v.stats.Candidates))
	maxAtomic(&s.maxSky, int64(v.stats.Skyline))
	v.stats.MaxCandidates = int(s.maxCand.Load())
	v.stats.MaxSkyline = int(s.maxSky.Load())
	s.merged.Store(&mergedView{parts: parts, view: v})
	return v
}

func sameParts(a, b []*View) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func maxAtomic(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// AddThreshold begins maintaining an additional threshold on every shard.
func (s *ShardedMonitor) AddThreshold(q float64) error {
	return s.eachThreshold(q, (*Monitor).AddThreshold)
}

// RemoveThreshold stops maintaining a threshold on every shard. The smallest
// threshold cannot be removed.
func (s *ShardedMonitor) RemoveThreshold(q float64) error {
	return s.eachThreshold(q, (*Monitor).RemoveThreshold)
}

// eachThreshold applies a threshold change to every shard under the front
// end's mutex (so no push interleaves and the shards stay in lockstep). The
// change is validated against shard 0; a later shard disagreeing means the
// invariant "all shards share one threshold set" broke — unrecoverable.
func (s *ShardedMonitor) eachThreshold(q float64, f func(*Monitor, float64) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	for i, sh := range s.shards {
		if err := f(sh, q); err != nil {
			if i > 0 {
				panic("pskyline: shard threshold divergence: " + err.Error())
			}
			return err
		}
	}
	return nil
}

// NumShards returns the shard count.
func (s *ShardedMonitor) NumShards() int { return len(s.shards) }

// Shard returns shard i for per-shard inspection (Metrics, Stats, WALState,
// Recovery). The returned Monitor rejects direct pushes.
func (s *ShardedMonitor) Shard(i int) *Monitor { return s.shards[i] }

// Checkpoint installs a checkpoint on every shard. Call Drain first for a
// deterministic cut. The per-shard checkpoints need not be mutually
// consistent: recovery replays each shard's log tail independently and the
// front end re-derives the global position from the recovered maxima.
func (s *ShardedMonitor) Checkpoint() error {
	var firstErr error
	for _, sh := range s.shards {
		if err := sh.Checkpoint(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Recovery returns the aggregated recovery report across shards
// (CheckpointSeq is the maximum, Duration the sum).
func (s *ShardedMonitor) Recovery() RecoveryInfo { return s.rec }

// WritePrometheus renders every shard's metric series (labeled shard="i")
// in the Prometheus text exposition format.
func (s *ShardedMonitor) WritePrometheus(w io.Writer) error {
	return s.reg.WritePrometheus(w)
}

// WALState returns the worst durability health state across shards.
func (s *ShardedMonitor) WALState() wal.State {
	worst := wal.StateHealthy
	for _, sh := range s.shards {
		if st := sh.WALState(); st > worst {
			worst = st
		}
	}
	return worst
}
