// Package core implements the paper's continuous probabilistic skyline
// operator over sliding windows (Algorithms 1–11), generalized to multiple
// probability thresholds (Section IV-D).
//
// The engine maintains the candidate set S_{N,q} — the elements of the
// window whose Pnew is at least the smallest threshold — partitioned across
// k+1 aggregate R-trees: tree i < k holds the elements whose skyline
// probability falls in the band [q_i, q_{i-1}), and tree k holds the
// remaining candidates. With a single threshold this is exactly the paper's
// R_1 (the skyline SKY_{N,q}) and R_2 (S_{N,q} − SKY_{N,q}).
//
// Arrivals and expiries touch entries, not elements, wherever the aggregate
// bounds allow: probability updates are recorded as lazy entry multipliers,
// and subtrees are reclassified wholesale when their Psky_min/max bounds
// decide membership. Structural changes (removals from the candidate set
// and moves between band trees) are evaluated at entry granularity first
// and then applied, so the engine only ever enumerates the elements whose
// membership actually changes.
package core

import (
	"fmt"
	"math"
	"sort"

	"pskyline/internal/aggrtree"
	"pskyline/internal/geom"
	"pskyline/internal/obs"
	"pskyline/internal/prob"
)

// Options configures an Engine.
type Options struct {
	// Dims is the dimensionality of the data space (≥ 1). Smaller values
	// dominate larger ones on every dimension.
	Dims int
	// Window is the count-based sliding window size N. If zero the window
	// is unbounded unless the caller drives expiry through ExpireOlderThan
	// (time-based windows, Section VI).
	Window int
	// Thresholds are the skyline probability thresholds q_1 > … > q_k,
	// each in (0, 1]. They are sorted descending and deduplicated. At
	// least one threshold is required.
	Thresholds []float64
	// MaxEntries is the aggregate R-tree fanout: 0 selects the default (12),
	// otherwise it must lie in [4, 63]. The upper bound keeps every leaf,
	// overflow item included, within one 64-bit block-kernel mask.
	MaxEntries int
	// TrackArrivals keeps a queue of (seq, timestamp) pairs so that
	// ExpireOlderThan can drive time-based windows. It is implied by
	// Window == 0 and otherwise optional.
	TrackArrivals bool
	// EagerPropagation disables the lazy entry multipliers: dominance
	// updates are applied to every affected element immediately. This is
	// the ablation mode for the paper's aggregate-information design; it
	// is functionally identical and substantially slower on fat windows.
	EagerPropagation bool
	// OnChange, if set, receives a band-transition event for every element
	// whose threshold band changes, including arrivals (FromBand = −1) and
	// departures (ToBand = −1).
	OnChange func(Event)
	// Metrics, if set, enables per-stage latency histograms (see the
	// Metrics type). Recording is allocation-free; nil disables timing
	// entirely.
	Metrics *Metrics
}

// Event reports an element moving between threshold bands. Band indices are
// 0-based over the sorted descending thresholds; band k (== number of
// thresholds) is the candidates-only band; −1 means outside the candidate
// set. For departures (ToBand == −1) the Item is only valid for the duration
// of the callback: the engine recycles departed items, so callbacks must
// copy what they need rather than retain the pointer.
type Event struct {
	Item     *aggrtree.Item
	FromBand int
	ToBand   int
}

// Engine is the continuous probabilistic skyline operator. No Engine method
// is safe to call concurrently with any other — queries read the same lazy
// multipliers that Push rewrites, so even "read-only" calls (Query, TopK,
// Candidates, BandResults) must be serialized with writes. The intended
// multi-goroutine shape is single-writer with snapshot reads: one goroutine
// owns the engine (taking a mutex if several produce), and read traffic is
// served from immutable copies extracted under that mutex via BandResults,
// as the pskyline package's Monitor does with its published views. Band
// generation counters (BandGen) make those copies cheap to keep current.
type Engine struct {
	dims   int
	window int
	qf     []float64     // thresholds, descending
	qs     []prob.Factor // thresholds as factors
	trees  []*aggrtree.Tree
	inS    map[uint64]*aggrtree.Item
	next   uint64

	bandGen []uint64 // per-band logical mutation counters (see view.go)

	trackArrivals bool
	arrivals      []arrival // FIFO of arrivals for time-based expiry

	onChange   func(Event)
	eager      bool
	maxEntries int
	metrics    *Metrics       // nil disables stage timing
	clk        obs.StageClock // armed once per arrival/expiry when metrics != nil
	arrivalNs  int64          // obs.NowNs stamp of the arrival/expiry being processed

	// Hot-path machinery: dimension-specialized dominance kernels selected
	// once at construction, and the recycling stores that make steady-state
	// ingestion allocation-free (see arena.go and aggrtree's pools).
	kern  *geom.Kernels
	bkern *geom.BlockKernels
	arena *pointArena
	items *aggrtree.ItemPool
	nodes *aggrtree.NodePool

	maxCand   int
	maxSky    int
	processed uint64

	counters Counters
	scratch  scratch
}

// Counters accumulate work metrics across the engine's lifetime. They
// quantify the paper's central performance claim — that arrivals and
// expiries visit few entries — and are reported by the experiment harness
// alongside timings.
type Counters struct {
	// Pushes and Expiries count processed arrivals and candidate expiries.
	Pushes, Expiries uint64
	// NodesVisited counts entries classified during probes and update
	// traversals.
	NodesVisited uint64
	// ItemsTouched counts elements examined or mutated individually.
	ItemsTouched uint64
	// LazyApplied counts entry-level lazy multiplications — probability
	// updates that covered a whole subtree without visiting its elements.
	LazyApplied uint64
	// Removals counts elements dropped from the candidate set before
	// expiry; Moves counts band reclassifications.
	Removals, Moves uint64
}

// Counters returns a snapshot of the engine's work counters.
func (e *Engine) Counters() Counters { return e.counters }

// scratch holds per-operation working buffers reused across pushes to keep
// the steady-state push path allocation-free.
type scratch struct {
	domN, queueN, removedN, surviveN, affN []nodeT
	domI, removedI, surviveI, affI         []itemT
	moves                                  []itemMove
	rem, sur                               []joinEnt
	pairs                                  []joinPair
}

// arrival is one (sequence, timestamp) pair of the time-window FIFO. The
// fields are exported for checkpoint encoding.
type arrival struct {
	Seq uint64
	TS  int64
}

// NewEngine returns an engine for the given options.
func NewEngine(opt Options) (*Engine, error) {
	if opt.Dims < 1 {
		return nil, fmt.Errorf("core: Dims must be >= 1, got %d", opt.Dims)
	}
	if opt.Window < 0 {
		return nil, fmt.Errorf("core: Window must be >= 0, got %d", opt.Window)
	}
	if len(opt.Thresholds) == 0 {
		return nil, fmt.Errorf("core: at least one threshold is required")
	}
	if me := opt.MaxEntries; me != 0 && (me < 4 || me > geom.BlockMaxItems-1) {
		return nil, fmt.Errorf("core: MaxEntries must be 0 or in [4, %d], got %d", geom.BlockMaxItems-1, me)
	}
	qf := append([]float64(nil), opt.Thresholds...)
	sort.Sort(sort.Reverse(sort.Float64Slice(qf)))
	dedup := qf[:1]
	for _, q := range qf[1:] {
		if q != dedup[len(dedup)-1] {
			dedup = append(dedup, q)
		}
	}
	qf = dedup
	for _, q := range qf {
		if !(q > 0 && q <= 1) { // also rejects NaN
			return nil, fmt.Errorf("core: threshold %v out of (0,1]", q)
		}
	}
	e := &Engine{
		dims:          opt.Dims,
		window:        opt.Window,
		qf:            qf,
		inS:           make(map[uint64]*aggrtree.Item),
		trackArrivals: opt.TrackArrivals || opt.Window == 0,
		onChange:      opt.OnChange,
		eager:         opt.EagerPropagation,
		maxEntries:    opt.MaxEntries,
		metrics:       opt.Metrics,
		kern:          geom.KernelsFor(opt.Dims),
		bkern:         geom.BlockKernelsFor(opt.Dims),
		arena:         newPointArena(opt.Dims),
		items:         aggrtree.NewItemPool(),
		nodes:         aggrtree.NewNodePool(opt.Dims),
	}
	for _, q := range qf {
		e.qs = append(e.qs, prob.FromFloat(q))
	}
	// One node pool across all band trees: nodes migrate between trees when
	// thresholds change, so their freelists must be shared too.
	cfg := aggrtree.Config{MaxEntries: opt.MaxEntries, NodePool: e.nodes}
	for i := 0; i <= len(qf); i++ {
		e.trees = append(e.trees, aggrtree.New(opt.Dims, cfg))
	}
	e.bandGen = make([]uint64, len(qf)+1)
	return e, nil
}

// Dims returns the dimensionality of the engine's data space.
func (e *Engine) Dims() int { return e.dims }

// Window returns the count-based window size (0 for time-based windows).
func (e *Engine) Window() int { return e.window }

// Thresholds returns the sorted descending thresholds.
func (e *Engine) Thresholds() []float64 {
	return append([]float64(nil), e.qf...)
}

// Processed returns the number of elements pushed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// CandidateSize returns |S_{N,q_k}|, the number of elements currently kept.
func (e *Engine) CandidateSize() int { return len(e.inS) }

// SkylineSize returns |SKY_{N,q_1}|: the number of elements in the top band
// (skyline probability ≥ the largest threshold).
func (e *Engine) SkylineSize() int { return e.trees[0].Size() }

// BandSize returns the number of elements in threshold band i.
func (e *Engine) BandSize(i int) int { return e.trees[i].Size() }

// MaxCandidateSize returns the maximum candidate set size observed.
func (e *Engine) MaxCandidateSize() int { return e.maxCand }

// MaxSkylineSize returns the maximum top-band size observed.
func (e *Engine) MaxSkylineSize() int { return e.maxSky }

// minQ returns the smallest threshold q_k, the candidate-set bound.
func (e *Engine) minQ() prob.Factor { return e.qs[len(e.qs)-1] }

// bandOf returns the band index for a skyline probability.
func (e *Engine) bandOf(psky prob.Factor) int {
	for i, q := range e.qs {
		if psky.AtLeast(q) {
			return i
		}
	}
	return len(e.qs)
}

// bandBounds returns the [lo, hi) skyline probability bounds of band i,
// where hi for band 0 is unbounded (ok is false).
func (e *Engine) bandBounds(i int) (lo prob.Factor, hi prob.Factor, hiOK bool) {
	if i < len(e.qs) {
		lo = e.qs[i]
	} else {
		lo = prob.Zero()
	}
	if i > 0 {
		return lo, e.qs[i-1], true
	}
	return lo, prob.Factor{}, false
}

// fitsBand reports whether the closed probability range [min, max] lies
// entirely inside band i.
func (e *Engine) fitsBand(i int, min, max prob.Factor) bool {
	lo, hi, hiOK := e.bandBounds(i)
	if i < len(e.qs) {
		if min.Less(lo) {
			return false
		}
	} else if !max.Less(e.qs[len(e.qs)-1]) {
		// Bottom band requires max < q_k.
		return false
	}
	if hiOK && !max.Less(hi) {
		return false
	}
	return true
}

// treeIndexOf returns the band tree currently holding it, or −1 when the
// item is detached.
func (e *Engine) treeIndexOf(it *aggrtree.Item) int {
	n := it.Leaf()
	if n == nil {
		return -1
	}
	for n.Parent() != nil {
		n = n.Parent()
	}
	for i, tr := range e.trees {
		if tr.Root() == n {
			return i
		}
	}
	return -1
}

// emit fires the change callback if configured.
func (e *Engine) emit(it *aggrtree.Item, from, to int) {
	if e.onChange != nil && from != to {
		e.onChange(Event{Item: it, FromBand: from, ToBand: to})
	}
}

// newItem builds an item whose coordinates live in the engine's arena,
// recycling a pooled item when one is free.
func (e *Engine) newItem(pt geom.Point, p float64, seq uint64) *aggrtree.Item {
	return e.items.Get(e.arena.get(pt), p, seq)
}

// freeItem recycles an item that has permanently left the window, returning
// its coordinate slot to the arena. The caller guarantees no reference to
// the item or its point escapes the engine (published results are cloned).
func (e *Engine) freeItem(it *aggrtree.Item) {
	e.arena.put(e.items.Put(it))
}

// Push processes the arrival of a new element (Algorithm 1): with a
// count-based window it first expires the element falling out of the window,
// then runs the incremental insertion. ts is recorded for time-based
// windows and may be zero otherwise. The returned item is the engine's
// record of the element; it is recycled (and must not be read) once the
// element leaves the window or the candidate set.
func (e *Engine) Push(pt geom.Point, p float64, ts int64) (*aggrtree.Item, error) {
	if err := e.checkElem(pt, p); err != nil {
		return nil, err
	}
	return e.push1(pt, p, ts), nil
}

// checkElem validates one arrival without mutating anything.
func (e *Engine) checkElem(pt geom.Point, p float64) error {
	if len(pt) != e.dims {
		return fmt.Errorf("core: point dimensionality %d != %d", len(pt), e.dims)
	}
	for i, x := range pt {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("core: point coordinate %d is %v, not finite", i, x)
		}
	}
	if !(p > 0 && p <= 1) { // also rejects NaN
		return fmt.Errorf("core: occurrence probability %v out of (0,1]", p)
	}
	return nil
}

// PushAt processes an arrival carrying an explicit sequence number. It is
// the sharding seam: a sharded front end assigns global sequence numbers
// and routes each element to one shard engine, so a shard sees a sparse,
// strictly increasing subsequence of the global stream. Because the
// count-based auto-expiry arithmetic assumes dense sequences, a sparse seq
// requires caller-driven expiry (Window == 0, arrivals tracked): the caller
// expires by sequence (ExpireSeqBelow) or timestamp (ExpireOlderThan)
// before pushing. A count-window engine accepts only the dense
// continuation seq == NextSeq(), which makes PushAt equivalent to Push.
func (e *Engine) PushAt(seq uint64, pt geom.Point, p float64, ts int64) (*aggrtree.Item, error) {
	if err := e.checkElem(pt, p); err != nil {
		return nil, err
	}
	if e.window != 0 && seq != e.next {
		return nil, fmt.Errorf("core: PushAt sequence %d on an engine with window %d must continue at %d (sparse sequences need Window == 0)", seq, e.window, e.next)
	}
	if seq < e.next {
		return nil, fmt.Errorf("core: PushAt sequence %d behind engine position %d", seq, e.next)
	}
	return e.push1At(seq, pt, p, ts), nil
}

// ExpireSeqBelow expires every tracked element whose sequence is strictly
// below bound. It is the count-window analogue of ExpireOlderThan for
// engines driven through PushAt, where sequence gaps make the dense
// seq−window arithmetic of push1 inapplicable. Returns the number of
// elements expired from the window (whether or not they were candidates).
func (e *Engine) ExpireSeqBelow(bound uint64) int {
	if !e.trackArrivals {
		panic("core: ExpireSeqBelow requires TrackArrivals or Window == 0")
	}
	n := 0
	for len(e.arrivals) > 0 && e.arrivals[0].Seq < bound {
		e.stampArrival()
		e.expire(e.arrivals[0].Seq)
		e.arrivals = e.arrivals[1:]
		n++
	}
	return n
}

// stampArrival takes the single monotonic clock reading for the
// arrival/expiry about to be processed: the one reading arms the stage clock
// (when metrics are on) and serves as the ArrivalNs timestamp consumers of
// OnChange events (the trace ring) attach to transitions, so stage timing
// and event timestamps are mutually consistent by construction. When neither
// consumer exists the clock is not read at all.
func (e *Engine) stampArrival() {
	if e.metrics == nil && e.onChange == nil {
		return
	}
	e.arrivalNs = obs.NowNs()
	if e.metrics != nil {
		e.clk.ResetAt(e.arrivalNs)
	}
}

// ArrivalNs returns the obs.NowNs reading taken when the engine began
// processing the current (or most recent) arrival or expiry — the shared
// timestamp OnChange consumers should attach to transition events. Zero
// until the first stamped arrival.
func (e *Engine) ArrivalNs() int64 { return e.arrivalNs }

// HorizonSeq returns the sequence of the oldest element still inside the
// window (e.next when the window is empty). Unlike next−fill arithmetic it
// is exact for sparse streams ingested through PushAt, where in-window
// sequences are not contiguous.
func (e *Engine) HorizonSeq() uint64 {
	if e.trackArrivals {
		if len(e.arrivals) > 0 {
			return e.arrivals[0].Seq
		}
		return e.next
	}
	return e.next - uint64(e.InWindow())
}

// push1 is the validated arrival path shared by Push and PushBatch. Both
// routes run this exact per-element sequence, which is what makes a batch
// byte-identical to the equivalent sequence of Push calls.
func (e *Engine) push1(pt geom.Point, p float64, ts int64) *aggrtree.Item {
	return e.push1At(e.next, pt, p, ts)
}

// push1At is push1 with the sequence made explicit. The dense path passes
// e.next, so the refactor is behavior-preserving; PushAt may pass any
// seq ≥ e.next.
func (e *Engine) push1At(seq uint64, pt geom.Point, p float64, ts int64) *aggrtree.Item {
	e.next = seq + 1
	e.processed++
	e.counters.Pushes++
	e.stampArrival()
	if e.window > 0 && seq >= uint64(e.window) {
		e.expire(seq - uint64(e.window))
	}
	it := e.newItem(pt, p, seq)
	it.TS = ts
	if e.trackArrivals {
		e.arrivals = append(e.arrivals, arrival{Seq: seq, TS: ts})
	}
	e.insert(it)
	if c := len(e.inS); c > e.maxCand {
		e.maxCand = c
	}
	if s := e.trees[0].Size(); s > e.maxSky {
		e.maxSky = s
	}
	return it
}

// BatchElem is one arrival of a batch.
type BatchElem struct {
	Point geom.Point
	P     float64
	TS    int64
}

// PushBatch processes the elements in order as one engine-level operation.
// The final engine state is byte-identical to calling Push once per element
// in the same order — each element still runs the full expire-then-insert
// sequence — but the mechanical work around that sequence is amortized:
// the whole batch is validated before any mutation (an invalid element
// leaves the engine untouched, unlike a failing looped Push which keeps its
// prefix), and the time-window arrival FIFO grows once instead of per call.
// It returns the sequence number assigned to the first element; elements of
// the batch receive consecutive sequence numbers from there.
func (e *Engine) PushBatch(elems []BatchElem) (uint64, error) {
	for i := range elems {
		if err := e.checkElem(elems[i].Point, elems[i].P); err != nil {
			return 0, fmt.Errorf("core: batch element %d: %w", i, err)
		}
	}
	first := e.next
	if e.trackArrivals {
		if need := len(e.arrivals) + len(elems); need > cap(e.arrivals) {
			grown := make([]arrival, len(e.arrivals), need)
			copy(grown, e.arrivals)
			e.arrivals = grown
		}
	}
	for i := range elems {
		e.push1(elems[i].Point, elems[i].P, elems[i].TS)
	}
	return first, nil
}

// ExpireOlderThan expires, for time-based windows (Section VI), every
// element whose timestamp is strictly below cutoff. Timestamps must be
// non-decreasing across Push calls. It returns the number of elements
// expired from the window (whether or not they were candidates).
func (e *Engine) ExpireOlderThan(cutoff int64) int {
	if !e.trackArrivals {
		panic("core: ExpireOlderThan requires TrackArrivals or Window == 0")
	}
	n := 0
	for len(e.arrivals) > 0 && e.arrivals[0].TS < cutoff {
		e.stampArrival()
		e.expire(e.arrivals[0].Seq)
		e.arrivals = e.arrivals[1:]
		n++
	}
	return n
}

// CheckInvariants verifies every band tree (for tests).
func (e *Engine) CheckInvariants() error {
	for i, tr := range e.trees {
		if err := tr.CheckInvariants(); err != nil {
			return fmt.Errorf("tree %d: %w", i, err)
		}
	}
	total := 0
	for _, tr := range e.trees {
		total += tr.Size()
	}
	if total != len(e.inS) {
		return fmt.Errorf("tree sizes sum %d != candidate map %d", total, len(e.inS))
	}
	return nil
}
