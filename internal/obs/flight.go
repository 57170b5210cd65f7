package obs

import "time"

// MaxSpanStages bounds the per-stage breakdown carried by a Span. The owner
// defines what the indices mean (the engine's pipeline order, for pskyline).
const MaxSpanStages = 8

// Span is one write operation's timing record: where the time between a
// client handing an element to the front end and the element becoming
// visible to readers went. Offsets are on the package clock (WallAt converts
// AdmitNs for display); the phase durations partition TotalNs as
// Wait + Apply + Publish.
type Span struct {
	// Seq is the first sequence number applied by the operation; Batch the
	// number of elements it applied (1 for a plain Push).
	Seq   uint64
	Batch int32
	// Shard is the applying shard's index (−1 for unsharded monitors).
	Shard int32
	// Queue is the async ingestion queue depth when the operation entered
	// the locked apply section (−1 on synchronous paths).
	Queue int32
	// AdmitNs is the front-end admission stamp (NowNs) of the operation's
	// oldest element.
	AdmitNs int64
	// WaitNs is admission → apply start: queueing plus lock acquisition.
	WaitNs int64
	// ApplyNs is the locked apply phase: WAL logging plus the engine update.
	ApplyNs int64
	// PublishNs is apply end → view publication (top-k refresh included).
	PublishNs int64
	// TotalNs is admission → visibility: WaitNs + ApplyNs + PublishNs.
	TotalNs int64
	// StageNs breaks ApplyNs's engine portion down by pipeline stage, in
	// the engine's stage order (expire, probe, update_old, place, apply).
	StageNs [MaxSpanStages]int64
}

// spanWords is a Span's payload size in ring words.
const spanWords = 9 + MaxSpanStages

func encodeSpan(sp Span, w []uint64) {
	w[0] = sp.Seq
	w[1] = uint64(sp.Batch)
	w[2] = uint64(sp.Shard)
	w[3] = uint64(sp.Queue)
	w[4] = uint64(sp.AdmitNs)
	w[5] = uint64(sp.WaitNs)
	w[6] = uint64(sp.ApplyNs)
	w[7] = uint64(sp.PublishNs)
	w[8] = uint64(sp.TotalNs)
	for i, ns := range sp.StageNs {
		w[9+i] = uint64(ns)
	}
}

func decodeSpan(w []uint64) Span {
	sp := Span{
		Seq:       w[0],
		Batch:     int32(w[1]),
		Shard:     int32(w[2]),
		Queue:     int32(w[3]),
		AdmitNs:   int64(w[4]),
		WaitNs:    int64(w[5]),
		ApplyNs:   int64(w[6]),
		PublishNs: int64(w[7]),
		TotalNs:   int64(w[8]),
	}
	for i := range sp.StageNs {
		sp.StageNs[i] = int64(w[9+i])
	}
	return sp
}

// Flight-recorder defaults (used when the corresponding option is 0).
const (
	DefaultFlightDepth   = 512
	DefaultSlowDepth     = 128
	DefaultSlowThreshold = 5 * time.Millisecond
)

// FlightRecorder keeps the always-on short-term memory of the write path:
// every operation's span lands in a recent ring, and operations whose
// admission-to-visibility total meets the slow threshold are additionally
// latched into a separate slow ring, so the handful of outliers behind a bad
// p999 survive long after the recent ring has cycled past them. Recording is
// allocation-free and single-writer; dumping (Recent/Slow) is lock-free from
// any goroutine.
type FlightRecorder struct {
	recent      *Ring[Span]
	slow        *Ring[Span]
	thresholdNs int64
	recorded    Counter
	slowCount   Counter
}

// NewFlightRecorder sizes the rings and the slow threshold (0 selects the
// package defaults).
func NewFlightRecorder(recentDepth, slowDepth int, slowThreshold time.Duration) *FlightRecorder {
	if recentDepth <= 0 {
		recentDepth = DefaultFlightDepth
	}
	if slowDepth <= 0 {
		slowDepth = DefaultSlowDepth
	}
	if slowThreshold <= 0 {
		slowThreshold = DefaultSlowThreshold
	}
	return &FlightRecorder{
		recent:      NewRing(recentDepth, spanWords, encodeSpan, decodeSpan),
		slow:        NewRing(slowDepth, spanWords, encodeSpan, decodeSpan),
		thresholdNs: int64(slowThreshold),
	}
}

// Record files one operation's span. Single writer only; never allocates.
func (f *FlightRecorder) Record(sp *Span) {
	f.recorded.Inc()
	f.recent.Record(*sp)
	if sp.TotalNs >= f.thresholdNs {
		f.slowCount.Inc()
		f.slow.Record(*sp)
	}
}

// Recent returns the most recent spans, oldest first.
func (f *FlightRecorder) Recent() []Span { return f.recent.Collect() }

// Slow returns the latched slow spans, oldest first.
func (f *FlightRecorder) Slow() []Span { return f.slow.Collect() }

// Threshold returns the slow-latch threshold.
func (f *FlightRecorder) Threshold() time.Duration { return time.Duration(f.thresholdNs) }

// Recorded returns the total number of spans recorded.
func (f *FlightRecorder) Recorded() uint64 { return f.recorded.Load() }

// SlowLatched returns the number of spans that met the slow threshold.
func (f *FlightRecorder) SlowLatched() uint64 { return f.slowCount.Load() }
