package pskyline

import (
	"math"
	"time"

	"pskyline/internal/obs"
)

// traceDepth is the trace ring's capacity: Trace returns at most the last
// traceDepth q_1-skyline transitions.
const traceDepth = 256

// traceMaxDims bounds the coordinates stored per trace record; points with
// more dimensions are truncated in the trace (the authoritative coordinates
// remain available through the read views).
const traceMaxDims = 8

// TraceEvent is one recorded skyline transition: an element entering or
// leaving the q_1-skyline as the window slides.
type TraceEvent struct {
	// Seq is the element's arrival position.
	Seq uint64
	// Entered reports the direction: true for an element entering the
	// skyline, false for one leaving it.
	Entered bool
	// Point is the element's location, truncated to 8 dimensions in the
	// trace.
	Point []float64
	// Prob is the element's occurrence probability.
	Prob float64
	// Psky is the element's skyline probability at the moment of the
	// transition (for departures from the window, its final value).
	Psky float64
	// FromBand and ToBand are the threshold band indices of the move
	// (−1 = outside the candidate set).
	FromBand, ToBand int
	// At is the time the transition was recorded. The stamp is the single
	// monotonic clock reading the engine took when it began processing the
	// arrival or expiry that fired the transition — the same reading that
	// arms the stage timing — converted to wall clock through one shared
	// base, so deltas between the At values of different events are true
	// monotonic intervals (wall-clock steps cannot distort them).
	At time.Time
	// Processed is the number of stream elements ingested when the
	// transition fired.
	Processed uint64
}

// traceWords is a TraceEvent's payload size in ring words: seq, processed,
// the arrival stamp, prob, psky, the two bands, the point's dimension count
// and up to traceMaxDims coordinates.
const traceWords = 8 + traceMaxDims

// newTraceRing returns a ring holding the last `depth` transitions.
func newTraceRing(depth int) *obs.Ring[TraceEvent] {
	return obs.NewRing(depth, traceWords, encodeTrace, decodeTrace)
}

// encodeTrace stores At as its offset on the package clock of internal/obs:
// the engine's arrival stamp the writer converted with obs.WallAt, so
// decoding through obs.WallAt again returns the identical time.
func encodeTrace(ev TraceEvent, w []uint64) {
	w[0] = ev.Seq
	w[1] = ev.Processed
	w[2] = uint64(ev.At.Sub(obs.WallAt(0)))
	w[3] = math.Float64bits(ev.Prob)
	w[4] = math.Float64bits(ev.Psky)
	w[5] = uint64(ev.FromBand)
	w[6] = uint64(ev.ToBand)
	d := min(len(ev.Point), traceMaxDims)
	w[7] = uint64(d)
	for i, x := range ev.Point[:d] {
		w[8+i] = math.Float64bits(x)
	}
}

func decodeTrace(w []uint64) TraceEvent {
	ev := TraceEvent{
		Seq:       w[0],
		Processed: w[1],
		At:        obs.WallAt(int64(w[2])),
		Prob:      math.Float64frombits(w[3]),
		Psky:      math.Float64frombits(w[4]),
		FromBand:  int(w[5]),
		ToBand:    int(w[6]),
		Point:     make([]float64, w[7]),
	}
	for i := range ev.Point {
		ev.Point[i] = math.Float64frombits(w[8+i])
	}
	ev.Entered = ev.ToBand == 0
	return ev
}

// Trace returns the most recent skyline transitions, oldest first, at most
// 256 of them. It reads the lock-free trace ring: it never blocks ingestion
// and may be called from any goroutine. Transitions being overwritten at the
// instant of the call are omitted rather than returned torn.
func (m *Monitor) Trace() []TraceEvent {
	return m.trace.Collect()
}
