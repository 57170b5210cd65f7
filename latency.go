package pskyline

import (
	"sort"
	"time"

	"pskyline/internal/core"
	"pskyline/internal/obs"
)

// SpanStages names the engine pipeline stages behind the leading entries of
// a flight span's StageNs breakdown, in order (the remaining entries are
// reserved and stay zero).
func SpanStages() []string {
	return append([]string(nil), core.SpanStageNames[:]...)
}

// SpanAdmitTime converts a flight span's monotonic admission stamp to wall
// clock (through the same shared base every latency stamp uses).
func SpanAdmitTime(sp obs.Span) time.Time { return obs.WallAt(sp.AdmitNs) }

// LatencyOptions configures ingest-to-visibility latency tracking and the
// flight recorder. Tracking is always on; the zero value selects the
// defaults.
//
// Tracking stamps every element once at front-end admission — where Push,
// PushBatch or the sharded front end accepts it, before any queueing or lock
// wait — and measures two intervals against that stamp when the write that
// carried the element completes:
//
//   - applied: admission → the engine finished applying the element;
//   - visible: admission → the read view containing it was published (the
//     moment queries can observe it).
//
// Both land in windowed histograms (recent quantiles over the last Epoch ×
// obs.NumEpochs, plus cumulative totals) exported per shard and per stream,
// and every completed write leaves a span record in the flight recorder.
type LatencyOptions struct {
	// Epoch is the rotation interval of the windowed latency histograms;
	// the recent quantiles cover the last obs.NumEpochs epochs. 0 selects
	// obs.DefaultEpoch (10s, i.e. a one-minute window).
	Epoch time.Duration
	// SlowThreshold is the admission-to-visibility latency at or above which
	// a write's span is latched into the slow ring (0 selects
	// obs.DefaultSlowThreshold).
	SlowThreshold time.Duration
}

// opSpan tracks one write operation (a push, a batch, or a drained async
// batch) from the moment its owner acquired the monitor lock to the view
// publication that made it visible. It lives on the caller's stack — no
// allocation.
type opSpan struct {
	on      bool
	admitNs int64 // admission stamp of the operation's first stamped element
	startNs int64 // lock acquired, engine work about to start
	applyNs int64 // engine work done, publication about to start
	queue   int32 // async queue depth at apply entry (-1 synchronous)
}

// beginOpLocked arms the span with the admission stamp of the write's first
// stamped op and resets the engine's per-operation stage accumulator.
// Callers hold m.mu. A tick-only write carries no stamp: its span stays
// disarmed.
func (m *Monitor) beginOpLocked(sp *opSpan, ops []writeOp, queue int) {
	for i := range ops {
		if a := ops[i].admitNs; a != 0 {
			sp.on = true
			sp.admitNs = a
			sp.queue = int32(queue)
			sp.startNs = obs.NowNs()
			m.met.eng.ResetSpan()
			return
		}
	}
}

// applyDone marks the engine-applied instant (before topk refresh and view
// publication).
func (sp *opSpan) applyDone() {
	if sp.on {
		sp.applyNs = obs.NowNs()
	}
}

// endOpLocked closes the span after the publication that made the operation
// visible: it records one applied and one visible latency sample per pushed
// element, against the element's own admission stamp, and files one flight
// record for the n pushes of the operation. Callers hold m.mu.
func (m *Monitor) endOpLocked(sp *opSpan, firstSeq uint64, n int, ops []writeOp) {
	if !sp.on {
		return
	}
	end := obs.NowNs()
	mm := &m.met
	for i := range ops {
		if a := ops[i].admitNs; a != 0 {
			mm.latApplied.Record(end, time.Duration(sp.applyNs-a))
			mm.latVisible.Record(end, time.Duration(end-a))
		}
	}
	fs := obs.Span{
		Seq:       firstSeq,
		Batch:     int32(n),
		Shard:     m.shardIdx,
		Queue:     sp.queue,
		AdmitNs:   sp.admitNs,
		WaitNs:    sp.startNs - sp.admitNs,
		ApplyNs:   sp.applyNs - sp.startNs,
		PublishNs: end - sp.applyNs,
		TotalNs:   end - sp.admitNs,
	}
	stages := mm.eng.SpanNs()
	copy(fs.StageNs[:], stages[:])
	m.flight.Record(&fs)
}

// FlightInfo is a dump of the flight recorder: the most recent write spans
// (oldest first) and the latched slow spans, with the recorder's counters.
type FlightInfo struct {
	// Recent holds the last completed write spans, oldest first.
	Recent []obs.Span
	// Slow holds the spans whose admission-to-visibility latency reached
	// SlowThreshold, oldest first — the always-on record of the worst
	// recent writes.
	Slow []obs.Span
	// Recorded and SlowLatched count spans recorded and latched since start.
	Recorded    uint64
	SlowLatched uint64
	// SlowThreshold is the configured latching threshold.
	SlowThreshold time.Duration
}

// Flight dumps the flight recorder. Lock-free: reading the rings never blocks
// ingestion, and spans being overwritten concurrently are skipped rather than
// returned torn.
func (m *Monitor) Flight() FlightInfo {
	return FlightInfo{
		Recent:        m.flight.Recent(),
		Slow:          m.flight.Slow(),
		Recorded:      m.flight.Recorded(),
		SlowLatched:   m.flight.SlowLatched(),
		SlowThreshold: m.flight.Threshold(),
	}
}

// Flight dumps every shard's flight recorder merged by admission time.
func (s *ShardedMonitor) Flight() FlightInfo {
	var out FlightInfo
	for _, sh := range s.shards {
		fi := sh.Flight()
		out.Recent = append(out.Recent, fi.Recent...)
		out.Slow = append(out.Slow, fi.Slow...)
		out.Recorded += fi.Recorded
		out.SlowLatched += fi.SlowLatched
		if fi.SlowThreshold > out.SlowThreshold {
			out.SlowThreshold = fi.SlowThreshold
		}
	}
	sort.Slice(out.Recent, func(i, j int) bool { return out.Recent[i].AdmitNs < out.Recent[j].AdmitNs })
	sort.Slice(out.Slow, func(i, j int) bool { return out.Slow[i].AdmitNs < out.Slow[j].AdmitNs })
	return out
}

// LatencySummary summarizes one windowed latency histogram: recent-window
// quantiles (the last Window worth of samples) plus the cumulative count.
// Quantiles are log2-bucket estimates, within a factor of √2 of the exact
// value (±1 bucket).
type LatencySummary struct {
	// Count and MeanNs cover the recent window.
	Count  uint64
	MeanNs float64
	// P50Ns, P99Ns and P999Ns are recent-window quantile estimates.
	P50Ns, P99Ns, P999Ns float64
	// MaxNs is the largest sample in the recent window, exact.
	MaxNs uint64
	// TotalCount counts samples since start.
	TotalCount uint64
}

// LatencyMetrics is the ingest-to-visibility latency slice of a Metrics
// snapshot.
type LatencyMetrics struct {
	// Applied is admission → engine-applied; Visible is admission →
	// view-publish (the element answerable by queries).
	Applied, Visible LatencySummary
	// Window is the length of the recent window the summaries cover.
	Window time.Duration
	// FlightSpans and SlowSpans count writes recorded by the flight
	// recorder and spans latched as slow; SlowThreshold is the latch bound.
	FlightSpans, SlowSpans uint64
	SlowThreshold          time.Duration
}

// latencySummary builds a LatencySummary from a windowed histogram at nowNs.
func latencySummary(w *obs.WindowedHistogram, nowNs int64) LatencySummary {
	s := w.Snapshot(nowNs)
	return LatencySummary{
		Count:      s.Count,
		MeanNs:     s.MeanNs(),
		P50Ns:      s.QuantileNs(0.50),
		P99Ns:      s.QuantileNs(0.99),
		P999Ns:     s.QuantileNs(0.999),
		MaxNs:      s.MaxNs,
		TotalCount: w.TotalSnapshot().Count,
	}
}

// latencyMetrics assembles the Metrics().Latency block. Lock-free.
func (m *Monitor) latencyMetrics() *LatencyMetrics {
	now := obs.NowNs()
	return &LatencyMetrics{
		Applied:       latencySummary(&m.met.latApplied, now),
		Visible:       latencySummary(&m.met.latVisible, now),
		Window:        m.met.latVisible.Window(),
		FlightSpans:   m.flight.Recorded(),
		SlowSpans:     m.flight.SlowLatched(),
		SlowThreshold: m.flight.Threshold(),
	}
}
