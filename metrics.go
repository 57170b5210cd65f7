package pskyline

import (
	"io"
	"math"
	"sync/atomic"
	"time"

	"pskyline/internal/core"
	"pskyline/internal/obs"
	"pskyline/internal/stats"
	"pskyline/internal/wal"
)

// monMetrics is the Monitor's observability block. The engine records the
// stage histograms directly (atomic, allocation-free). Sizes, work counters
// and the stream position are read from the published View, which carries
// them; the few values the View lacks — window fill, the occurrence
// probability sum and the publication stamp — are stored into atomics once
// per view publication, under the writer lock, so exporters and Metrics()
// read a coherent recent state without ever taking m.mu.
type monMetrics struct {
	eng core.Metrics // per-stage latency histograms, recorded by the engine

	enters    obs.Counter // elements entering the q_1-skyline
	leaves    obs.Counter // elements leaving the q_1-skyline
	publishes obs.Counter // view publications

	publishGap obs.Histogram // interval between consecutive publications

	// Ingest-to-visibility latency (Options.Latency): admission → engine
	// applied and admission → view publish, in windowed histograms whose
	// recent quantiles cover the last epoch window rather than process
	// lifetime. Recorded by the write path under m.mu (single writer).
	latApplied obs.WindowedHistogram
	latVisible obs.WindowedHistogram

	// Publish-time state the View does not carry (single writer under m.mu).
	windowFill    atomic.Uint64
	probSumBits   atomic.Uint64 // float64 bits: Σ occurrence prob of pushed elements
	probCount     atomic.Uint64
	lastPublishNs atomic.Int64

	// Durability: the WAL's own counters/histograms (recorded under m.mu,
	// which satisfies their single-writer contract) and checkpoint
	// bookkeeping. Unused when durability is disabled.
	wal       wal.Metrics
	ckpts     obs.Counter // checkpoints installed
	ckptFails obs.Counter // checkpoint attempts that failed
	ckptSeqA  atomic.Uint64

	// qDrops counts elements shed by the async queue's overload policy
	// (recorded under the queue's enqueue mutex — single writer).
	qDrops obs.Counter
}

// publishedLocked stores what the View lacks — window fill and the
// probability sum — and stamps the publication. Callers hold m.mu.
func (mm *monMetrics) publishedLocked(eng *core.Engine, probSum float64, probCount uint64) {
	mm.windowFill.Store(uint64(eng.InWindow()))
	mm.probSumBits.Store(math.Float64bits(probSum))
	mm.probCount.Store(probCount)
	mm.publishes.Inc()
	now := time.Now().UnixNano()
	if prev := mm.lastPublishNs.Swap(now); prev != 0 {
		mm.publishGap.Record(time.Duration(now - prev))
	}
}

// meanProb returns the mean occurrence probability over the elements pushed
// by this process (0 when none were pushed yet).
func (mm *monMetrics) meanProb() float64 {
	n := mm.probCount.Load()
	if n == 0 {
		return 0
	}
	return math.Float64frombits(mm.probSumBits.Load()) / float64(n)
}

// buildRegistry assembles the export registry over the monitor's metrics.
// Called once at construction; every registered source reads atomics or the
// published view, so scrapes never contend with ingestion.
//
// Standalone monitors own a private registry. Multi-tenant hosts
// (StreamRegistry, NewSharded) pass a shared registry plus identifying
// labels (stream="...", shard="..."): series then register as additional
// labeled children of one family per metric name, so a single /metrics
// endpoint exports every stream and shard side by side.
func (m *Monitor) buildRegistry() {
	mm := &m.met
	r := m.opts.sharedReg
	if r == nil {
		r = obs.NewRegistry()
	}
	base := m.opts.metricLabels
	lbl := func(extra ...obs.Label) []obs.Label {
		if len(base) == 0 {
			return extra
		}
		return append(append(make([]obs.Label, 0, len(base)+len(extra)), base...), extra...)
	}
	counter := func(name, help string, c *obs.Counter) { r.RegisterCounter(name, help, c, lbl()...) }
	counterFn := func(name, help string, fn func() float64) { r.RegisterCounterFunc(name, help, fn, lbl()...) }
	gauge := func(name, help string, g *obs.Gauge) { r.RegisterGauge(name, help, g, lbl()...) }
	gaugeFn := func(name, help string, fn func() float64) { r.RegisterGaugeFunc(name, help, fn, lbl()...) }
	hist := func(name, help string, h *obs.Histogram, extra ...obs.Label) {
		r.RegisterHistogram(name, help, h, lbl(extra...)...)
	}
	// Work counters and sizes come from the published view.
	work := func(f func(core.Counters) uint64) func() float64 {
		return func() float64 { return float64(f(m.view.Load().counters)) }
	}
	size := func(f func(Stats) int) func() float64 {
		return func() float64 { return float64(f(m.view.Load().stats)) }
	}

	counterFn("pskyline_pushes_total", "Stream elements ingested.", work(func(c core.Counters) uint64 { return c.Pushes }))
	counterFn("pskyline_expiries_total", "Candidate elements expired out of the window.", work(func(c core.Counters) uint64 { return c.Expiries }))
	counterFn("pskyline_nodes_visited_total", "R-tree entries classified during probes and update traversals.", work(func(c core.Counters) uint64 { return c.NodesVisited }))
	counterFn("pskyline_items_touched_total", "Elements examined or mutated individually.", work(func(c core.Counters) uint64 { return c.ItemsTouched }))
	counterFn("pskyline_lazy_applied_total", "Entry-level lazy multiplications covering whole subtrees.", work(func(c core.Counters) uint64 { return c.LazyApplied }))
	counterFn("pskyline_candidate_removals_total", "Elements dropped from the candidate set before expiry.", work(func(c core.Counters) uint64 { return c.Removals }))
	counterFn("pskyline_band_moves_total", "Element reclassifications between threshold bands.", work(func(c core.Counters) uint64 { return c.Moves }))
	counter("pskyline_skyline_enters_total", "Elements entering the q_1-skyline.", &mm.enters)
	counter("pskyline_skyline_leaves_total", "Elements leaving the q_1-skyline.", &mm.leaves)
	counter("pskyline_view_publishes_total", "Read view publications.", &mm.publishes)

	gaugeFn("pskyline_candidates", "Current candidate set size |S_{N,q_k}|.", size(func(s Stats) int { return s.Candidates }))
	gaugeFn("pskyline_skyline_size", "Current q_1-skyline size |SKY_{N,q_1}|.", size(func(s Stats) int { return s.Skyline }))
	gaugeFn("pskyline_candidates_max", "Maximum candidate set size observed.", size(func(s Stats) int { return s.MaxCandidates }))
	gaugeFn("pskyline_skyline_max", "Maximum q_1-skyline size observed.", size(func(s Stats) int { return s.MaxSkyline }))
	gaugeFn("pskyline_window_fill", "Stream elements currently inside the sliding window.", func() float64 { return float64(mm.windowFill.Load()) })
	gaugeFn("pskyline_mean_occurrence_prob", "Mean occurrence probability of pushed elements.", mm.meanProb)
	gaugeFn("pskyline_publish_age_seconds", "Seconds since the last view publication.", func() float64 {
		last := mm.lastPublishNs.Load()
		if last == 0 {
			return 0
		}
		return float64(time.Now().UnixNano()-last) / 1e9
	})
	gaugeFn("pskyline_threshold_max", "Largest maintained threshold q_1.", func() float64 {
		ths := m.view.Load().thresholds
		return ths[0]
	})
	gaugeFn("pskyline_threshold_min", "Smallest maintained threshold q_k.", func() float64 {
		ths := m.view.Load().thresholds
		return ths[len(ths)-1]
	})
	gaugeFn("pskyline_theory_skyline_bound",
		"Theorem 7 upper bound on E(|SKY_{N,q_1}|) at the observed window fill and mean probability.",
		m.theorySkylineBound)
	gaugeFn("pskyline_theory_candidate_bound",
		"Theorem 8 upper bound on E(|S_{N,q_k}|) at the observed window fill and mean probability.",
		m.theoryCandidateBound)

	for _, st := range mm.eng.StageHistograms() {
		hist("pskyline_stage_seconds",
			"Per-stage latency of the arrival/expiry pipeline.",
			st.Hist, obs.Label{Key: "stage", Value: st.Name})
	}
	hist("pskyline_publish_interval_seconds",
		"Interval between consecutive view publications.", &mm.publishGap)

	r.RegisterWindowed("pskyline_ingest_apply_latency_seconds",
		"Admission-to-engine-applied latency over the recent window (quantiles) and process lifetime (sum/count).",
		&mm.latApplied, lbl()...)
	r.RegisterWindowed("pskyline_visibility_latency_seconds",
		"Admission-to-view-publish latency over the recent window (quantiles) and process lifetime (sum/count).",
		&mm.latVisible, lbl()...)
	counterFn("pskyline_flight_spans_total", "Write operations recorded by the flight recorder.",
		func() float64 { return float64(m.flight.Recorded()) })
	counterFn("pskyline_flight_slow_total", "Flight spans at or above the slow threshold.",
		func() float64 { return float64(m.flight.SlowLatched()) })

	if m.aq != nil {
		q := m.aq
		counter("pskyline_queue_dropped_total", "Elements shed by the async queue's overload policy.", &mm.qDrops)
		gaugeFn("pskyline_queue_depth", "Elements waiting in the async ingestion queue.", func() float64 { return float64(len(q.ch)) })
		gaugeFn("pskyline_queue_capacity", "Capacity of the async ingestion queue.", func() float64 { return float64(cap(q.ch)) })
	}

	if m.wal != nil {
		wm := &mm.wal
		counter("pskyline_wal_appends_total", "Elements appended to the write-ahead log.", &wm.Appends)
		counterFn("pskyline_wal_appended_bytes_total", "Bytes appended to the write-ahead log.", func() float64 { return float64(wm.AppendedBytes.Load()) })
		counter("pskyline_wal_commits_total", "WAL group commits (one per push or ingested batch).", &wm.Commits)
		counter("pskyline_wal_fsyncs_total", "WAL fsync syscalls.", &wm.Fsyncs)
		counter("pskyline_wal_rotations_total", "WAL segment rotations.", &wm.Rotations)
		counter("pskyline_wal_gc_segments_total", "WAL segments removed by garbage collection.", &wm.GCSegments)
		gauge("pskyline_wal_segments", "Live WAL segment count.", &wm.Segments)
		gauge("pskyline_wal_size_bytes", "Total on-disk size of the write-ahead log.", &wm.SizeBytes)
		gauge("pskyline_wal_state", "Durability health state (0 healthy, 1 retrying, 2 degraded, 3 detached).", &wm.State)
		counter("pskyline_wal_write_errors_total", "Durability failures observed (including failed retry attempts).", &wm.WriteErrors)
		counter("pskyline_wal_retries_total", "WAL recovery attempts under the retry policy.", &wm.Retries)
		counter("pskyline_wal_dropped_records_total", "Records shed while the WAL was degraded.", &wm.DroppedRecords)
		counter("pskyline_wal_dropped_bytes_total", "Bytes shed while the WAL was degraded.", &wm.DroppedBytes)
		counter("pskyline_wal_reattaches_total", "Successful recoveries from degraded back to healthy.", &wm.Reattaches)
		counter("pskyline_checkpoints_total", "Checkpoints installed.", &mm.ckpts)
		counter("pskyline_checkpoint_failures_total", "Checkpoint attempts that failed.", &mm.ckptFails)
		gaugeFn("pskyline_checkpoint_seq", "Stream position of the newest installed checkpoint.", func() float64 { return float64(mm.ckptSeqA.Load()) })
		gaugeFn("pskyline_recovery_replayed_records", "WAL records re-ingested by the last recovery.", func() float64 { return float64(m.recovery.Replayed) })
		gaugeFn("pskyline_recovery_truncated_bytes", "Torn WAL bytes discarded by the last recovery.", func() float64 { return float64(m.recovery.TruncatedBytes) })
		for _, st := range []struct {
			name string
			h    *obs.Histogram
		}{{"wal_append", &wm.AppendLatency}, {"wal_commit", &wm.CommitLatency}, {"wal_fsync", &wm.FsyncLatency}} {
			hist("pskyline_stage_seconds",
				"Per-stage latency of the arrival/expiry pipeline.",
				st.h, obs.Label{Key: "stage", Value: st.name})
		}
	}

	m.reg = r
}

// theorySkylineBound evaluates the paper's Theorem 7 expectation bound on
// the q_1-skyline size at the currently observed window fill and mean
// occurrence probability. Comparing it against pskyline_skyline_size on a
// dashboard makes drift from the paper's poly-logarithmic expectation
// visible live. Returns 0 until elements have been pushed.
func (m *Monitor) theorySkylineBound() float64 {
	n := int(m.met.windowFill.Load())
	p := m.met.meanProb()
	if n == 0 || p <= 0 {
		return 0
	}
	q1 := m.view.Load().thresholds[0]
	return stats.ExpectedSkylineUpper(n, m.dims, p, q1)
}

// theoryCandidateBound is the Theorem 8 analogue for the candidate set size
// at the smallest maintained threshold q_k.
func (m *Monitor) theoryCandidateBound() float64 {
	n := int(m.met.windowFill.Load())
	p := m.met.meanProb()
	if n == 0 || p <= 0 {
		return 0
	}
	ths := m.view.Load().thresholds
	return stats.ExpectedCandidateUpper(n, m.dims, p, ths[len(ths)-1])
}

// StageLatency summarizes one pipeline stage's latency histogram.
type StageLatency struct {
	// Stage names the pipeline stage: expire, probe, update_old, place,
	// apply.
	Stage string
	// Count is the number of recorded stage executions.
	Count uint64
	// MeanNs, P50Ns and P99Ns are estimates in nanoseconds (quantiles are
	// log2-bucket estimates, within a factor of two).
	MeanNs, P50Ns, P99Ns float64
	// MaxNs is the largest recorded stage execution, exact.
	MaxNs uint64
}

// Metrics is a point-in-time observability snapshot of the Monitor:
// sizes, work counters, skyline churn, per-stage latency summaries, view
// publication statistics and the paper's analytical size bounds evaluated
// at the observed workload parameters.
type Metrics struct {
	// Stats are the size statistics as of the last published view.
	Stats Stats
	// Counters are the engine work counters as of the last published view.
	Counters core.Counters
	// SkylineEnters and SkylineLeaves count q_1-skyline transitions.
	SkylineEnters, SkylineLeaves uint64
	// ViewPublishes counts read view publications; LastPublish is the time
	// of the most recent one.
	ViewPublishes uint64
	LastPublish   time.Time
	// WindowFill is the number of elements currently inside the window.
	WindowFill int
	// MeanProb is the mean occurrence probability of pushed elements.
	MeanProb float64
	// TheorySkylineBound and TheoryCandidateBound are the Theorem 7/8
	// expectation bounds evaluated at (WindowFill, dims, MeanProb) and the
	// maintained thresholds — the live version of the paper's size check.
	TheorySkylineBound, TheoryCandidateBound float64
	// Stages are the per-stage latency summaries in pipeline order
	// (including the wal_append/wal_commit/wal_fsync stages when durability
	// is enabled).
	Stages []StageLatency
	// QueueDepth and QueueCapacity describe the async ingestion queue
	// (both zero without one); QueueDropped counts elements shed by its
	// overload policy.
	QueueDepth    int
	QueueCapacity int
	QueueDropped  uint64
	// Latency reports ingest-to-visibility latency over the recent window
	// and the flight recorder's counters. Never nil for a Monitor.
	Latency *LatencyMetrics
	// WAL reports the durability subsystem; nil when durability is disabled.
	WAL *WALMetrics
}

// WALMetrics is the durability subsystem's slice of a Metrics snapshot.
type WALMetrics struct {
	// Appends and AppendedBytes count logged elements and their on-disk
	// size; Commits counts group commits and Fsyncs actual fsync syscalls.
	Appends, AppendedBytes, Commits, Fsyncs uint64
	// Rotations and GCSegments count segment lifecycle events; Segments and
	// SizeBytes are the current log extent.
	Rotations, GCSegments uint64
	Segments              int
	SizeBytes             int64
	// Checkpoints and CheckpointFailures count installation attempts;
	// CheckpointSeq is the newest installed checkpoint's stream position.
	Checkpoints, CheckpointFailures uint64
	CheckpointSeq                   uint64
	// State is the durability health state ("healthy", "retrying",
	// "degraded" or "detached"); LastFault describes the most recent
	// durability failure ("" while none occurred).
	State     string
	LastFault string
	// WriteErrors counts durability failures observed (including each
	// failed retry attempt); Retries counts recovery attempts under the
	// retry policy.
	WriteErrors, Retries uint64
	// DroppedRecords and DroppedBytes count records shed while degraded;
	// Reattaches counts successful degraded→healthy recoveries.
	DroppedRecords, DroppedBytes, Reattaches uint64
	// Recovery reports what Open found and repaired.
	Recovery RecoveryInfo
}

// Metrics returns an observability snapshot. Like the query methods it is
// lock-free: it reads the atomic metrics and the published view and never
// contends with ingestion.
func (m *Monitor) Metrics() Metrics {
	mm := &m.met
	v := m.view.Load()
	out := Metrics{
		Stats:                v.Stats(),
		Counters:             v.Counters(),
		SkylineEnters:        mm.enters.Load(),
		SkylineLeaves:        mm.leaves.Load(),
		ViewPublishes:        mm.publishes.Load(),
		WindowFill:           int(mm.windowFill.Load()),
		MeanProb:             mm.meanProb(),
		TheorySkylineBound:   m.theorySkylineBound(),
		TheoryCandidateBound: m.theoryCandidateBound(),
	}
	if ns := mm.lastPublishNs.Load(); ns != 0 {
		out.LastPublish = time.Unix(0, ns)
	}
	if m.aq != nil {
		out.QueueDepth = len(m.aq.ch)
		out.QueueCapacity = cap(m.aq.ch)
		out.QueueDropped = mm.qDrops.Load()
	}
	out.Latency = m.latencyMetrics()
	for _, st := range mm.eng.StageHistograms() {
		s := st.Hist.Snapshot()
		out.Stages = append(out.Stages, StageLatency{
			Stage:  st.Name,
			Count:  s.Count,
			MeanNs: s.MeanNs(),
			P50Ns:  s.QuantileNs(0.50),
			P99Ns:  s.QuantileNs(0.99),
			MaxNs:  s.MaxNs,
		})
	}
	if m.wal != nil {
		wm := &mm.wal
		out.WAL = &WALMetrics{
			Appends:            wm.Appends.Load(),
			AppendedBytes:      wm.AppendedBytes.Load(),
			Commits:            wm.Commits.Load(),
			Fsyncs:             wm.Fsyncs.Load(),
			Rotations:          wm.Rotations.Load(),
			GCSegments:         wm.GCSegments.Load(),
			Segments:           int(wm.Segments.Load()),
			SizeBytes:          int64(wm.SizeBytes.Load()),
			State:              m.wal.State().String(),
			WriteErrors:        wm.WriteErrors.Load(),
			Retries:            wm.Retries.Load(),
			DroppedRecords:     wm.DroppedRecords.Load(),
			DroppedBytes:       wm.DroppedBytes.Load(),
			Reattaches:         wm.Reattaches.Load(),
			Checkpoints:        mm.ckpts.Load(),
			CheckpointFailures: mm.ckptFails.Load(),
			CheckpointSeq:      mm.ckptSeqA.Load(),
			Recovery:           m.recovery,
		}
		if err := m.wal.LastFault(); err != nil {
			out.WAL.LastFault = err.Error()
		}
		for _, st := range []struct {
			name string
			h    *obs.Histogram
		}{{"wal_append", &wm.AppendLatency}, {"wal_commit", &wm.CommitLatency}, {"wal_fsync", &wm.FsyncLatency}} {
			s := st.h.Snapshot()
			out.Stages = append(out.Stages, StageLatency{
				Stage:  st.name,
				Count:  s.Count,
				MeanNs: s.MeanNs(),
				P50Ns:  s.QuantileNs(0.50),
				P99Ns:  s.QuantileNs(0.99),
				MaxNs:  s.MaxNs,
			})
		}
	}
	return out
}

// WritePrometheus renders the Monitor's metrics in the Prometheus text
// exposition format: stage latency histograms, work and churn counters,
// size gauges and the Theorem 7/8 bound gauges. It is lock-free with
// respect to ingestion and safe to call from any goroutine (an HTTP
// /metrics handler, typically).
func (m *Monitor) WritePrometheus(w io.Writer) error {
	return m.reg.WritePrometheus(w)
}

// WriteMetricsJSON renders the same metrics as one expvar-style JSON
// object (histograms as {count, mean_ns, p50_ns, ...} summaries with raw
// log2 buckets). Lock-free, like WritePrometheus.
func (m *Monitor) WriteMetricsJSON(w io.Writer) error {
	return m.reg.WriteJSON(w)
}
