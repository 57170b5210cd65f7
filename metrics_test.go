package pskyline_test

import (
	"bytes"
	"io"
	"slices"
	"sort"
	"strings"
	"testing"

	"pskyline"
	"pskyline/internal/repl"
)

// TestMonitorMetricsSnapshot drives a window's worth of churn through a
// Monitor and checks the observability snapshot against the ground truth
// the query API reports.
func TestMonitorMetricsSnapshot(t *testing.T) {
	const n = 4000
	m := mustMonitor(t, pskyline.Options{
		Dims: 3, Window: 512, Thresholds: []float64{0.3},
	})
	defer m.Close()
	for _, e := range genElements(17, n, 3, true) {
		if _, err := m.Push(e); err != nil {
			t.Fatal(err)
		}
	}

	met := m.Metrics()
	if met.Stats != m.Stats() {
		t.Errorf("Metrics().Stats = %+v, Stats() = %+v", met.Stats, m.Stats())
	}
	if met.Counters != m.Counters() {
		t.Errorf("Metrics().Counters = %+v, Counters() = %+v", met.Counters, m.Counters())
	}
	if met.Counters.Pushes != n {
		t.Errorf("Pushes = %d, want %d", met.Counters.Pushes, n)
	}
	if met.SkylineEnters == 0 {
		t.Error("no skyline enters over an anti-correlated stream")
	}
	// Every element currently in the skyline entered and has not left:
	// churn must reconcile with the reported size.
	if got := int(met.SkylineEnters - met.SkylineLeaves); got != met.Stats.Skyline {
		t.Errorf("enters-leaves = %d, skyline size = %d", got, met.Stats.Skyline)
	}
	if met.ViewPublishes < n {
		t.Errorf("ViewPublishes = %d, want >= %d (one per synchronous Push)", met.ViewPublishes, n)
	}
	if met.WindowFill != 512 {
		t.Errorf("WindowFill = %d, want 512", met.WindowFill)
	}
	if met.MeanProb <= 0 || met.MeanProb > 1 {
		t.Errorf("MeanProb = %v out of (0,1]", met.MeanProb)
	}
	if met.TheorySkylineBound <= 0 || met.TheoryCandidateBound <= 0 {
		t.Errorf("theory bounds not evaluated: sky=%v cand=%v",
			met.TheorySkylineBound, met.TheoryCandidateBound)
	}
	if met.LastPublish.IsZero() {
		t.Error("LastPublish is zero")
	}
	if len(met.Stages) != 5 {
		t.Fatalf("got %d stage summaries, want 5", len(met.Stages))
	}
	for _, st := range met.Stages {
		if st.Count == 0 {
			t.Errorf("stage %s recorded nothing", st.Stage)
		}
		if st.Count > 0 && (st.P50Ns <= 0 || st.MaxNs == 0) {
			t.Errorf("stage %s: degenerate latency summary %+v", st.Stage, st)
		}
	}
}

// TestTraceRing checks the bounded structured trace: depth, ordering,
// direction flags and payload sanity, including after the ring wraps.
func TestTraceRing(t *testing.T) {
	const depth = 256 // the trace ring's fixed capacity
	m := mustMonitor(t, pskyline.Options{
		Dims: 2, Window: 128, Thresholds: []float64{0.3},
	})
	defer m.Close()
	for _, e := range genElements(23, 2000, 2, true) {
		if _, err := m.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	met := m.Metrics()
	if met.SkylineEnters+met.SkylineLeaves <= depth {
		t.Fatalf("only %d transitions, need > %d to exercise wrap",
			met.SkylineEnters+met.SkylineLeaves, depth)
	}
	tr := m.Trace()
	if len(tr) != depth {
		t.Fatalf("Trace() returned %d events, want %d after wrap", len(tr), depth)
	}
	for i, ev := range tr {
		if i > 0 && ev.Processed < tr[i-1].Processed {
			t.Errorf("trace not oldest-first at %d: %d < %d", i, ev.Processed, tr[i-1].Processed)
		}
		if len(ev.Point) != 2 {
			t.Errorf("event %d: point has %d dims, want 2", i, len(ev.Point))
		}
		if ev.Prob <= 0 || ev.Prob > 1 {
			t.Errorf("event %d: prob %v out of (0,1]", i, ev.Prob)
		}
		if ev.Psky < 0 || ev.Psky > 1 {
			t.Errorf("event %d: psky %v out of [0,1]", i, ev.Psky)
		}
		if ev.Entered != (ev.ToBand == 0) {
			t.Errorf("event %d: Entered=%v but ToBand=%d", i, ev.Entered, ev.ToBand)
		}
		if ev.At.IsZero() {
			t.Errorf("event %d: zero timestamp", i)
		}
	}
}

// TestMonitorExporters scrapes a live Monitor through both exporters and
// checks the key series are present and well-formed.
func TestMonitorExporters(t *testing.T) {
	m := mustMonitor(t, pskyline.Options{
		Dims: 2, Window: 256, Thresholds: []float64{0.5, 0.3},
	})
	defer m.Close()
	for _, e := range genElements(29, 1000, 2, true) {
		if _, err := m.Push(e); err != nil {
			t.Fatal(err)
		}
	}

	var prom bytes.Buffer
	if err := m.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	text := prom.String()
	for _, want := range []string{
		"# TYPE pskyline_pushes_total counter",
		"pskyline_pushes_total 1000",
		"# TYPE pskyline_stage_seconds histogram",
		`pskyline_stage_seconds_bucket{stage="probe",le="+Inf"}`,
		`pskyline_stage_seconds_bucket{stage="expire",le="+Inf"}`,
		"pskyline_skyline_enters_total",
		"pskyline_candidates ",
		"pskyline_theory_skyline_bound",
		"pskyline_theory_candidate_bound",
		"pskyline_threshold_max 0.5",
		"pskyline_threshold_min 0.3",
		"pskyline_window_fill 256",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Prometheus output missing %q", want)
		}
	}

}

// typeLines returns the sorted "# TYPE <name> <type>" lines of a Prometheus
// exposition, one per exported family.
func typeLines(t *testing.T, write func(io.Writer) error) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, l := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(l, "# TYPE ") {
			out = append(out, strings.TrimPrefix(l, "# TYPE "))
		}
	}
	sort.Strings(out)
	return out
}

// TestExportedSeriesGolden pins the set of exported series and their types:
// a durable monitor with an async queue, the same directory reopened from
// its checkpoint, and the replication server's block. A series that is
// renamed, changes type, or goes missing after a restore fails here.
func TestExportedSeriesGolden(t *testing.T) {
	wantMonitor := []string{
		"pskyline_band_moves_total counter",
		"pskyline_candidate_removals_total counter",
		"pskyline_candidates gauge",
		"pskyline_candidates_max gauge",
		"pskyline_checkpoint_failures_total counter",
		"pskyline_checkpoint_seq gauge",
		"pskyline_checkpoints_total counter",
		"pskyline_expiries_total counter",
		"pskyline_flight_slow_total counter",
		"pskyline_flight_spans_total counter",
		"pskyline_ingest_apply_latency_seconds summary",
		"pskyline_items_touched_total counter",
		"pskyline_lazy_applied_total counter",
		"pskyline_mean_occurrence_prob gauge",
		"pskyline_nodes_visited_total counter",
		"pskyline_publish_age_seconds gauge",
		"pskyline_publish_interval_seconds histogram",
		"pskyline_pushes_total counter",
		"pskyline_queue_capacity gauge",
		"pskyline_queue_depth gauge",
		"pskyline_queue_dropped_total counter",
		"pskyline_recovery_replayed_records gauge",
		"pskyline_recovery_truncated_bytes gauge",
		"pskyline_skyline_enters_total counter",
		"pskyline_skyline_leaves_total counter",
		"pskyline_skyline_max gauge",
		"pskyline_skyline_size gauge",
		"pskyline_stage_seconds histogram",
		"pskyline_theory_candidate_bound gauge",
		"pskyline_theory_skyline_bound gauge",
		"pskyline_threshold_max gauge",
		"pskyline_threshold_min gauge",
		"pskyline_view_publishes_total counter",
		"pskyline_visibility_latency_seconds summary",
		"pskyline_wal_appended_bytes_total counter",
		"pskyline_wal_appends_total counter",
		"pskyline_wal_commits_total counter",
		"pskyline_wal_dropped_bytes_total counter",
		"pskyline_wal_dropped_records_total counter",
		"pskyline_wal_fsyncs_total counter",
		"pskyline_wal_gc_segments_total counter",
		"pskyline_wal_reattaches_total counter",
		"pskyline_wal_retries_total counter",
		"pskyline_wal_rotations_total counter",
		"pskyline_wal_segments gauge",
		"pskyline_wal_size_bytes gauge",
		"pskyline_wal_state gauge",
		"pskyline_wal_write_errors_total counter",
		"pskyline_window_fill gauge",
	}
	wantRepl := []string{
		"pskyline_repl_checkpoint_sends_total counter",
		"pskyline_repl_epoch gauge",
		"pskyline_repl_follower_applied_seq gauge",
		"pskyline_repl_follower_lag_seconds gauge",
		"pskyline_repl_follower_lag_seq gauge",
		"pskyline_repl_followers gauge",
		"pskyline_repl_quorum_acked_seq gauge",
		"pskyline_repl_rejects_total counter",
		"pskyline_repl_semisync_degrades_total counter",
		"pskyline_repl_semisync_k gauge",
		"pskyline_repl_semisync_shortfalls_total counter",
		"pskyline_repl_semisync_upgrades_total counter",
		"pskyline_repl_semisync_wait_timeouts_total counter",
		"pskyline_repl_semisync_waits_total counter",
		"pskyline_repl_sync_state gauge",
	}

	opt := pskyline.Options{
		Dims: 2, Window: 64, Thresholds: []float64{0.3}, AsyncQueue: 16,
		Durability: pskyline.Durability{Dir: t.TempDir(), Fsync: "never", CheckpointEvery: -1},
	}
	m, err := pskyline.Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.PushBatch(genElements(31, 200, 2, false)); err != nil {
		t.Fatal(err)
	}
	m.Drain()
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := typeLines(t, m.WritePrometheus); !slices.Equal(got, wantMonitor) {
		t.Errorf("durable async monitor exports:\n%s", strings.Join(got, "\n"))
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m, err = pskyline.Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if !m.Recovery().Recovered || m.Recovery().CheckpointSeq == 0 {
		t.Fatalf("reopen did not restore the checkpoint: %+v", m.Recovery())
	}
	if got := typeLines(t, m.WritePrometheus); !slices.Equal(got, wantMonitor) {
		t.Errorf("monitor reopened from its checkpoint exports:\n%s", strings.Join(got, "\n"))
	}

	srv, err := repl.NewServer(m, "127.0.0.1:0", repl.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if got := typeLines(t, srv.WritePrometheus); !slices.Equal(got, wantRepl) {
		t.Errorf("replication server exports:\n%s", strings.Join(got, "\n"))
	}
}
