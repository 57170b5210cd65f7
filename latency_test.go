package pskyline_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"pskyline"
)

func genLatencyElements(seed int64, n, dims int) []pskyline.Element {
	r := rand.New(rand.NewSource(seed))
	els := make([]pskyline.Element, n)
	for i := range els {
		pt := make([]float64, dims)
		for d := range pt {
			pt[d] = r.Float64() * 10
		}
		els[i] = pskyline.Element{Point: pt, Prob: 0.2 + 0.8*r.Float64(), TS: int64(i)}
	}
	return els
}

// checkSpanShape verifies one flight span's internal arithmetic: the phase
// durations must be non-negative and partition the total.
func checkSpanShape(t *testing.T, fi pskyline.FlightInfo) {
	t.Helper()
	for _, sp := range fi.Recent {
		if sp.Batch <= 0 {
			t.Fatalf("span seq %d: batch %d", sp.Seq, sp.Batch)
		}
		if sp.WaitNs < 0 || sp.ApplyNs < 0 || sp.PublishNs < 0 {
			t.Fatalf("span seq %d: negative phase (wait %d apply %d publish %d)",
				sp.Seq, sp.WaitNs, sp.ApplyNs, sp.PublishNs)
		}
		if sp.WaitNs+sp.ApplyNs+sp.PublishNs != sp.TotalNs {
			t.Fatalf("span seq %d: phases %d+%d+%d != total %d",
				sp.Seq, sp.WaitNs, sp.ApplyNs, sp.PublishNs, sp.TotalNs)
		}
		var stages int64
		for _, s := range sp.StageNs {
			if s < 0 {
				t.Fatalf("span seq %d: negative stage time %d", sp.Seq, s)
			}
			stages += s
		}
		if stages > sp.TotalNs {
			t.Fatalf("span seq %d: engine stages %dns exceed the whole span %dns",
				sp.Seq, stages, sp.TotalNs)
		}
	}
}

// TestLatencyTrackingSync drives a plain synchronous monitor and checks that
// admission-to-visibility latency lands in the windowed histograms and the
// flight recorder.
func TestLatencyTrackingSync(t *testing.T) {
	m, err := pskyline.NewMonitor(pskyline.Options{
		Dims: 3, Window: 256, Thresholds: []float64{0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	els := genLatencyElements(11, 600, 3)
	for i := range els {
		if _, err := m.Push(els[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.PushBatch(els[:100]); err != nil {
		t.Fatal(err)
	}

	lm := m.Metrics().Latency
	if lm == nil {
		t.Fatal("Metrics().Latency is nil with tracking enabled by default")
	}
	if lm.Visible.Count == 0 || lm.Applied.Count == 0 {
		t.Fatalf("no recent latency samples: applied %d visible %d", lm.Applied.Count, lm.Visible.Count)
	}
	if lm.Visible.TotalCount != 700 {
		t.Fatalf("visible total count = %d, want 700", lm.Visible.TotalCount)
	}
	if lm.Visible.P50Ns <= 0 || lm.Visible.P999Ns < lm.Visible.P50Ns {
		t.Fatalf("implausible visible quantiles: p50 %v p999 %v", lm.Visible.P50Ns, lm.Visible.P999Ns)
	}
	if lm.Window <= 0 {
		t.Fatalf("window length %v", lm.Window)
	}

	fi := m.Flight()
	if len(fi.Recent) == 0 || fi.Recorded != 601 { // 600 pushes + 1 batch
		t.Fatalf("flight recorder: %d recent, %d recorded (want 601)", len(fi.Recent), fi.Recorded)
	}
	checkSpanShape(t, fi)
	last := fi.Recent[len(fi.Recent)-1]
	if last.Batch != 100 || last.Shard != -1 || last.Queue != -1 {
		t.Fatalf("batch span: batch %d shard %d queue %d, want 100/-1/-1", last.Batch, last.Shard, last.Queue)
	}

	// The windowed summaries export as Prometheus summary series.
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`pskyline_visibility_latency_seconds{quantile="0.99"}`,
		`pskyline_ingest_apply_latency_seconds{quantile="0.5"}`,
		"pskyline_visibility_latency_seconds_count 700",
		"pskyline_flight_spans_total 601",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("Prometheus output missing %q:\n%s", want, buf.String())
		}
	}
}

// TestLatencyTrackingAsync checks that queued elements' latency includes
// queue residency and that flight spans carry the backlog depth.
func TestLatencyTrackingAsync(t *testing.T) {
	m, err := pskyline.NewMonitor(pskyline.Options{
		Dims: 2, Window: 128, Thresholds: []float64{0.3},
		AsyncQueue: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	els := genLatencyElements(12, 300, 2)
	for i := range els {
		if _, err := m.Push(els[i]); err != nil {
			t.Fatal(err)
		}
	}
	m.Drain()

	lm := m.Metrics().Latency
	if lm == nil || lm.Visible.TotalCount != 300 {
		t.Fatalf("async visible total = %+v, want 300 samples", lm)
	}
	fi := m.Flight()
	if fi.Recorded == 0 {
		t.Fatal("no flight spans recorded on the async path")
	}
	checkSpanShape(t, fi)
	for _, sp := range fi.Recent {
		if sp.Queue < 0 {
			t.Fatalf("async span seq %d: queue depth %d, want >= 0", sp.Seq, sp.Queue)
		}
	}
}

// TestLatencyTrackingSharded checks admission stamping through the sharded
// front end: per-shard histograms fill, and the merged flight dump carries
// shard indices and is ordered by admission time.
func TestLatencyTrackingSharded(t *testing.T) {
	for _, async := range []int{0, 32} {
		s, err := pskyline.NewSharded(pskyline.ShardedOptions{
			Options: pskyline.Options{
				Dims: 2, Window: 128, Thresholds: []float64{0.3},
				AsyncQueue: async,
			},
			Shards: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		els := genLatencyElements(13, 200, 2)
		for i := range els[:100] {
			if _, err := s.Push(els[i]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.PushBatch(els[100:]); err != nil {
			t.Fatal(err)
		}
		s.Drain()

		var total uint64
		for i := 0; i < s.NumShards(); i++ {
			lm := s.Shard(i).Metrics().Latency
			if lm == nil {
				t.Fatalf("async=%d shard %d: nil latency metrics", async, i)
			}
			total += lm.Visible.TotalCount
		}
		if total != 200 {
			t.Fatalf("async=%d: visible samples across shards = %d, want 200", async, total)
		}

		fi := s.Flight()
		if fi.Recorded == 0 || len(fi.Recent) == 0 {
			t.Fatalf("async=%d: empty merged flight dump", async)
		}
		checkSpanShape(t, fi)
		for i, sp := range fi.Recent {
			if sp.Shard < 0 || int(sp.Shard) >= s.NumShards() {
				t.Fatalf("async=%d: span shard index %d out of range", async, sp.Shard)
			}
			if i > 0 && sp.AdmitNs < fi.Recent[i-1].AdmitNs {
				t.Fatalf("async=%d: merged flight dump out of admission order at %d", async, i)
			}
		}

		// The shared registry exports per-shard labeled summaries.
		var buf bytes.Buffer
		if err := s.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), `pskyline_visibility_latency_seconds{shard="1",quantile="0.99"}`) {
			t.Fatalf("async=%d: missing per-shard visibility summary:\n%s", async, buf.String())
		}
		s.Close()
	}
}

// TestLatencyAfterRestore: a monitor recovered by Open from a checkpoint and
// one built by RestoreMonitor are instrumented exactly like a fresh one —
// latency metrics, flight spans and the visibility summary — and a negative
// AsyncQueue is rejected on every construction path.
func TestLatencyAfterRestore(t *testing.T) {
	opt := pskyline.Options{
		Dims: 2, Window: 64, Thresholds: []float64{0.3},
		Durability: pskyline.Durability{Dir: t.TempDir(), Fsync: "never", CheckpointEvery: -1},
	}
	els := genLatencyElements(21, 200, 2)
	m, err := pskyline.Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range els[:100] {
		if _, err := m.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	var ckpt bytes.Buffer
	if err := m.Snapshot(&ckpt); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	ckptBytes := ckpt.Bytes()

	reopened, err := pskyline.Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.Recovery().CheckpointSeq == 0 {
		t.Fatalf("reopen did not restore the checkpoint: %+v", reopened.Recovery())
	}
	plain := opt
	plain.Durability = pskyline.Durability{}
	restored, err := pskyline.RestoreMonitor(bytes.NewReader(ckptBytes), plain)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	for name, r := range map[string]*pskyline.Monitor{"Open": reopened, "RestoreMonitor": restored} {
		for _, e := range els[100:] {
			if _, err := r.Push(e); err != nil {
				t.Fatal(err)
			}
		}
		lm := r.Metrics().Latency
		if lm == nil || lm.Visible.TotalCount != 100 {
			t.Errorf("%s: Metrics().Latency = %+v, want 100 visible samples", name, lm)
		}
		if fi := r.Flight(); fi.Recorded != 100 {
			t.Errorf("%s: flight recorder holds %d spans, want 100", name, fi.Recorded)
		}
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "pskyline_visibility_latency_seconds_count 100") {
			t.Errorf("%s: visibility summary missing from the exposition", name)
		}
	}

	bad := opt
	bad.AsyncQueue = -1
	_, restoredErr := pskyline.Open(bad)
	bad.Durability.Dir = t.TempDir()
	_, freshErr := pskyline.Open(bad)
	if restoredErr == nil || freshErr == nil || restoredErr.Error() != freshErr.Error() {
		t.Errorf("AsyncQueue=-1: Open with a checkpoint returned %v, on a fresh directory %v", restoredErr, freshErr)
	}
	plain.AsyncQueue = -1
	if _, err := pskyline.RestoreMonitor(bytes.NewReader(ckptBytes), plain); err == nil {
		t.Error("AsyncQueue=-1: RestoreMonitor accepted it")
	}
}

// TestLatencySlowLatch pins the slow-span latch: with a zero-distance
// threshold every write latches; with a generous one, none do.
func TestLatencySlowLatch(t *testing.T) {
	m, err := pskyline.NewMonitor(pskyline.Options{
		Dims: 2, Window: 64, Thresholds: []float64{0.3},
		Latency: pskyline.LatencyOptions{SlowThreshold: time.Nanosecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, e := range genLatencyElements(15, 50, 2) {
		if _, err := m.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	fi := m.Flight()
	if fi.SlowLatched != 50 || len(fi.Slow) == 0 {
		t.Fatalf("1ns threshold latched %d of 50 writes (%d in ring)", fi.SlowLatched, len(fi.Slow))
	}
	if fi.SlowThreshold != time.Nanosecond {
		t.Fatalf("threshold = %v, want 1ns", fi.SlowThreshold)
	}

	m2, err := pskyline.NewMonitor(pskyline.Options{
		Dims: 2, Window: 64, Thresholds: []float64{0.3},
		Latency: pskyline.LatencyOptions{SlowThreshold: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	for _, e := range genLatencyElements(16, 50, 2) {
		if _, err := m2.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	if fi := m2.Flight(); fi.SlowLatched != 0 {
		t.Fatalf("1h threshold latched %d writes, want 0", fi.SlowLatched)
	}
}
