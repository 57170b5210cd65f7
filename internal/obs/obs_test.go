package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		ns     uint64
		bucket int
	}{
		{0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4},
		{1023, 10}, {1024, 11}, {1025, 11},
		{1 << 20, 21},
		{1<<37 - 1, 37},
		{1 << 37, 38},             // first value of the overflow bucket
		{1 << 50, NumBuckets - 1}, // deep overflow clamps
		{math.MaxUint64, NumBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.ns); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.ns, got, c.bucket)
		}
	}
	var h Histogram
	for _, c := range cases {
		h.Record(time.Duration(min64(c.ns, 1<<40)))
	}
	s := h.Snapshot()
	if s.Count != uint64(len(cases)) {
		t.Fatalf("count %d, want %d", s.Count, len(cases))
	}
	// Every recorded value must land at or below its bucket's upper bound.
	for i := 0; i < NumBuckets-1; i++ {
		up := BucketUpperNs(i)
		if lo := BucketUpperNs(i - 1); i > 0 && up <= lo {
			t.Fatalf("bucket bounds not increasing at %d: %v <= %v", i, up, lo)
		}
	}
	if !math.IsInf(BucketUpperNs(NumBuckets-1), 1) {
		t.Fatal("overflow bucket upper bound must be +Inf")
	}
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func TestHistogramNegativeClampsToZero(t *testing.T) {
	var h Histogram
	h.Record(-5 * time.Second)
	s := h.Snapshot()
	if s.Buckets[0] != 1 || s.SumNs != 0 || s.MaxNs != 0 {
		t.Fatalf("negative duration not clamped: %+v", s)
	}
}

func TestQuantileEstimates(t *testing.T) {
	var h Histogram
	// 100 observations of ~1µs, 10 of ~100µs, 1 of ~10ms.
	for i := 0; i < 100; i++ {
		h.Record(1 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Record(100 * time.Microsecond)
	}
	h.Record(10 * time.Millisecond)
	s := h.Snapshot()

	if s.Count != 111 {
		t.Fatalf("count %d", s.Count)
	}
	// The p50 must land in the 1µs bucket: within a factor of 2 of 1000ns.
	p50 := s.QuantileNs(0.50)
	if p50 < 500 || p50 > 2000 {
		t.Errorf("p50 = %v ns, want ~1000", p50)
	}
	// 100/111 ≈ 0.9009, so p90 is still a 1µs observation, p95 is 100µs.
	if p90 := s.QuantileNs(0.90); p90 < 500 || p90 > 2000 {
		t.Errorf("p90 = %v ns, want ~1000", p90)
	}
	if p95 := s.QuantileNs(0.95); p95 < 50_000 || p95 > 200_000 {
		t.Errorf("p95 = %v ns, want ~100000", p95)
	}
	// p100 lands in the 10ms bucket.
	if p100 := s.QuantileNs(1); p100 < 5e6 || p100 > 2e7 {
		t.Errorf("p100 = %v ns, want ~1e7", p100)
	}
	if s.MaxNs != uint64(10*time.Millisecond) {
		t.Errorf("max = %d", s.MaxNs)
	}
	// (100·1e3 + 10·1e5 + 1e7) / 111 = 1e5 exactly.
	if mean := s.MeanNs(); mean != 100_000 {
		t.Errorf("mean = %v ns, want 100000", mean)
	}
	// Degenerate inputs.
	var empty HistSnapshot
	if empty.QuantileNs(0.5) != 0 || empty.MeanNs() != 0 {
		t.Error("empty snapshot quantile/mean not 0")
	}
	if v := s.QuantileNs(-1); v != s.QuantileNs(0) {
		t.Errorf("p<0 not clamped: %v", v)
	}
	if v := s.QuantileNs(2); v != s.QuantileNs(1) {
		t.Errorf("p>1 not clamped: %v", v)
	}
}

// TestConcurrentRecording exercises the package's concurrency contract —
// one recording goroutine, many concurrent readers snapshotting and
// scraping continuously. Run under -race this proves the reader side never
// races the writer, and the final totals prove no update is lost. (The
// contract deliberately excludes concurrent WRITERS: recording uses plain
// atomic load/store pairs, so unserialized writers would lose increments —
// see the package comment.)
func TestConcurrentRecording(t *testing.T) {
	var h Histogram
	var c Counter
	var g Gauge
	const readers = 7
	const total = 40_000
	stop := make(chan struct{})
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					s := h.Snapshot()
					if s.QuantileNs(0.99) < 0 {
						t.Error("negative quantile")
						return
					}
					if s.Count > total {
						t.Errorf("count overshoot: %d", s.Count)
						return
					}
					_ = c.Load()
					_ = g.Load()
				}
			}
		}()
	}
	// Serialized writers with a happens-before edge between them (here:
	// sequential in one goroutine) are the supported recording pattern.
	for i := 0; i < total; i++ {
		h.Record(time.Duration(i % 7000))
		c.Inc()
		g.SetInt(i)
	}
	close(stop)
	rg.Wait()
	if got := h.Snapshot().Count; got != total {
		t.Fatalf("lost observations: %d != %d", got, total)
	}
	if got := c.Load(); got != total {
		t.Fatalf("lost counts: %d != %d", got, total)
	}
}

func TestStageClock(t *testing.T) {
	var h1, h2 Histogram
	// The zero clock is unarmed: Observe must record nothing.
	var c StageClock
	c.Observe(&h1)
	if h1.Count() != 0 {
		t.Fatal("unarmed StageClock recorded an observation")
	}
	c.Reset()
	time.Sleep(2 * time.Millisecond)
	c.Observe(&h1)
	time.Sleep(time.Millisecond)
	c.Observe(&h2)
	s1, s2 := h1.Snapshot(), h2.Snapshot()
	if s1.Count != 1 || s2.Count != 1 {
		t.Fatalf("counts %d/%d, want 1/1", s1.Count, s2.Count)
	}
	// Each stage sees only its own interval, not time since Reset.
	if s1.SumNs < uint64(2*time.Millisecond) {
		t.Errorf("stage 1 recorded %d ns, want >= 2ms", s1.SumNs)
	}
	// No upper-bound assertion: sleeps oversleep arbitrarily under load, so
	// only the lower bound is robust.
	if s2.SumNs < uint64(time.Millisecond) {
		t.Errorf("stage 2 recorded %d ns, want >= 1ms", s2.SumNs)
	}
	// Re-arming restarts the chain.
	c.Reset()
	c.Observe(&h2)
	if got := h2.Snapshot().Count; got != 2 {
		t.Fatalf("count after re-arm %d, want 2", got)
	}
}

// TestRecordAllocs pins the recording hot path at zero allocations.
func TestRecordAllocs(t *testing.T) {
	var h Histogram
	var c Counter
	var g Gauge
	if avg := testing.AllocsPerRun(1000, func() {
		h.Record(1234 * time.Nanosecond)
		c.Inc()
		g.Set(42.5)
	}); avg != 0 {
		t.Fatalf("Record/Inc/Set allocated %.2f allocs/op, want 0", avg)
	}
	t0 := time.Now()
	if avg := testing.AllocsPerRun(1000, func() {
		t0 = h.ObserveSince(t0)
	}); avg != 0 {
		t.Fatalf("ObserveSince allocated %.2f allocs/op, want 0", avg)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	var c Counter
	c.Add(7)
	var g Gauge
	g.Set(3.5)
	var h Histogram
	h.Record(3 * time.Nanosecond) // bucket 2, le (2^2-1)/1e9
	h.Record(1 * time.Microsecond)
	r.RegisterCounter("test_ops_total", "Total ops.", &c)
	r.RegisterGauge("test_level", "Current level.", &g, Label{"kind", "water"})
	r.RegisterGaugeFunc("test_fn", "Computed.", func() float64 { return 9 })
	r.RegisterHistogram("test_latency_seconds", "Stage latency.", &h, Label{"stage", "probe"})

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE test_ops_total counter\n",
		"test_ops_total 7\n",
		"# TYPE test_level gauge\n",
		`test_level{kind="water"} 3.5` + "\n",
		"test_fn 9\n",
		"# TYPE test_latency_seconds histogram\n",
		`test_latency_seconds_bucket{stage="probe",le="+Inf"} 2` + "\n",
		`test_latency_seconds_count{stage="probe"} 2` + "\n",
		`test_latency_seconds_sum{stage="probe"} `,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Cumulative bucket counts must be non-decreasing down the exposition.
	last := -1
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "test_latency_seconds_bucket") {
			var v int
			if _, err := fmtSscanfTail(line, &v); err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			if v < last {
				t.Fatalf("cumulative counts decrease: %q after %d", line, last)
			}
			last = v
		}
	}
	if last != 2 {
		t.Fatalf("final cumulative bucket %d, want 2", last)
	}
}

// fmtSscanfTail parses the integer sample value at the end of a line.
func fmtSscanfTail(line string, v *int) (int, error) {
	i := strings.LastIndexByte(line, ' ')
	n, err := parseInt(line[i+1:])
	*v = n
	return n, err
}

func parseInt(s string) (int, error) {
	n := 0
	for _, r := range s {
		if r < '0' || r > '9' {
			return 0, errBadInt
		}
		n = n*10 + int(r-'0')
	}
	return n, nil
}

var errBadInt = errorString("bad int")

type errorString string

func (e errorString) Error() string { return string(e) }
