package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestWindowedHistogramRotation(t *testing.T) {
	var w WindowedHistogram
	w.Init(time.Second)
	if w.Epoch() != time.Second || w.Window() != NumEpochs*time.Second {
		t.Fatalf("epoch %v window %v", w.Epoch(), w.Window())
	}
	epoch := int64(time.Second)

	// Epoch 1: slow observations. Epoch 10 (far later): fast ones. A
	// snapshot taken during epoch 10 must only see the fast ones — the
	// whole point of the windowed view.
	for i := 0; i < 100; i++ {
		w.Record(1*epoch+int64(i), 10*time.Millisecond)
	}
	for i := 0; i < 100; i++ {
		w.Record(10*epoch+int64(i), 10*time.Microsecond)
	}

	now := 10*epoch + 500
	s := w.Snapshot(now)
	if s.Count != 100 {
		t.Fatalf("recent count %d, want 100 (stale epoch leaked in)", s.Count)
	}
	if p99 := s.QuantileNs(0.99); p99 > 1e6 {
		t.Fatalf("recent p99 %v ns includes the stale slow epoch", p99)
	}
	// The cumulative view keeps everything.
	if total := w.TotalSnapshot(); total.Count != 200 {
		t.Fatalf("total count %d, want 200", total.Count)
	}

	// Within the window, multiple epochs merge.
	w.Record(11*epoch, 20*time.Microsecond)
	s = w.Snapshot(11*epoch + 1)
	if s.Count != 101 {
		t.Fatalf("merged count %d, want 101", s.Count)
	}

	// Far in the future every epoch is stale: the snapshot drains empty.
	if s := w.Snapshot(100 * epoch); s.Count != 0 {
		t.Fatalf("stale snapshot count %d, want 0", s.Count)
	}
}

func TestWindowedHistogramRecycling(t *testing.T) {
	var w WindowedHistogram
	w.Init(time.Millisecond)
	epoch := int64(time.Millisecond)
	// Burn through many more epochs than slots; each epoch records its
	// index count. The final snapshot must cover at most NumEpochs epochs
	// and the counts of the surviving ones exactly.
	const epochs = 4 * NumEpochs
	for e := int64(1); e <= epochs; e++ {
		for i := int64(0); i < e; i++ {
			w.Record(e*epoch+i, time.Duration(e)*time.Microsecond)
		}
	}
	now := epochs*epoch + epoch/2
	s := w.Snapshot(now)
	// The survivors are the last NumEpochs-1 full epochs at most (the
	// oldest slot may have been recycled); at minimum the last one.
	min := uint64(epochs)
	max := uint64(0)
	for e := uint64(epochs - NumEpochs + 1); e <= epochs; e++ {
		max += e
	}
	if s.Count < min || s.Count > max {
		t.Fatalf("recycled snapshot count %d, want in [%d, %d]", s.Count, min, max)
	}
	if w.TotalSnapshot().Count != uint64(epochs*(epochs+1)/2) {
		t.Fatalf("total count %d", w.TotalSnapshot().Count)
	}
}

// TestWindowedHistogramConcurrentReaders proves the single-writer /
// many-reader contract under -race, including rotations: readers snapshot
// continuously while the writer records across epoch boundaries, and no
// snapshot may report more than the writer wrote or a negative quantile.
func TestWindowedHistogramConcurrentReaders(t *testing.T) {
	var w WindowedHistogram
	w.Init(10 * time.Microsecond) // rotate aggressively
	const total = 50_000
	stop := make(chan struct{})
	var rg sync.WaitGroup
	for r := 0; r < 4; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					s := w.Snapshot(NowNs())
					if s.Count > total {
						t.Errorf("snapshot count overshoot: %d", s.Count)
						return
					}
					if s.QuantileNs(0.999) < 0 {
						t.Error("negative quantile")
						return
					}
				}
			}
		}()
	}
	for i := 0; i < total; i++ {
		w.Record(NowNs(), time.Duration(i%5000))
	}
	close(stop)
	rg.Wait()
	if got := w.TotalSnapshot().Count; got != total {
		t.Fatalf("lost observations: %d != %d", got, total)
	}
}

// TestWindowedRecordAllocs pins windowed recording at zero allocations.
func TestWindowedRecordAllocs(t *testing.T) {
	var w WindowedHistogram
	w.Init(time.Millisecond) // rotations happen inside the loop, too
	if avg := testing.AllocsPerRun(5000, func() {
		w.Record(NowNs(), 1234*time.Nanosecond)
	}); avg != 0 {
		t.Fatalf("windowed Record allocated %.2f allocs/op, want 0", avg)
	}
}

func TestWindowedExport(t *testing.T) {
	r := NewRegistry()
	var w WindowedHistogram
	w.Init(time.Minute) // one epoch: everything recent
	for i := 0; i < 100; i++ {
		w.Record(NowNs(), time.Millisecond)
	}
	r.RegisterWindowed("test_visibility_seconds", "Visibility latency.", &w, Label{"shard", "0"})

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE test_visibility_seconds summary\n",
		`test_visibility_seconds{shard="0",quantile="0.5"} `,
		`test_visibility_seconds{shard="0",quantile="0.99"} `,
		`test_visibility_seconds{shard="0",quantile="0.999"} `,
		`test_visibility_seconds_count{shard="0"} 100` + "\n",
		`test_visibility_seconds_sum{shard="0"} `,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// The p50 sample must be ~1ms in seconds (factor-2 bucket tolerance),
	// and the p999 series must carry a positive value.
	quantile := func(q string) float64 {
		prefix := `test_visibility_seconds{shard="0",quantile="` + q + `"} `
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, prefix) {
				var f float64
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, prefix)), &f); err != nil {
					t.Fatalf("parse %q: %v", line, err)
				}
				return f
			}
		}
		t.Fatalf("no %s line", prefix)
		return 0
	}
	if f := quantile("0.5"); f < 0.0005 || f > 0.002 {
		t.Errorf("p50 %v s, want ~0.001", f)
	}
	if f := quantile("0.999"); !(f > 0) {
		t.Errorf("p999 %v s, want > 0", f)
	}
}
