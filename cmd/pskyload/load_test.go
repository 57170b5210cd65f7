package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pskyline"
)

func testConfig() config {
	return config{
		dims: 2, window: 500, qs: []float64{0.3}, dist: "inde", seed: 1,
		dur: 300 * time.Millisecond, warmup: 50 * time.Millisecond,
		batch: 1, workers: 2, mode: "sync", async: 256, shards: 2,
		stream: "bench", label: "test",
	}
}

// stallSink completes instantly except for one long stall; the open-loop
// schedule keeps releasing arrivals during it.
type stallSink struct {
	n       atomic.Int64
	stallAt int64
	stall   time.Duration
}

func (s *stallSink) push([]pskyline.Element) error {
	if s.n.Add(1) == s.stallAt {
		time.Sleep(s.stall)
	}
	return nil
}
func (s *stallSink) visible() *pskyline.LatencyMetrics { return nil }
func (s *stallSink) close() error                      { return nil }

// TestCoordinatedOmission pins the harness's defining property: arrivals
// scheduled while the system is stalled observe the stall. A closed-loop
// harness (measuring from send time) would report one slow sample; the
// open-loop schedule charges the stall to every arrival due during it.
func TestCoordinatedOmission(t *testing.T) {
	cfg := testConfig()
	cfg.workers = 1 // all arrivals funnel through the stalled worker
	cfg.warmup = 0
	cfg.dur = 500 * time.Millisecond
	const rate = 200.0 // 2 arrivals due per 10ms
	s := &stallSink{stallAt: 20, stall: 200 * time.Millisecond}

	r := runRate(s, cfg, rate)
	if r.Completed+r.Dropped != r.Scheduled {
		t.Fatalf("accounting: scheduled=%d completed=%d dropped=%d",
			r.Scheduled, r.Completed, r.Dropped)
	}
	// ~40 arrivals were due during the 200ms stall; well over 10 must have
	// observed >=50ms of it. With send-time measurement only 1 sample could
	// exceed 50ms.
	if r.MaxMs < 150 {
		t.Errorf("max %.1fms does not reflect the 200ms stall", r.MaxMs)
	}
	if r.P99Ms < 50 {
		t.Errorf("p99 %.1fms does not charge the stall to queued arrivals", r.P99Ms)
	}
}

func TestSweepInprocModes(t *testing.T) {
	for _, mode := range []string{"sync", "async", "sharded"} {
		t.Run(mode, func(t *testing.T) {
			cfg := testConfig()
			cfg.mode = mode
			cfg.rates = []float64{500, 1000}
			cfg.batch = 4
			cfg.out = filepath.Join(t.TempDir(), "bench.json")
			var out bytes.Buffer
			if err := sweep(cfg, &out); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out.String(), "open-loop") {
				t.Errorf("sweep output missing open-loop note:\n%s", out.String())
			}

			data, err := readFile(cfg.out)
			if err != nil {
				t.Fatal(err)
			}
			var bf benchFile
			if err := json.Unmarshal(data, &bf); err != nil {
				t.Fatal(err)
			}
			if len(bf.Runs) != 1 || len(bf.Runs[0].Rows) != 2 {
				t.Fatalf("trajectory = %d runs / %v rows, want 1 run with 2 rows",
					len(bf.Runs), len(bf.Runs[0].Rows))
			}
			for _, r := range bf.Runs[0].Rows {
				if r.Mode != mode || !r.Tracking {
					t.Errorf("row mode=%q tracking=%v", r.Mode, r.Tracking)
				}
				if r.Completed == 0 || r.Completed+r.Dropped != r.Scheduled {
					t.Errorf("row accounting: scheduled=%d completed=%d dropped=%d",
						r.Scheduled, r.Completed, r.Dropped)
				}
				if r.P50Ms <= 0 || r.P99Ms < r.P50Ms {
					t.Errorf("row quantiles p50=%.4f p99=%.4f", r.P50Ms, r.P99Ms)
				}
				// In-process with tracking on: the monitor's internal
				// visibility view rides along.
				if r.VisibleP50Ms <= 0 {
					t.Errorf("row missing visible_p50_ms: %+v", r)
				}
			}
		})
	}
}

// TestRateUnitsBatched pins the rate units at batch > 1: offered_rate and
// elems_per_sec are both elements per second, so a sustainable offered rate
// is what the row reports achieved (a batches/s figure would read 16x low).
func TestRateUnitsBatched(t *testing.T) {
	cfg := testConfig()
	cfg.mode = "sharded"
	cfg.batch = 16
	cfg.dur = time.Second
	s, err := newSink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	const rate = 2000.0 // 125 batches/s
	r := runRate(s, cfg, rate)
	if r.Dropped != 0 || r.Completed != r.Scheduled {
		t.Fatalf("accounting: scheduled=%d completed=%d dropped=%d", r.Scheduled, r.Completed, r.Dropped)
	}
	if r.Offered != rate || r.ElemsPS < rate/1.5 || r.ElemsPS > rate*1.5 {
		t.Fatalf("offered_rate=%.0f elems_per_sec=%.0f: want elems_per_sec within 1.5x of the offered rate", r.Offered, r.ElemsPS)
	}
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "achieved_rate") {
		t.Fatalf("row still carries a requests/s achieved_rate: %s", raw)
	}
}

func TestAppendRowsAndRender(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	rows := []rateResult{{
		Label: "a", Mode: "sync", Tracking: true, Offered: 1000,
		Scheduled: 10, Completed: 10,
		P50Ms: 0.5, P99Ms: 1.5, P999Ms: 2.0, MaxMs: 3.0, ElemsPS: 990,
		VisibleP50Ms: 0.1, VisibleP99Ms: 0.4,
	}}
	if err := appendRows(path, "a", rows); err != nil {
		t.Fatal(err)
	}
	rows[0].Mode = "async"
	if err := appendRows(path, "b", rows); err != nil {
		t.Fatal(err)
	}
	data, _ := readFile(path)
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Runs) != 2 || bf.Runs[0].Label != "a" || bf.Runs[1].Label != "b" {
		t.Fatalf("merge: %+v", bf.Runs)
	}

	var md bytes.Buffer
	if err := renderFile(path, &md); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"| mode |", "| sync | on | 1000 |", "| async |"} {
		if !strings.Contains(md.String(), want) {
			t.Errorf("render missing %q:\n%s", want, md.String())
		}
	}

	if err := appendRows(filepath.Join(t.TempDir(), "bad.json"), "x", nil); err != nil {
		t.Fatalf("append to fresh file: %v", err)
	}
}

func TestHTTPSinkDrops(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1)%2 == 0 {
			http.Error(w, "busy", http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	cfg := testConfig()
	cfg.target = srv.URL + "/" // trailing slash must not double up
	cfg.warmup = 0
	cfg.dur = 100 * time.Millisecond
	s := newHTTPSink(cfg)
	if !strings.HasSuffix(s.url, "/streams/bench/push") || strings.Contains(s.url, "//streams") {
		t.Fatalf("sink url %q", s.url)
	}
	r := runRate(s, cfg, 200)
	if r.Mode != "http" {
		t.Errorf("mode = %q, want http", r.Mode)
	}
	if r.Dropped == 0 || r.Completed == 0 {
		t.Errorf("want both completions and drops, got completed=%d dropped=%d", r.Completed, r.Dropped)
	}
	if r.Completed+r.Dropped != r.Scheduled {
		t.Errorf("accounting: scheduled=%d completed=%d dropped=%d",
			r.Scheduled, r.Completed, r.Dropped)
	}
}

func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q := quantile(s, 0.5); q != 6 {
		t.Errorf("p50 = %v", q)
	}
	if q := quantile(s, 0.999); q != 10 {
		t.Errorf("p999 = %v", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("empty = %v", q)
	}
}
