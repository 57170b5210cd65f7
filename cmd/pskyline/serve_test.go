package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pskyline"
)

// syncBuf is a bytes.Buffer safe to poll while run() writes it.
type syncBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// serveMonitor builds a monitor with some churn behind the observability mux.
func serveMonitor(t *testing.T) *pskyline.Monitor {
	t.Helper()
	m, err := pskyline.NewMonitor(pskyline.Options{
		Dims: 2, Window: 200, Thresholds: []float64{0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	for _, l := range genCSV(11, 800) {
		el, err := parseLine(l, 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Push(el); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func get(t *testing.T, srv *httptest.Server, path string) (string, http.Header) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	return string(body), resp.Header
}

func TestServeMuxEndpoints(t *testing.T) {
	m := serveMonitor(t)
	srv := httptest.NewServer(newServeMux(newMonitorHandle(m), nil))
	defer srv.Close()

	metrics, hdr := get(t, srv, "/metrics")
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type %q", ct)
	}
	for _, want := range []string{
		"pskyline_pushes_total 800",
		`pskyline_stage_seconds_bucket{stage="probe",le="+Inf"}`,
		"pskyline_skyline_enters_total",
		"pskyline_theory_skyline_bound",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	health, _ := get(t, srv, "/healthz")
	var h map[string]any
	if err := json.Unmarshal([]byte(health), &h); err != nil {
		t.Fatalf("/healthz invalid JSON: %v", err)
	}
	if h["status"] != "serving" || h["processed"].(float64) != 800 {
		t.Errorf("/healthz = %v", h)
	}

	dbg, _ := get(t, srv, "/debug/skyline")
	var d struct {
		Processed  uint64           `json:"processed"`
		Thresholds []float64        `json:"thresholds"`
		Skyline    []skyPointJSON   `json:"skyline"`
		Trace      []traceEventJSON `json:"trace"`
	}
	if err := json.Unmarshal([]byte(dbg), &d); err != nil {
		t.Fatalf("/debug/skyline invalid JSON: %v", err)
	}
	if d.Processed != 800 || len(d.Skyline) == 0 || len(d.Trace) == 0 {
		t.Errorf("/debug/skyline = processed %d, %d skyline, %d trace",
			d.Processed, len(d.Skyline), len(d.Trace))
	}
	if len(d.Skyline) != m.Stats().Skyline {
		t.Errorf("/debug/skyline reports %d points, Stats says %d", len(d.Skyline), m.Stats().Skyline)
	}

	vars, _ := get(t, srv, "/debug/vars")
	var v map[string]any
	if err := json.Unmarshal([]byte(vars), &v); err != nil {
		t.Fatalf("/debug/vars invalid JSON: %v", err)
	}
	if v["pskyline_pushes_total"].(float64) != 800 {
		t.Errorf("/debug/vars pushes = %v", v["pskyline_pushes_total"])
	}

	if idx, _ := get(t, srv, "/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Error("/debug/pprof/ index does not list profiles")
	}
	if prof, _ := get(t, srv, "/debug/pprof/goroutine?debug=1"); !strings.Contains(prof, "goroutine") {
		t.Error("/debug/pprof/goroutine empty")
	}
}

// TestRegistryMuxSkylineQuery: a stream's skyline endpoint answers an
// ad-hoc q in range and rejects one outside it — NaN included — with 400
// instead of returning every candidate.
func TestRegistryMuxSkylineQuery(t *testing.T) {
	reg := pskyline.NewStreamRegistry(pskyline.Durability{})
	defer reg.CloseAll()
	specs, err := pskyline.ParseStreamSpecs("hot:dims=2,window=100,q=0.3")
	if err != nil {
		t.Fatal(err)
	}
	op, err := reg.Open(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range genCSV(3, 100) {
		el, err := parseLine(l, 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := op.Push(el); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(newRegistryMux(reg))
	defer srv.Close()

	body, _ := get(t, srv, "/streams/hot/skyline?q=0.5")
	var sky struct {
		Processed uint64         `json:"processed"`
		Skyline   []skyPointJSON `json:"skyline"`
	}
	if err := json.Unmarshal([]byte(body), &sky); err != nil {
		t.Fatalf("skyline?q=0.5 invalid JSON: %v", err)
	}
	if sky.Processed != 100 {
		t.Errorf("skyline?q=0.5 processed %d, want 100", sky.Processed)
	}
	for _, q := range []string{"NaN", "0.1", "1.5", "x"} {
		resp, err := srv.Client().Get(srv.URL + "/streams/hot/skyline?q=" + q)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("skyline?q=%s status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestServeMuxRecovering verifies the pre-recovery state: with no monitor in
// the handle yet, every data endpoint answers 503 {"status":"recovering"},
// and flipping the handle to a live monitor switches /healthz to "serving".
func TestServeMuxRecovering(t *testing.T) {
	h := newMonitorHandle(nil)
	srv := httptest.NewServer(newServeMux(h, nil))
	defer srv.Close()

	for _, path := range []string{"/healthz", "/metrics", "/debug/skyline", "/debug/vars"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("GET %s while recovering: status %d, want 503", path, resp.StatusCode)
		}
		if !strings.Contains(string(body), `"recovering"`) {
			t.Errorf("GET %s while recovering: body %q", path, body)
		}
	}

	h.set(serveMonitor(t))
	health, _ := get(t, srv, "/healthz")
	var hm map[string]any
	if err := json.Unmarshal([]byte(health), &hm); err != nil {
		t.Fatalf("/healthz invalid JSON: %v", err)
	}
	if hm["status"] != "serving" {
		t.Errorf("/healthz after recovery = %v", hm)
	}
}

// TestServeMuxRecoveringProgress verifies the 503 "recovering" body carries
// live replay progress when the handle has a RecoveryProgress attached: a
// durable directory is built with a WAL tail, reopened with the progress
// hook, and the counters the endpoint reports must match what recovery
// actually replayed.
func TestServeMuxRecoveringProgress(t *testing.T) {
	dir := t.TempDir()
	opt := pskyline.Options{
		Dims: 2, Window: 200, Thresholds: []float64{0.3},
		Durability: pskyline.Durability{Dir: dir, Fsync: "never", CheckpointEvery: -1},
	}
	m, err := pskyline.Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for _, l := range genCSV(13, n) {
		el, err := parseLine(l, 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Push(el); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil { // Close flushes the WAL; no checkpoint is installed
		t.Fatal(err)
	}

	prog := &pskyline.RecoveryProgress{}
	opt.Durability.Progress = prog
	m2, err := pskyline.Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	rec := m2.Recovery()
	if rec.Replayed != n {
		t.Fatalf("recovery replayed %d records, want %d", rec.Replayed, n)
	}
	if got := prog.RecordsReplayed(); got != n {
		t.Fatalf("progress reports %d records replayed, want %d", got, n)
	}
	if prog.SegmentsTotal() == 0 || prog.SegmentsDecoded() != prog.SegmentsTotal() {
		t.Fatalf("progress segments %d/%d after recovery", prog.SegmentsDecoded(), prog.SegmentsTotal())
	}

	h := newMonitorHandle(nil) // still "recovering": no operator stored yet
	h.progress = prog
	srv := httptest.NewServer(newServeMux(h, nil))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/healthz while recovering: status %d, want 503", resp.StatusCode)
	}
	var hm map[string]any
	if err := json.Unmarshal(body, &hm); err != nil {
		t.Fatalf("/healthz invalid JSON: %v (%q)", err, body)
	}
	if hm["status"] != "recovering" {
		t.Fatalf("/healthz status = %v, want recovering", hm["status"])
	}
	if got := hm["records_replayed"]; got != float64(n) {
		t.Fatalf("/healthz records_replayed = %v, want %d (body %s)", got, n, body)
	}
	if hm["segments_total"] == nil || hm["segments_decoded"] == nil {
		t.Fatalf("/healthz missing segment progress fields: %s", body)
	}
}

// TestRunServeMode drives run() with -http against a live TCP port: the
// endpoints must respond while the process lingers after EOF, and closing
// the stop channel must let run return.
func TestRunServeMode(t *testing.T) {
	stop := make(chan struct{})
	cfg := config{
		dims: 2, window: 100, thresholds: []float64{0.3},
		batch: 1, summary: true, httpAddr: "127.0.0.1:0", stop: stop,
	}
	var out bytes.Buffer
	var errw syncBuf
	done := make(chan error, 1)
	go func() {
		in := strings.NewReader(strings.Join(genCSV(7, 300), "\n") + "\n")
		done <- run(cfg, in, &out, &errw)
	}()

	// The bound address is announced on stderr once the server is up.
	var addr string
	for i := 0; i < 400; i++ {
		if s := errw.String(); strings.Contains(s, "http://") {
			at := strings.Index(s, "http://")
			addr = strings.TrimSpace(strings.SplitN(s[at:], "\n", 2)[0])
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if addr == "" {
		t.Fatalf("server never announced itself; stderr: %s", errw.String())
	}

	// Wait until the stream has fully drained, then scrape.
	for i := 0; i < 400; i++ {
		if strings.Contains(errw.String(), "stream done") {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, err := http.Get(addr + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "pskyline_pushes_total 300") {
		t.Errorf("/metrics after EOF missing final push count:\n%.400s", body)
	}

	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "work: nodes=") || !strings.Contains(out.String(), "stage probe") {
		t.Errorf("-summary missing work/stage block:\n%s", out.String())
	}
}

// TestRunServeShutdownInflight: the serve-mode shutdown is graceful — a
// request already being handled when the stop signal arrives completes
// normally (run blocks in Shutdown until it drains) instead of being cut
// mid-response.
func TestRunServeShutdownInflight(t *testing.T) {
	stop := make(chan struct{})
	cfg := config{
		dims: 2, window: 100, thresholds: []float64{0.3},
		batch: 1, httpAddr: "127.0.0.1:0", stop: stop,
	}
	var out bytes.Buffer
	var errw syncBuf
	done := make(chan error, 1)
	go func() {
		in := strings.NewReader(strings.Join(genCSV(7, 100), "\n") + "\n")
		done <- run(cfg, in, &out, &errw)
	}()

	var addr string
	for i := 0; i < 400; i++ {
		if s := errw.String(); strings.Contains(s, "stream done") {
			at := strings.Index(s, "http://")
			addr = strings.TrimSpace(strings.SplitN(s[at:], "\n", 2)[0])
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if addr == "" {
		t.Fatalf("server never reached serve mode; stderr: %s", errw.String())
	}

	// A 2-second CPU profile capture only answers after profiling finishes,
	// so it is in flight across the whole shutdown window.
	type result struct {
		status int
		n      int
		err    error
	}
	inflight := make(chan result, 1)
	go func() {
		resp, err := http.Get(addr + "/debug/pprof/profile?seconds=2")
		if err != nil {
			inflight <- result{err: err}
			return
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			inflight <- result{err: rerr}
			return
		}
		inflight <- result{status: resp.StatusCode, n: len(body)}
	}()

	// Give the request time to reach the handler, then pull the plug.
	time.Sleep(300 * time.Millisecond)
	stopAt := time.Now()
	close(stop)

	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	shutdownTook := time.Since(stopAt)
	r := <-inflight
	if r.err != nil {
		t.Fatalf("in-flight request cut by shutdown: %v", r.err)
	}
	if r.status != http.StatusOK || r.n == 0 {
		t.Fatalf("in-flight request got status %d, %d bytes", r.status, r.n)
	}
	// Shutdown must actually have waited for the ~2s capture rather than
	// returning instantly and racing the hard Close.
	if shutdownTook < time.Second {
		t.Fatalf("run returned %v after stop — did not wait for the in-flight request", shutdownTook)
	}
}
