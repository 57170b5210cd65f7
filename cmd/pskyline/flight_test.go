package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pskyline"
)

// flightDumpJSON mirrors the wire shape of /debug/flight.
type flightDumpJSON struct {
	SlowThresholdNs int64      `json:"slow_threshold_ns"`
	Recorded        uint64     `json:"recorded"`
	SlowLatched     uint64     `json:"slow_latched"`
	Recent          []spanJSON `json:"recent"`
	Slow            []spanJSON `json:"slow"`
}

func TestServeMuxBuildinfo(t *testing.T) {
	m := serveMonitor(t)
	srv := httptest.NewServer(newServeMux(newMonitorHandle(m), nil))
	defer srv.Close()

	body, hdr := get(t, srv, "/buildinfo")
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("/buildinfo content type %q", ct)
	}
	var bi buildInfo
	if err := json.Unmarshal([]byte(body), &bi); err != nil {
		t.Fatalf("/buildinfo invalid JSON: %v", err)
	}
	if bi.GoVersion == "" {
		t.Errorf("/buildinfo missing go_version: %s", body)
	}
	if bi.Module != "pskyline" {
		t.Errorf("/buildinfo module = %q, want pskyline", bi.Module)
	}

	// The healthz body carries the abbreviated revision whenever the binary
	// has a VCS stamp (test binaries usually don't — then the key is absent).
	health, _ := get(t, srv, "/healthz")
	var h map[string]any
	if err := json.Unmarshal([]byte(health), &h); err != nil {
		t.Fatalf("/healthz invalid JSON: %v", err)
	}
	rev, present := h["revision"]
	if want := build.shortRevision(); want == "" {
		if present {
			t.Errorf("/healthz revision = %v with no VCS stamp", rev)
		}
	} else if rev != want {
		t.Errorf("/healthz revision = %v, want %q", rev, want)
	}
}

func TestServeMuxFlight(t *testing.T) {
	m := serveMonitor(t)
	srv := httptest.NewServer(newServeMux(newMonitorHandle(m), nil))
	defer srv.Close()

	body, hdr := get(t, srv, "/debug/flight")
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("/debug/flight content type %q", ct)
	}
	var fd flightDumpJSON
	if err := json.Unmarshal([]byte(body), &fd); err != nil {
		t.Fatalf("/debug/flight invalid JSON: %v", err)
	}
	if fd.Recorded != 800 {
		t.Errorf("/debug/flight recorded = %d, want 800", fd.Recorded)
	}
	if fd.SlowThresholdNs <= 0 {
		t.Errorf("/debug/flight slow_threshold_ns = %d", fd.SlowThresholdNs)
	}
	if len(fd.Recent) == 0 {
		t.Fatal("/debug/flight has no recent spans")
	}
	stages := pskyline.SpanStages()
	for i, sp := range fd.Recent {
		if sp.WaitNs < 0 || sp.ApplyNs < 0 || sp.PublishNs < 0 {
			t.Fatalf("span %d: negative phase: %+v", i, sp)
		}
		if sp.WaitNs+sp.ApplyNs+sp.PublishNs != sp.TotalNs {
			t.Fatalf("span %d: phases do not sum to total: %+v", i, sp)
		}
		if sp.Batch != 1 || sp.Shard != -1 || sp.Queue != -1 {
			t.Fatalf("span %d: batch/shard/queue = %d/%d/%d, want 1/-1/-1",
				i, sp.Batch, sp.Shard, sp.Queue)
		}
		if sp.Admitted == "" {
			t.Fatalf("span %d: empty admitted timestamp", i)
		}
		for name := range sp.StageNs {
			found := false
			for _, s := range stages {
				if s == name {
					found = true
				}
			}
			if !found {
				t.Fatalf("span %d: unknown stage %q", i, name)
			}
		}
	}
}

func TestRegistryMuxFlightAndBuildinfo(t *testing.T) {
	reg := pskyline.NewStreamRegistry(pskyline.Durability{})
	defer reg.CloseAll()
	specs, err := pskyline.ParseStreamSpecs("hot:dims=2,window=100,q=0.3")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Open(specs[0]); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newRegistryMux(reg))
	defer srv.Close()

	var nd bytes.Buffer
	enc := json.NewEncoder(&nd)
	for _, l := range genCSV(7, 50) {
		el, err := parseLine(l, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(el); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := srv.Client().Post(srv.URL+"/streams/hot/push", "application/x-ndjson", &nd)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("push status %d", resp.StatusCode)
	}

	body, _ := get(t, srv, "/streams/hot/flight")
	var fd flightDumpJSON
	if err := json.Unmarshal([]byte(body), &fd); err != nil {
		t.Fatalf("/streams/hot/flight invalid JSON: %v", err)
	}
	if fd.Recorded == 0 || len(fd.Recent) == 0 {
		t.Errorf("/streams/hot/flight recorded=%d recent=%d, want spans",
			fd.Recorded, len(fd.Recent))
	}

	bi, _ := get(t, srv, "/buildinfo")
	var b buildInfo
	if err := json.Unmarshal([]byte(bi), &b); err != nil {
		t.Fatalf("/buildinfo invalid JSON: %v", err)
	}
	if b.GoVersion == "" {
		t.Errorf("/buildinfo missing go_version: %s", bi)
	}

	if resp, err := srv.Client().Get(srv.URL + "/streams/nope/flight"); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown stream flight status %d, want 404", resp.StatusCode)
		}
	}
}

func TestBuildInfoString(t *testing.T) {
	b := buildInfo{
		GoVersion: "go1.24", Module: "pskyline", Version: "(devel)",
		Revision: "0123456789abcdef0123", Time: "2026-08-08T00:00:00Z", Dirty: true,
	}
	if got, want := b.shortRevision(), "0123456789ab-dirty"; got != want {
		t.Errorf("shortRevision = %q, want %q", got, want)
	}
	s := b.String()
	for _, want := range []string{"pskyline (devel)", "go1.24", "0123456789ab-dirty", "built 2026-08-08T00:00:00Z"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	if got := (buildInfo{}).shortRevision(); got != "" {
		t.Errorf("empty shortRevision = %q, want empty", got)
	}
}

// TestRunSummaryLatencyBlock pins the -summary latency output: the block
// reports recent-window quantiles with the log2-bucket error-bound note.
func TestRunSummaryLatencyBlock(t *testing.T) {
	lines := genCSV(9, 600)
	cfg := config{dims: 2, window: 200, thresholds: []float64{0.3}, batch: 1, summary: true}
	out := runSession(t, cfg, lines)
	for _, want := range []string{
		"latency (recent",
		"log2-bucket quantiles, within a factor of sqrt(2) of exact — ±1 bucket, at most 2x",
		"applied", "visible",
		"flight: recorded=600",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-summary output missing %q:\n%s", want, out)
		}
	}
}

// TestRunSummaryShardLatency checks the sharded -summary path: per-shard
// visible-latency lines plus the merged flight counters.
func TestRunSummaryShardLatency(t *testing.T) {
	lines := genCSV(13, 600)
	cfg := config{
		dims: 2, window: 200, thresholds: []float64{0.3}, batch: 8,
		shards: 3, summary: true,
	}
	out := runSession(t, cfg, lines)
	for _, want := range []string{"shard 0 visible:", "shard 2 visible:", "flight (merged): recorded="} {
		if !strings.Contains(out, want) {
			t.Errorf("sharded -summary output missing %q:\n%s", want, out)
		}
	}
}
