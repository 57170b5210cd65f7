package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"pskyline"
	"pskyline/internal/obs"
	"pskyline/internal/wal"
)

// opBox wraps the Operator interface so it can live in an atomic.Pointer.
type opBox struct{ op pskyline.Operator }

// monitorHandle is the indirection that lets the HTTP server come up before
// crash recovery finishes: the operator pointer is nil while Open replays the
// log, and every endpoint answers 503 {"status":"recovering"} until the
// recovered operator is stored. Readiness probes can therefore hold traffic
// back during a long replay instead of reading a half-recovered state. The
// handle serves either a single *Monitor or a *ShardedMonitor — both
// implement pskyline.Operator. With progress set, the 503 body also carries
// live replay progress (segments decoded/total, records re-ingested), so a
// probe can tell a long replay from a wedged one.
type monitorHandle struct {
	mon      atomic.Pointer[opBox]
	progress *pskyline.RecoveryProgress
}

func newMonitorHandle(op pskyline.Operator) *monitorHandle {
	h := &monitorHandle{}
	if op != nil {
		h.mon.Store(&opBox{op: op})
	}
	return h
}

func (h *monitorHandle) set(op pskyline.Operator) { h.mon.Store(&opBox{op: op}) }

// ready answers 503 and reports false while recovery is still running.
func (h *monitorHandle) ready(w http.ResponseWriter) (pskyline.Operator, bool) {
	b := h.mon.Load()
	if b == nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		body := map[string]any{"status": "recovering"}
		if p := h.progress; p != nil {
			body["segments_decoded"] = p.SegmentsDecoded()
			body["segments_total"] = p.SegmentsTotal()
			body["records_replayed"] = p.RecordsReplayed()
		}
		json.NewEncoder(w).Encode(body)
		return nil, false
	}
	return b.op, true
}

// newServeMux builds the observability endpoint set over a live operator.
// Every handler reads the lock-free export surfaces (the published view, the
// atomic metric mirrors, the trace ring), so scraping — even aggressively —
// never blocks ingestion.
//
// rs carries the node's replication role (nil = standalone): /healthz
// reports role and lag, /metrics appends the replication series, /skyline
// serves read-only queries, POST /push ingests (403 on replicas — they
// accept writes only from their primary) and POST /promote flips a replica
// into a writable primary.
//
//	/metrics        Prometheus text exposition
//	/healthz        liveness + stream position + replication role JSON;
//	                "serving" once ready, 503 "recovering" while crash
//	                recovery replays the log
//	/skyline        current skyline JSON (replicas serve this read-only)
//	/push           POST NDJSON elements {"point":[..],"prob":p,"ts":t};
//	                403 on a replica; ?drain=1 waits for visibility
//	/promote        POST: promote this replica to a writable primary;
//	                409 unless the node is a replica
//	/buildinfo      build metadata (VCS revision, dirty flag, Go version)
//	/debug/skyline  current skyline (and, for a single monitor, the
//	                recent-transition trace), JSON
//	/debug/flight   flight recorder dump: recent write spans + latched slow
//	                spans with per-stage breakdowns, JSON
//	/debug/vars     all metrics as one expvar-style JSON object
//	/debug/pprof/   the standard runtime profiles
func newServeMux(h *monitorHandle, rs *replState) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		m, ok := h.ready(w)
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		m.WritePrometheus(w)
		rs.writePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		m, ok := h.ready(w)
		if !ok {
			return
		}
		body := operatorHealth(m)
		rs.decorateHealth(body)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(body)
	})
	mux.HandleFunc("GET /skyline", func(w http.ResponseWriter, r *http.Request) {
		m, ok := h.ready(w)
		if !ok {
			return
		}
		v := m.View()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"processed": v.Processed(),
			"skyline":   skylineJSON(v.Skyline()),
		})
	})
	mux.HandleFunc("POST /push", func(w http.ResponseWriter, r *http.Request) {
		m, ok := h.ready(w)
		if !ok {
			return
		}
		if rs.role() == "replica" {
			httpError(w, http.StatusForbidden, "read-only replica: writes go to the primary (or POST /promote)")
			return
		}
		servePush(w, r, m)
	})
	mux.HandleFunc("POST /promote", func(w http.ResponseWriter, r *http.Request) {
		body, code := rs.promote(h)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(body)
	})
	mux.HandleFunc("/debug/skyline", func(w http.ResponseWriter, r *http.Request) {
		m, ok := h.ready(w)
		if !ok {
			return
		}
		v := m.View()
		body := map[string]any{
			"processed":  v.Processed(),
			"thresholds": v.Thresholds(),
			"skyline":    skylineJSON(v.Skyline()),
		}
		// The transition trace is per-engine state; a sharded operator has
		// no global trace (bands churn independently per shard).
		if mon, ok := m.(*pskyline.Monitor); ok {
			body["trace"] = traceJSON(mon.Trace())
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(body)
	})
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, r *http.Request) {
		m, ok := h.ready(w)
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(flightJSON(m.Flight()))
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		m, ok := h.ready(w)
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "application/json")
		m.WriteMetricsJSON(w)
	})
	addBuildinfo(mux)
	addPprof(mux)
	return mux
}

// addBuildinfo serves the binary's build stamp.
func addBuildinfo(mux *http.ServeMux) {
	mux.HandleFunc("/buildinfo", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(build)
	})
}

// operatorHealth builds the /healthz body for one operator. A single
// *Monitor reports its full metric mirror (queue depth, WAL counters); a
// sharded operator reports the merged stream position plus the worst
// per-shard WAL state.
func operatorHealth(m pskyline.Operator) map[string]any {
	body := map[string]any{"status": "serving"}
	if rev := build.shortRevision(); rev != "" {
		body["revision"] = rev
	}
	switch t := m.(type) {
	case *pskyline.Monitor:
		met := t.Metrics()
		body["processed"] = met.Stats.Processed
		body["skyline"] = met.Stats.Skyline
		body["candidates"] = met.Stats.Candidates
		body["publish_age_seconds"] = time.Since(met.LastPublish).Seconds()
		if w := met.WAL; w != nil {
			body["wal_state"] = w.State
			if w.State == "degraded" || w.State == "detached" {
				// Still 200 — the monitor serves — but the status tells
				// probes durability is gone.
				body["status"] = w.State
			}
			if w.LastFault != "" {
				body["wal_last_fault"] = w.LastFault
			}
			if w.DroppedRecords > 0 {
				body["wal_dropped_records"] = w.DroppedRecords
			}
		}
		if met.QueueCapacity > 0 {
			body["queue_depth"] = met.QueueDepth
			body["queue_capacity"] = met.QueueCapacity
			body["queue_dropped"] = met.QueueDropped
		}
	default:
		st := m.Stats()
		body["processed"] = st.Processed
		body["skyline"] = st.Skyline
		body["candidates"] = st.Candidates
		if sm, ok := m.(*pskyline.ShardedMonitor); ok {
			body["shards"] = sm.NumShards()
		}
		if ws := m.WALState(); ws != wal.StateHealthy {
			body["wal_state"] = ws.String()
			if ws == wal.StateDegraded || ws == wal.StateDetached {
				body["status"] = ws.String()
			}
		}
	}
	if rec := m.Recovery(); rec.Recovered {
		body["recovery"] = map[string]any{
			"checkpoint_seq":   rec.CheckpointSeq,
			"replayed":         rec.Replayed,
			"truncated_bytes":  rec.TruncatedBytes,
			"segments_dropped": rec.SegmentsDropped,
			"duration_seconds": rec.Duration.Seconds(),
		}
	}
	return body
}

// newRegistryMux builds the multi-tenant endpoint set over a stream
// registry. One /metrics endpoint serves every stream (series carry
// stream="<name>" and, for sharded streams, shard="<i>" labels), and each
// stream is addressable by name for ingestion and queries:
//
//	/metrics                Prometheus exposition for all streams
//	/healthz                per-stream positions + worst WAL state
//	/streams                GET: list open streams with positions
//	/streams/{name}/push    POST: NDJSON {"point":[...],"prob":p,"ts":t}
//	                        per line; ?drain=1 waits for visibility
//	/streams/{name}/skyline GET: current skyline; ?q=Q restricts to a
//	                        stricter registered threshold
//	/streams/{name}/flight  GET: the stream's flight recorder dump
//	/buildinfo              build metadata (VCS revision, Go version)
//	/debug/vars             all metrics as one JSON object
//	/debug/pprof/           the standard runtime profiles
func newRegistryMux(reg *pskyline.StreamRegistry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		reg.WriteMetricsJSON(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		streams := map[string]any{}
		status := "serving"
		for _, name := range reg.Names() {
			op, ok := reg.Get(name)
			if !ok {
				continue
			}
			sh := operatorHealth(op)
			if s, _ := sh["status"].(string); s != "serving" && status == "serving" {
				status = s
			}
			delete(sh, "status")
			streams[name] = sh
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"status": status, "streams": streams})
	})
	mux.HandleFunc("GET /streams", func(w http.ResponseWriter, r *http.Request) {
		type streamJSON struct {
			Name       string `json:"name"`
			Shards     int    `json:"shards"`
			Processed  uint64 `json:"processed"`
			Skyline    int    `json:"skyline"`
			Candidates int    `json:"candidates"`
			WALState   string `json:"wal_state"`
		}
		out := []streamJSON{}
		for _, name := range reg.Names() {
			op, ok := reg.Get(name)
			if !ok {
				continue
			}
			cfg, _ := reg.Config(name)
			st := op.Stats()
			out = append(out, streamJSON{
				Name: name, Shards: cfg.Shards,
				Processed: st.Processed, Skyline: st.Skyline,
				Candidates: st.Candidates, WALState: op.WALState().String(),
			})
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"streams": out})
	})
	mux.HandleFunc("POST /streams/{name}/push", func(w http.ResponseWriter, r *http.Request) {
		op, ok := lookupStream(reg, w, r)
		if !ok {
			return
		}
		servePush(w, r, op)
	})
	mux.HandleFunc("GET /streams/{name}/skyline", func(w http.ResponseWriter, r *http.Request) {
		op, ok := lookupStream(reg, w, r)
		if !ok {
			return
		}
		var (
			sky []pskyline.SkyPoint
			err error
		)
		if qs := r.URL.Query().Get("q"); qs != "" {
			q, perr := strconv.ParseFloat(qs, 64)
			if perr != nil {
				httpError(w, http.StatusBadRequest, fmt.Sprintf("bad q: %v", perr))
				return
			}
			sky, err = op.Query(q)
			if err != nil {
				httpError(w, http.StatusBadRequest, err.Error())
				return
			}
		} else {
			sky = op.Skyline()
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"processed": op.Stats().Processed,
			"skyline":   skylineJSON(sky),
		})
	})
	mux.HandleFunc("GET /streams/{name}/flight", func(w http.ResponseWriter, r *http.Request) {
		op, ok := lookupStream(reg, w, r)
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(flightJSON(op.Flight()))
	})
	addBuildinfo(mux)
	addPprof(mux)
	return mux
}

// spanJSON is the wire form of one flight span: phase durations in
// nanoseconds, the engine stage breakdown keyed by stage name, and the
// admission stamp converted to wall clock.
type spanJSON struct {
	Seq       uint64           `json:"seq"`
	Batch     int32            `json:"batch"`
	Shard     int32            `json:"shard"`
	Queue     int32            `json:"queue"`
	Admitted  string           `json:"admitted"`
	WaitNs    int64            `json:"wait_ns"`
	ApplyNs   int64            `json:"apply_ns"`
	PublishNs int64            `json:"publish_ns"`
	TotalNs   int64            `json:"total_ns"`
	StageNs   map[string]int64 `json:"stage_ns"`
}

func flightJSON(fi pskyline.FlightInfo) map[string]any {
	stages := pskyline.SpanStages()
	spans := func(in []obs.Span) []spanJSON {
		out := make([]spanJSON, len(in))
		for i, sp := range in {
			sj := spanJSON{
				Seq: sp.Seq, Batch: sp.Batch, Shard: sp.Shard, Queue: sp.Queue,
				Admitted: pskyline.SpanAdmitTime(sp).Format(time.RFC3339Nano),
				WaitNs:   sp.WaitNs, ApplyNs: sp.ApplyNs,
				PublishNs: sp.PublishNs, TotalNs: sp.TotalNs,
				StageNs: map[string]int64{},
			}
			for j, name := range stages {
				if sp.StageNs[j] != 0 {
					sj.StageNs[name] = sp.StageNs[j]
				}
			}
			out[i] = sj
		}
		return out
	}
	return map[string]any{
		"slow_threshold_ns": fi.SlowThreshold.Nanoseconds(),
		"recorded":          fi.Recorded,
		"slow_latched":      fi.SlowLatched,
		"recent":            spans(fi.Recent),
		"slow":              spans(fi.Slow),
	}
}

func lookupStream(reg *pskyline.StreamRegistry, w http.ResponseWriter, r *http.Request) (pskyline.Operator, bool) {
	name := r.PathValue("name")
	op, ok := reg.Get(name)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown stream %q", name))
		return nil, false
	}
	return op, true
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{"error": msg})
}

// pushElementJSON is the wire form of one ingested element (NDJSON line).
type pushElementJSON struct {
	Point []float64 `json:"point"`
	Prob  float64   `json:"prob"`
	TS    int64     `json:"ts"`
}

// servePush answers a push request once its mux has found the operator: it
// ingests the NDJSON body, maps a failure to its status (429 overloaded, 409
// closed, 400 otherwise; the error names how many elements were accepted
// before it), waits for visibility on ?drain=1, and replies
// {"accepted":n}.
func servePush(w http.ResponseWriter, r *http.Request, op pskyline.Operator) {
	accepted, err := pushNDJSON(op, r.Body)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, pskyline.ErrOverloaded) {
			code = http.StatusTooManyRequests
		} else if errors.Is(err, pskyline.ErrClosed) {
			code = http.StatusConflict
		}
		httpError(w, code, fmt.Sprintf("after %d accepted: %v", accepted, err))
		return
	}
	if r.URL.Query().Get("drain") == "1" {
		op.Drain()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"accepted": accepted})
}

// pushNDJSON streams newline-delimited JSON elements into op in bounded
// batches, returning how many elements were accepted before any error.
func pushNDJSON(op pskyline.Operator, body io.Reader) (int, error) {
	const batchSize = 256
	dec := json.NewDecoder(body)
	batch := make([]pskyline.Element, 0, batchSize)
	accepted := 0
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if _, err := op.PushBatch(batch); err != nil {
			return err
		}
		accepted += len(batch)
		batch = batch[:0]
		return nil
	}
	for {
		var p pushElementJSON
		if err := dec.Decode(&p); err != nil {
			if err == io.EOF {
				break
			}
			if ferr := flush(); ferr != nil {
				return accepted, ferr
			}
			return accepted, fmt.Errorf("element %d: %v", accepted+len(batch)+1, err)
		}
		batch = append(batch, pskyline.Element{Point: p.Point, Prob: p.Prob, TS: p.TS})
		if len(batch) == batchSize {
			if err := flush(); err != nil {
				return accepted, err
			}
		}
	}
	return accepted, flush()
}

func addPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// skyPointJSON is the wire form of a skyline member (payloads are omitted:
// they are arbitrary Go values).
type skyPointJSON struct {
	Seq   uint64    `json:"seq"`
	Point []float64 `json:"point"`
	Prob  float64   `json:"prob"`
	Psky  float64   `json:"psky"`
}

func skylineJSON(sky []pskyline.SkyPoint) []skyPointJSON {
	out := make([]skyPointJSON, len(sky))
	for i, p := range sky {
		out[i] = skyPointJSON{Seq: p.Seq, Point: p.Point, Prob: p.Prob, Psky: p.Psky}
	}
	return out
}

// traceEventJSON is the wire form of one recorded skyline transition.
type traceEventJSON struct {
	Seq       uint64    `json:"seq"`
	Entered   bool      `json:"entered"`
	Point     []float64 `json:"point"`
	Prob      float64   `json:"prob"`
	Psky      float64   `json:"psky"`
	FromBand  int       `json:"from_band"`
	ToBand    int       `json:"to_band"`
	At        string    `json:"at"`
	Processed uint64    `json:"processed"`
}

func traceJSON(tr []pskyline.TraceEvent) []traceEventJSON {
	out := make([]traceEventJSON, len(tr))
	for i, ev := range tr {
		out[i] = traceEventJSON{
			Seq: ev.Seq, Entered: ev.Entered, Point: ev.Point,
			Prob: ev.Prob, Psky: ev.Psky,
			FromBand: ev.FromBand, ToBand: ev.ToBand,
			At: ev.At.Format(time.RFC3339Nano), Processed: ev.Processed,
		}
	}
	return out
}

// startServer binds addr and serves the given handler in the background.
// The returned server is already accepting connections; the caller shuts it
// down with Close.
func startServer(addr string, handler http.Handler, errw io.Writer) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("http listen %s: %v", addr, err)
	}
	srv := &http.Server{
		Handler: handler,
		// Hardening against slow or stuck clients: a slowloris peer cannot
		// hold a connection open indefinitely, and a wedged response write
		// cannot pin a handler goroutine forever. WriteTimeout leaves room
		// for multi-second pprof profile captures.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	go srv.Serve(ln)
	fmt.Fprintf(errw, "pskyline: serving on http://%s\n", ln.Addr())
	return srv, nil
}
