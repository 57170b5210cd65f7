package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"pskyline"
	"pskyline/internal/streamgen"
)

// sink is the system under test: it accepts one request's worth of elements,
// blocking until the system has taken responsibility for them.
type sink interface {
	push(es []pskyline.Element) error
	// visible reports the monitor's internal ingest-to-visibility latency
	// view, nil when unavailable (HTTP targets, -no-latency).
	visible() *pskyline.LatencyMetrics
	close() error
}

// inprocSink drives a monitor built inside the harness process.
type inprocSink struct {
	op pskyline.Operator
}

func newInprocSink(cfg config) (*inprocSink, error) {
	opt := pskyline.Options{
		Dims: cfg.dims, Window: cfg.window, Thresholds: cfg.qs,
		Latency: pskyline.LatencyOptions{Disable: cfg.noLat},
	}
	switch cfg.mode {
	case "sync":
	case "async":
		opt.AsyncQueue = cfg.async
	case "sharded":
		sm, err := pskyline.NewSharded(pskyline.ShardedOptions{
			Options: opt, Shards: cfg.shards,
		})
		if err != nil {
			return nil, err
		}
		return &inprocSink{op: sm}, nil
	default:
		return nil, fmt.Errorf("unknown mode %q: want sync, async or sharded", cfg.mode)
	}
	m, err := pskyline.NewMonitor(opt)
	if err != nil {
		return nil, err
	}
	return &inprocSink{op: m}, nil
}

func (s *inprocSink) push(es []pskyline.Element) error {
	if len(es) == 1 {
		_, err := s.op.Push(es[0])
		return err
	}
	_, err := s.op.PushBatch(es)
	return err
}

// visible drains the operator (so async queues count) and scrapes its
// instrumentation. For sharded operators it reports the worst shard's
// quantiles — the latency a query against the merged surface can observe.
func (s *inprocSink) visible() *pskyline.LatencyMetrics {
	s.op.Drain()
	switch m := s.op.(type) {
	case *pskyline.Monitor:
		return m.Metrics().Latency
	case *pskyline.ShardedMonitor:
		var worst *pskyline.LatencyMetrics
		for i := 0; i < m.NumShards(); i++ {
			lm := m.Shard(i).Metrics().Latency
			if lm == nil {
				return nil
			}
			if worst == nil || lm.Visible.P99Ns > worst.Visible.P99Ns {
				worst = lm
			}
		}
		return worst
	}
	return nil
}

func (s *inprocSink) close() error { return s.op.Close() }

// httpSink POSTs NDJSON batches to a pskyline serve-mode host.
type httpSink struct {
	url    string
	client *http.Client
	bufs   sync.Pool
}

func newHTTPSink(cfg config) *httpSink {
	return &httpSink{
		url:    strings0(cfg.target) + "/streams/" + cfg.stream + "/push",
		client: &http.Client{Timeout: 30 * time.Second},
		bufs:   sync.Pool{New: func() any { return new(bytes.Buffer) }},
	}
}

// strings0 trims a single trailing slash.
func strings0(u string) string {
	for len(u) > 0 && u[len(u)-1] == '/' {
		u = u[:len(u)-1]
	}
	return u
}

func (s *httpSink) push(es []pskyline.Element) error {
	buf := s.bufs.Get().(*bytes.Buffer)
	defer func() { buf.Reset(); s.bufs.Put(buf) }()
	enc := json.NewEncoder(buf)
	for i := range es {
		if err := enc.Encode(&es[i]); err != nil {
			return err
		}
	}
	resp, err := s.client.Post(s.url, "application/x-ndjson", buf)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("push: status %d", resp.StatusCode)
	}
	return nil
}

func (s *httpSink) visible() *pskyline.LatencyMetrics { return nil }
func (s *httpSink) close() error                      { return nil }

// arrival is one scheduled request: a batch of elements due at sched.
type arrival struct {
	sched time.Time
	els   []pskyline.Element
	warm  bool
}

// rateResult summarizes one offered rate: exact external quantiles (scheduled
// arrival → completion) plus the monitor's internal visibility view when
// available. All durations are milliseconds.
type rateResult struct {
	Label    string `json:"label"`
	Mode     string `json:"mode"`
	Tracking bool   `json:"latency_tracking"`
	Dist     string `json:"dist"`
	Dims     int    `json:"dims"`
	Window   int    `json:"window"`
	Batch    int    `json:"batch"`
	Workers  int    `json:"workers"`
	Shards   int    `json:"shards,omitempty"`
	Async    int    `json:"async,omitempty"`
	// Offered and ElemsPS are both in elements per second: the offered
	// rate, and the completed rate over the span of completions.
	Offered float64 `json:"offered_rate"`

	Scheduled int `json:"scheduled"`
	Completed int `json:"completed"`
	Dropped   int `json:"dropped"`

	MeanMs  float64 `json:"mean_ms"`
	P50Ms   float64 `json:"p50_ms"`
	P90Ms   float64 `json:"p90_ms"`
	P99Ms   float64 `json:"p99_ms"`
	P999Ms  float64 `json:"p999_ms"`
	MaxMs   float64 `json:"max_ms"`
	ElemsPS float64 `json:"elems_per_sec"`

	VisibleP50Ms float64 `json:"visible_p50_ms,omitempty"`
	VisibleP99Ms float64 `json:"visible_p99_ms,omitempty"`
}

// runRate drives one offered rate through the sink: an open-loop dispatcher
// releases arrivals on the fixed schedule into a buffered channel (never
// blocking on the system under test), workers drain it, and each sample's
// latency runs from the arrival's scheduled time to its completion.
func runRate(s sink, cfg config, rate float64) rateResult {
	gen := newStream(cfg)
	interval := time.Duration(float64(cfg.batch) / rate * float64(time.Second))
	if interval <= 0 {
		interval = time.Nanosecond
	}
	warmN := int(cfg.warmup.Seconds() * rate / float64(cfg.batch))
	measN := int(cfg.dur.Seconds() * rate / float64(cfg.batch))
	if measN < 1 {
		measN = 1
	}

	// Pre-generate every arrival so the dispatcher's only job is pacing.
	arrivals := make([]arrival, warmN+measN)
	for i := range arrivals {
		els := make([]pskyline.Element, cfg.batch)
		for j := range els {
			e := gen.Next()
			els[j] = pskyline.Element{Point: e.Point, Prob: e.P, TS: e.TS}
		}
		arrivals[i] = arrival{els: els, warm: i < warmN}
	}

	ch := make(chan *arrival, len(arrivals)) // dispatcher never blocks
	var (
		mu       sync.Mutex
		samples  []float64 // measured latencies, ns
		dropped  int
		firstEnd time.Time
		lastEnd  time.Time
	)
	var wg sync.WaitGroup
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]float64, 0, measN/cfg.workers+1)
			localDropped := 0
			var lo, hi time.Time
			for a := range ch {
				err := s.push(a.els)
				end := time.Now()
				if a.warm {
					continue
				}
				if err != nil {
					localDropped++
					continue
				}
				local = append(local, float64(end.Sub(a.sched)))
				if lo.IsZero() || end.Before(lo) {
					lo = end
				}
				if end.After(hi) {
					hi = end
				}
			}
			mu.Lock()
			samples = append(samples, local...)
			dropped += localDropped
			if firstEnd.IsZero() || (!lo.IsZero() && lo.Before(firstEnd)) {
				firstEnd = lo
			}
			if hi.After(lastEnd) {
				lastEnd = hi
			}
			mu.Unlock()
		}()
	}

	// The open-loop pacer: arrival i is due at start + i*interval, released
	// then regardless of how far behind the workers are.
	start := time.Now()
	for i := range arrivals {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		arrivals[i].sched = due
		ch <- &arrivals[i]
	}
	close(ch)
	wg.Wait()

	res := rateResult{
		Label: cfg.label, Mode: cfg.mode, Tracking: !cfg.noLat,
		Dist: cfg.dims2dist(cfg.dist), Dims: cfg.dims, Window: cfg.window,
		Batch: cfg.batch, Workers: cfg.workers,
		Offered:   rate,
		Scheduled: measN,
		Completed: len(samples),
		Dropped:   dropped,
	}
	if cfg.target != "" {
		res.Mode = "http"
	}
	switch res.Mode {
	case "async":
		res.Async = cfg.async
	case "sharded":
		res.Shards = cfg.shards
	}
	if res.Completed+res.Dropped != res.Scheduled {
		// Every measured arrival must be accounted for — a bug in the
		// harness, not the system under test.
		panic(fmt.Sprintf("accounting: scheduled %d != completed %d + dropped %d",
			res.Scheduled, res.Completed, res.Dropped))
	}
	if len(samples) > 0 {
		sort.Float64s(samples)
		ms := func(ns float64) float64 { return ns / 1e6 }
		var sum float64
		for _, v := range samples {
			sum += v
		}
		res.MeanMs = ms(sum / float64(len(samples)))
		res.P50Ms = ms(quantile(samples, 0.50))
		res.P90Ms = ms(quantile(samples, 0.90))
		res.P99Ms = ms(quantile(samples, 0.99))
		res.P999Ms = ms(quantile(samples, 0.999))
		res.MaxMs = ms(samples[len(samples)-1])
		if span := lastEnd.Sub(firstEnd); span > 0 {
			res.ElemsPS = float64(res.Completed*cfg.batch) / span.Seconds()
		}
	}
	if lm := s.visible(); lm != nil {
		res.VisibleP50Ms = lm.Visible.P50Ns / 1e6
		res.VisibleP99Ms = lm.Visible.P99Ns / 1e6
	}
	return res
}

// quantile reads q from sorted samples (exact, nearest-rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// dims2dist normalizes the distribution name for the result row.
func (c config) dims2dist(d string) string {
	if d == "" {
		return "inde"
	}
	return d
}

// newStream builds the element generator for one rate run. Every rate reuses
// the same seed, so sweeps compare latency under identical data.
func newStream(cfg config) streamgen.Stream {
	dist := streamgen.Independent
	switch cfg.dist {
	case "corr":
		dist = streamgen.Correlated
	case "anti":
		dist = streamgen.Anticorrelated
	case "clus":
		dist = streamgen.Clustered
	}
	return streamgen.New(cfg.dims, dist, streamgen.UniformProb{}, cfg.seed)
}

// sweep runs every offered rate against a fresh sink, prints the table, and
// appends the rows to the trajectory file.
func sweep(cfg config, out io.Writer) error {
	fmt.Fprintf(out, "pskyload: %s mode, dist=%s dims=%d window=%d batch=%d workers=%d tracking=%v\n",
		modeName(cfg), cfg.dist, cfg.dims, cfg.window, cfg.batch, cfg.workers, !cfg.noLat)
	fmt.Fprintf(out, "%-10s %-10s %-9s %-9s %-9s %-9s %-9s %-8s %-11s %s\n",
		"rate", "achieved", "p50ms", "p90ms", "p99ms", "p999ms", "maxms", "dropped", "vis_p50ms", "vis_p99ms")
	var rows []rateResult
	for _, rate := range cfg.rates {
		// A fresh sink per rate: no carry-over window state between rates.
		s, err := newSink(cfg)
		if err != nil {
			return err
		}
		r := runRate(s, cfg, rate)
		if err := s.close(); err != nil {
			return err
		}
		rows = append(rows, r)
		vis50, vis99 := "-", "-"
		if r.VisibleP50Ms > 0 || r.VisibleP99Ms > 0 {
			vis50 = fmt.Sprintf("%.3f", r.VisibleP50Ms)
			vis99 = fmt.Sprintf("%.3f", r.VisibleP99Ms)
		}
		fmt.Fprintf(out, "%-10.0f %-10.0f %-9.3f %-9.3f %-9.3f %-9.3f %-9.3f %-8d %-11s %s\n",
			r.Offered, r.ElemsPS, r.P50Ms, r.P90Ms, r.P99Ms, r.P999Ms, r.MaxMs,
			r.Dropped, vis50, vis99)
	}
	fmt.Fprintf(out, "(open-loop: latency measured from each arrival's scheduled time — stalls are charged to every arrival due during them)\n")
	if cfg.out != "" {
		if err := appendRows(cfg.out, cfg.label, rows); err != nil {
			return err
		}
		fmt.Fprintf(out, "pskyload: %d rows appended to %s\n", len(rows), cfg.out)
	}
	return nil
}

func modeName(cfg config) string {
	if cfg.target != "" {
		return "http(" + cfg.target + ")"
	}
	return cfg.mode
}

func newSink(cfg config) (sink, error) {
	if cfg.target != "" {
		return newHTTPSink(cfg), nil
	}
	return newInprocSink(cfg)
}

// benchFile is the JSON trajectory: one run per sweep invocation, appended.
type benchFile struct {
	Note string     `json:"note"`
	Runs []benchRun `json:"runs"`
}

type benchRun struct {
	Label string       `json:"label"`
	When  string       `json:"when"`
	Go    string       `json:"go"`
	Rows  []rateResult `json:"rows"`
}

const benchNote = "pskyload open-loop latency sweeps; quantiles exact over all samples; " +
	"latency measured from scheduled arrival (coordinated-omission aware); see DESIGN.md §15"

// appendRows merges the new rows into the trajectory file, creating it if
// absent.
func appendRows(path, label string, rows []rateResult) error {
	var bf benchFile
	if data, err := readFile(path); err == nil {
		if err := json.Unmarshal(data, &bf); err != nil {
			return fmt.Errorf("%s: existing file is not a pskyload trajectory: %v", path, err)
		}
	}
	bf.Note = benchNote
	bf.Runs = append(bf.Runs, benchRun{
		Label: label,
		When:  time.Now().UTC().Format(time.RFC3339),
		Go:    runtime.Version(),
		Rows:  rows,
	})
	data, err := json.MarshalIndent(&bf, "", "  ")
	if err != nil {
		return err
	}
	return writeFile(path, append(data, '\n'))
}

// renderFile prints a trajectory file as one markdown table.
func renderFile(path string, out io.Writer) error {
	data, err := readFile(path)
	if err != nil {
		return err
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	fmt.Fprintln(out, "| mode | tracking | offered (elems/s) | achieved | p50 (ms) | p99 (ms) | p999 (ms) | max (ms) | visible p50 (ms) | visible p99 (ms) | dropped |")
	fmt.Fprintln(out, "|------|----------|------------------:|---------:|---------:|---------:|----------:|---------:|-----------------:|-----------------:|--------:|")
	for _, run := range bf.Runs {
		for _, r := range run.Rows {
			track := "on"
			if !r.Tracking {
				track = "off"
			}
			vis50, vis99 := "—", "—"
			if r.VisibleP50Ms > 0 || r.VisibleP99Ms > 0 {
				vis50 = fmt.Sprintf("%.3f", r.VisibleP50Ms)
				vis99 = fmt.Sprintf("%.3f", r.VisibleP99Ms)
			}
			fmt.Fprintf(out, "| %s | %s | %.0f | %.0f | %.3f | %.3f | %.3f | %.3f | %s | %s | %d |\n",
				r.Mode, track, r.Offered, r.ElemsPS,
				r.P50Ms, r.P99Ms, r.P999Ms, r.MaxMs, vis50, vis99, r.Dropped)
		}
	}
	return nil
}

func readFile(path string) ([]byte, error)     { return os.ReadFile(path) }
func writeFile(path string, data []byte) error { return os.WriteFile(path, data, 0o644) }

// buildString reports the binary's build stamp for -version.
func buildString() string {
	s := "pskyload (" + runtime.Version() + ")"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" && kv.Value != "" {
				rev := kv.Value
				if len(rev) > 12 {
					rev = rev[:12]
				}
				s += " revision " + rev
			}
		}
	}
	return s
}
