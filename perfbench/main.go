// Command perfbench is the repository's end-to-end benchmark. For one
// workload it builds the system under test, fills its window, drives it
// with one closed-loop writer and one closed-loop reader, checks the final
// answer against a reference engine fed the identical input, and prints
// one JSON result as the last line of standard output.
//
// A run builds several systems in turn, each from its own input derived
// from the seed, and splits the timed phase among them in short blocks:
// one window's state varies from input to input, and the machine's speed
// from second to second, so a run measures several of each.
//
// With -trace 1 it instead reports per-layer metrics: the closed loop runs
// in blocks that alternate between untraced and a span per call (the
// difference is the tracing overhead), then the ladder in ladder.go feeds
// the workload's input through each layer in turn.
//
//	perfbench -workload point-writes -seed 1 -seconds 15 -trace 0 -server-bin ./pskyline
//
// run.sh builds this program and the pskyline server from source and runs
// it from the repository root.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// config is one invocation's settings. Fields below the flags are test
// hooks; zero selects the benchmark's value.
type config struct {
	seed      int64
	seconds   float64
	trace     bool
	serverBin string
	workdir   string

	systems       int // systems built per run; see timed for how their figures combine
	tailMin       int // samples a latency phase must leave beyond p99
	ladderPush    int
	ladderBatches int
}

func (c *config) defaults() {
	if c.systems == 0 {
		c.systems = 5
	}
	if c.tailMin == 0 {
		c.tailMin = 10
	}
	if c.ladderPush == 0 {
		c.ladderPush = ladderPush
	}
	if c.ladderBatches == 0 {
		c.ladderBatches = ladderBatches
	}
}

// subSeed derives the input seed of the k-th system of a run.
func subSeed(seed int64, k int) int64 { return seed*1000 + int64(k) }

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics keeps reported figures in the order they were added.
type metrics struct {
	names []string
	vals  map[string]metric
}

func (m *metrics) add(name string, v float64, unit string) {
	if m.vals == nil {
		m.vals = make(map[string]metric)
	}
	if _, ok := m.vals[name]; !ok {
		m.names = append(m.names, name)
	}
	m.vals[name] = metric{v, unit}
}

func (m *metrics) get(name string) float64 { return m.vals[name].Value }

func (m *metrics) merge(o metrics) {
	for _, n := range o.names {
		m.add(n, o.vals[n].Value, o.vals[n].Unit)
	}
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	m      metrics
	digest uint64 // the first system's inputs.digest over 256 timed elements
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	secs := fs.Float64("seconds", 15, "timed phase length in seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	bin := fs.String("server-bin", ".bench_build/pskyline", "pskyline binary for http-ingest and the ladder's HTTP rung")
	work := fs.String("workdir", ".bench_build/tmp", "directory for WALs, server data and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg := config{seed: *seed, seconds: *secs, trace: *trace == 1, serverBin: *bin, workdir: *work}
	res, err := runWorkload(w, cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := writeResult(stdout, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// writeResult prints res as one JSON line.
func writeResult(w io.Writer, res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runWorkload runs one workload end to end, or traced when cfg.trace.
func runWorkload(w workload, cfg config, log io.Writer) (*result, error) {
	cfg.defaults()
	if abs, err := filepath.Abs(cfg.serverBin); err == nil {
		cfg.serverBin = abs
	}
	res := &result{Correct: true}
	var err error
	if cfg.trace {
		err = traced(w, cfg, res, log)
	} else {
		err = timed(w, cfg, res, log)
	}
	if err != nil {
		return nil, err
	}
	res.Metrics = res.m.vals
	for _, n := range res.m.names {
		if v := res.m.vals[n].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", n, v)
		}
	}
	return res, nil
}

// build constructs the workload's system and fills its window. For the
// HTTP server the prefill is encoded by the caller, before any clock.
func build(w workload, cfg config, in *inputs, bodies [][]byte) (system, error) {
	switch w.kind {
	case semiSync:
		return buildSemiSync(w, in, cfg.workdir)
	case httpServe:
		return buildHTTP(w, cfg.serverBin, cfg.workdir, bodies)
	default:
		return buildMonitor(w, in)
	}
}

// prefillBodies encodes the prefill for the HTTP server; nil otherwise.
func prefillBodies(w workload, in *inputs) [][]byte {
	if w.kind != httpServe {
		return nil
	}
	return encodeChunks(in)
}

// liveHeap is the live heap after two collections: the first moves
// sync.Pool contents to the victim cache, the second frees them, so a
// previous system's pooled objects are not counted.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// systemMB is the memory a system holds: the HTTP server's peak RSS, or
// for in-process systems the live heap above base.
func systemMB(sys system, base uint64) (float64, error) {
	if h, ok := sys.(*httpSys); ok {
		return h.peakRSSMB()
	}
	return float64(int64(liveHeap())-int64(base)) / (1 << 20), nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// mean is used for memory: a system's heap steps with the peak sizes its
// input drove its pools and maps to, and a median would pick one step.
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// blocks is how many timed blocks each system's share of the phase is cut
// into. The machine's speed drifts by a fifth within seconds, so rates and
// medians are taken per block and the median over blocks is reported.
const blocks = 3

// timed is the end-to-end run. Each of cfg.systems systems gets its own
// input, is set up under the clock, runs its share of the timed phase in
// blocks, has its memory taken and its answer checked, and is closed.
// Rates and medians are the median over all blocks, so neither one
// system's input nor a burst of machine noise sets them; p99 latencies
// pool every sample, because one block leaves too few beyond its p99.
func timed(w workload, cfg config, res *result, log io.Writer) error {
	var (
		setups, mems      []float64
		eps, wp50, rp50   []float64
		writeLat, readLat []time.Duration
		all               phase
	)
	per := time.Duration(cfg.seconds * float64(time.Second) / float64(cfg.systems*blocks))
	for k := 0; k < cfg.systems; k++ {
		in := genInputs(w, subSeed(cfg.seed, k))
		if k == 0 {
			res.digest = in.digest(256)
		}
		bodies := prefillBodies(w, in)
		base := liveHeap()
		t0 := time.Now()
		sys, err := build(w, cfg, in, bodies)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		var wl, rl []time.Duration
		consumed := 0
		for b := 0; b < blocks; b++ {
			runtime.GC()
			ph := closedLoop(sys, w, in, consumed, per, nil, 0)
			consumed += ph.consumed
			eps = append(eps, ph.writeEPS())
			wp50, rp50 = append(wp50, medianMS(ph.writeLat)), append(rp50, medianMS(ph.readLat))
			wl, rl = append(wl, ph.writeLat...), append(rl, ph.readLat...)
			count(res, ph, log)
			all.add(ph)
			// Memory is taken after every block: as the window slides each
			// block leaves a different state. The 8-byte latency samples
			// are the benchmark's, not the system's.
			mem, err := systemMB(sys, base+uint64(8*(cap(wl)+cap(rl))))
			if err != nil {
				return errors.Join(err, sys.close())
			}
			mems = append(mems, mem)
		}
		checkErr := checkSystem(sys, w, in, consumed)
		if err := sys.close(); err != nil {
			return err
		}
		verdict(res, checkErr, log)
		writeLat, readLat = append(writeLat, wl...), append(readLat, rl...)
	}
	// A phase without enough samples for its p99 fails the run.
	if err := errors.Join(tailCheck("writes", writeLat, cfg.tailMin), tailCheck("reads", readLat, cfg.tailMin)); err != nil {
		return err
	}
	m := &res.m
	m.add("setup_s", median(setups), "s")
	m.add("write_eps", median(eps), "1/s")
	p99, _ := quantile(writeLat, 0.99)
	m.add("write_p50_ms", median(wp50), "ms")
	m.add("write_p99_ms", p99, "ms")
	p99, _ = quantile(readLat, 0.99)
	m.add("read_p50_ms", median(rp50), "ms")
	m.add("read_p99_ms", p99, "ms")
	m.add("mem_mb", mean(mems), "MB")
	fmt.Fprintf(log, "perfbench: %s seed %d: setups %.3v s, mem %.3v MB, elem/s %.4v, %d writes (%d elements) in %v, %d reads at %.1f/s\n",
		w.name, cfg.seed, setups, mems, eps, all.writes, all.applied, all.elapsed.Round(time.Millisecond), all.reads, all.readRate())
	return nil
}

// checkSystem compares the system with a reference engine fed the
// prefill and the consumed elements.
func checkSystem(sys system, w workload, in *inputs, consumed int) error {
	ref, err := reference(w, in, consumed)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	return sys.check(ref)
}

// count adds the phase's operations and failures to res.
func count(res *result, ph phase, log io.Writer) {
	res.Attempted += ph.writes + ph.reads
	res.Failed += ph.writeFails + ph.readFails
	if ph.firstErr != nil {
		fmt.Fprintf(log, "perfbench: first failure: %v\n", ph.firstErr)
	}
}

// verdict applies a correctness check's outcome: a wrong answer marks the
// result incorrect.
func verdict(res *result, checkErr error, log io.Writer) {
	if checkErr != nil {
		fmt.Fprintf(log, "perfbench: correctness check failed: %v\n", checkErr)
		res.Correct = false
	}
}

// tracedPairs is how many untraced/traced block pairs the traced run
// alternates. Alternating keeps machine drift out of the tracing overhead.
const tracedPairs = 3

// traced is the per-layer run on the first system's input: the closed
// loop in alternating untraced and traced blocks on one system, then the
// ladder. Rates are medians over each kind's blocks; the GC figures and
// the reader's rate come from the untraced blocks.
func traced(w workload, cfg config, res *result, log io.Writer) error {
	in := genInputs(w, subSeed(cfg.seed, 0))
	res.digest = in.digest(256)
	tr := newTracer()
	sys, err := build(w, cfg, in, prefillBodies(w, in))
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	per := time.Duration(cfg.seconds * float64(time.Second) / (2 * tracedPairs))
	var (
		plainEPS, spanEPS []float64
		plain             phase
		gcs, pauseNs      uint64
		ms0, ms1          runtime.MemStats
	)
	loopID := tr.id()
	t0 := time.Now()
	consumed := 0
	for b := 0; b < 2*tracedPairs; b++ {
		runtime.GC()
		var ph phase
		if b%2 == 0 {
			runtime.ReadMemStats(&ms0)
			ph = closedLoop(sys, w, in, consumed, per, nil, 0)
			runtime.ReadMemStats(&ms1)
			gcs += uint64(ms1.NumGC - ms0.NumGC)
			pauseNs += ms1.PauseTotalNs - ms0.PauseTotalNs
			plainEPS = append(plainEPS, ph.writeEPS())
			plain.add(ph)
		} else {
			ph = closedLoop(sys, w, in, consumed, per, tr, loopID)
			spanEPS = append(spanEPS, ph.writeEPS())
		}
		consumed += ph.consumed
		count(res, ph, log)
	}
	tr.record(loopID, 0, "loop", t0, time.Now())
	checkErr := checkSystem(sys, w, in, consumed)
	if err := sys.close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	verdict(res, checkErr, log)

	l := newLadder(w, in, tr, cfg)
	if err := l.run(); err != nil {
		return err
	}
	m := &res.m
	m.merge(l.m)
	m.add("runtime.gc_cycles_per_kelem", float64(gcs)/(float64(plain.applied)/1000), "count")
	m.add("runtime.gc_pause_ms", float64(pauseNs)/1e6, "ms")
	m.add("trace.write_eps_untraced", median(plainEPS), "1/s")
	m.add("trace.write_eps_traced", median(spanEPS), "1/s")
	m.add("trace.overhead_pct", 100*(1-median(spanEPS)/median(plainEPS)), "%")
	m.add("loop.read_rate_hz", plain.readRate(), "1/s")
	if err := dumpSpans(tr, filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-%d.jsonl", w.name, cfg.seed))); err != nil {
		return err
	}
	fmt.Fprintf(log, "perfbench: %s seed %d traced: %.0f elem/s untraced, %.0f traced (%.2f%% overhead); %d spans\n",
		w.name, cfg.seed, m.get("trace.write_eps_untraced"), m.get("trace.write_eps_traced"), m.get("trace.overhead_pct"), len(tr.spans))
	return nil
}

// dumpSpans writes every recorded span as one JSON object per line.
func dumpSpans(tr *tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
