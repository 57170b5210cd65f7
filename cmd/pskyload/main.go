// Command pskyload is an open-loop, coordinated-omission-aware load generator
// for the probabilistic skyline monitor. It sweeps a list of offered rates
// against either an in-process monitor (-mode sync|async|sharded) or a
// running pskyline serve-mode host (-target URL), and reports a
// latency-versus-rate table.
//
// Open loop means arrivals are scheduled on a fixed clock — arrival i is due
// at start + i/rate — and the schedule never waits for the system under
// test. Each sample's latency is measured from its *scheduled* arrival time
// to its completion, not from the moment the request was actually sent, so
// when the system stalls, every arrival due during the stall observes the
// stall (the coordinated-omission correction; a closed-loop harness would
// pause the clock and silently under-report exactly the latencies that
// matter). Reported quantiles are exact: every sample is kept and sorted.
//
// In-process mode builds the monitor in the harness process and additionally
// scrapes the monitor's own ingest-to-visibility instrumentation (DESIGN.md
// §15), so the external view (scheduled arrival → push returned) and the
// internal view (admission → view publish) appear side by side. That
// instrumentation is always on; rows keep a latency_tracking field so older
// trajectories' instrumentation-off control rows still render as such.
//
// Results append to a JSON trajectory file (-out, default off) so successive
// runs and variants accumulate; -render FILE prints such a file as a
// markdown table and exits.
//
// Usage:
//
//	pskyload -mode sync -rates 5000,10000,20000 -duration 2s -out BENCH_latency.json
//	pskyload -mode sharded -shards 4 -batch 64 -rates 50000,100000
//	pskyload -target http://localhost:8080 -stream hot -rates 1000,2000
//	pskyload -render BENCH_latency.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

type config struct {
	dims    int
	window  int
	qs      []float64
	dist    string
	seed    int64
	rates   []float64
	dur     time.Duration
	warmup  time.Duration
	batch   int
	workers int
	mode    string
	async   int
	shards  int
	target  string
	stream  string
	out     string
	label   string
}

func main() {
	var (
		dims    = flag.Int("dims", 2, "dimensionality of the generated points")
		window  = flag.Int("window", 10000, "count-based sliding window size")
		qList   = flag.String("q", "0.3", "comma-separated probability thresholds")
		dist    = flag.String("dist", "inde", "spatial distribution: inde, corr, anti, clus")
		seed    = flag.Int64("seed", 1, "random seed for the generated stream")
		rates   = flag.String("rates", "2000,5000,10000", "comma-separated offered rates to sweep, in elements/sec")
		dur     = flag.Duration("duration", 2*time.Second, "measured time per rate")
		warmup  = flag.Duration("warmup", 500*time.Millisecond, "per-rate warmup at the offered rate; samples discarded")
		batch   = flag.Int("batch", 1, "elements per request (arrival rate = rate/batch)")
		workers = flag.Int("workers", 4, "concurrent senders draining the arrival schedule")
		mode    = flag.String("mode", "sync", "in-process monitor variant: sync, async or sharded (ignored with -target)")
		async   = flag.Int("async", 4096, "async queue capacity for -mode async")
		shards  = flag.Int("shards", 4, "shard count for -mode sharded")
		target  = flag.String("target", "", "load a running pskyline host at this base URL instead of an in-process monitor")
		stream  = flag.String("stream", "bench", "stream name to push to on -target hosts")
		out     = flag.String("out", "", "append results to this JSON trajectory file")
		label   = flag.String("label", "local", "label naming this run in the trajectory file")
		render  = flag.String("render", "", "render a JSON trajectory file as a markdown table and exit")
		version = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildString())
		return
	}
	if *render != "" {
		if err := renderFile(*render, os.Stdout); err != nil {
			fatal("%v", err)
		}
		return
	}

	cfg := config{
		dims: *dims, window: *window, dist: *dist, seed: *seed,
		dur: *dur, warmup: *warmup, batch: *batch, workers: *workers,
		mode: *mode, async: *async, shards: *shards,
		target: *target, stream: *stream, out: *out, label: *label,
	}
	for _, s := range strings.Split(*qList, ",") {
		q, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			fatal("bad threshold %q: %v", s, err)
		}
		cfg.qs = append(cfg.qs, q)
	}
	for _, s := range strings.Split(*rates, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil || r <= 0 {
			fatal("bad rate %q", s)
		}
		cfg.rates = append(cfg.rates, r)
	}
	if err := sweep(cfg, os.Stdout); err != nil {
		fatal("%v", err)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pskyload: "+format+"\n", args...)
	os.Exit(1)
}
