// Command pskyline maintains a continuous probabilistic skyline over a CSV
// stream (as produced by cmd/datagen): each input line holds d coordinates,
// an occurrence probability, and optionally a timestamp.
//
// By default it prints enter/leave events for the q_1-skyline as the window
// slides; -snapshot N prints a skyline snapshot every N elements instead,
// and -summary prints only the final statistics. Snapshots are served from
// the monitor's published read view — the same lock-free path a concurrent
// query workload would use while the stream keeps flowing.
//
// -batch B ingests the stream through PushBatch in batches of B elements,
// and -async C routes ingestion through a bounded async queue of capacity C
// (drained before every snapshot print and at exit); both amortize view
// publication on write-heavy streams.
//
// -http ADDR serves the monitor's observability endpoints while the stream
// flows: /metrics (Prometheus), /healthz, /buildinfo, /debug/skyline (current
// skyline + recent transitions), /debug/flight (flight-recorder span dump)
// and /debug/pprof. With -http the process stays up after the input ends,
// still serving, until SIGINT/SIGTERM. -summary
// additionally prints the work counters, per-stage latency quantiles, and the
// ingest-to-visibility latency block at exit.
//
// Ingest-to-visibility latency tracking and the flight recorder are always on
// (allocation-free; see DESIGN.md §15); -slow-threshold tunes the slow-span
// latch, and -latency-epoch the recent-quantile window rotation. -version
// prints the build stamp (VCS revision, Go toolchain) and exits.
//
// -wal DIR makes the session crash-recoverable: every element is written to a
// segmented write-ahead log in DIR before it is applied, checkpoints are
// installed automatically (and once more at clean exit), and a restart with
// the same -wal DIR recovers the newest checkpoint and replays the committed
// log tail before reading new input. -wal-fsync picks the commit durability
// policy (always|interval|never). With -http, the server comes up before
// recovery starts and answers 503 {"status":"recovering"} until replay
// completes, so readiness probes hold traffic during long replays. -wal is
// also how a session is resumed: rerun with the same -wal DIR (and the same
// -dims, -window/-period and -q) and the stream continues where it stopped.
//
// -shards N partitions the window across N single-writer engines behind one
// exact merged query surface (see DESIGN.md §13); -router picks the
// partitioning scheme. Sharding composes with -batch, -async, -wal (each
// shard gets its own WAL namespace under DIR) and -http, but not with the
// default event mode (use -summary or -snapshot).
//
// -streams runs the process as a multi-tenant host instead: each
// ";"-separated spec (name:dims=..,window=..,q=..[,shards=..][,wal=on],...)
// opens an independently configured named stream, ingested and queried over
// HTTP (POST /streams/{name}/push, GET /streams/{name}/skyline) with shared
// /metrics and /healthz. Requires -http; stdin ingestion is disabled; -wal
// DIR roots every durable stream's namespace at DIR/streams/<name>.
//
// Usage:
//
//	datagen -dist anti -dims 3 -n 200000 | pskyline -dims 3 -window 100000 -q 0.3 -summary
//	pskyline -dims 2 -window 1000 -q 0.5,0.3 -snapshot 500 < stream.csv
//	pskyline -dims 3 -window 100000 -q 0.3 -batch 512 -async 4096 -summary < stream.csv
//	datagen -dims 2 -n 1000000 | pskyline -dims 2 -window 10000 -q 0.3 -http :8080 -summary
//	datagen -dims 3 -n 500000 | pskyline -dims 3 -window 50000 -q 0.3 -wal ./wal -wal-fsync interval -summary
//	datagen -dims 3 -n 500000 | pskyline -dims 3 -window 50000 -q 0.3 -shards 4 -batch 256 -summary
//	pskyline -streams "hot:dims=2,window=1000,q=0.5;cold:dims=3,window=5000,q=0.3,shards=4,wal=on" -wal ./data -http :8080
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pskyline"
	"pskyline/internal/repl"
)

// config collects the parsed command line so tests can drive run directly.
type config struct {
	dims        int
	window      int
	period      int64
	thresholds  []float64
	snapshot    int
	summary     bool
	file        string
	batch       int
	async       int
	httpAddr    string
	asyncPolicy string
	shards      int
	router      string
	streams     string
	// latency instrumentation
	slowThreshold time.Duration
	latencyEpoch  time.Duration
	// durability (-wal family)
	walDir       string
	walFsync     string
	walPolicy    string
	walSegmentMB int
	walCkptEvery int
	walFault     string
	walFaultSeed int64
	// replication (-replicate-listen / -replica-of / -promote)
	replListen    string
	replicaOf     string
	promote       string
	replSemiK     int
	replAckWait   time.Duration
	replFault     string
	replFaultSeed int64
	// stop overrides the serve-mode shutdown trigger (nil = OS signals);
	// tests close it to unblock run without sending a signal.
	stop <-chan struct{}
}

func main() {
	var (
		dims     = flag.Int("dims", 2, "dimensionality of the input points")
		window   = flag.Int("window", 100000, "count-based sliding window size")
		period   = flag.Int64("period", 0, "time-based window period (overrides -window; input must carry timestamps)")
		qList    = flag.String("q", "0.3", "comma-separated probability thresholds")
		snapshot = flag.Int("snapshot", 0, "print a skyline snapshot every N elements instead of events")
		summary  = flag.Bool("summary", false, "print only final statistics")
		file     = flag.String("f", "", "input file (default stdin)")
		batch    = flag.Int("batch", 1, "ingest the stream in batches of this many elements")
		async    = flag.Int("async", 0, "route ingestion through a bounded async queue of this capacity (0 = synchronous)")
		asyncPol = flag.String("async-policy", "block", "full async queue response: block (backpressure), drop-newest or drop-oldest")
		httpAddr = flag.String("http", "", "serve /metrics, /healthz, /debug/skyline and /debug/pprof on this address (e.g. :8080); the process then stays up after EOF until SIGINT/SIGTERM")
		shards   = flag.Int("shards", 1, "partition the window across this many single-writer engines with an exact merged query surface")
		router   = flag.String("router", "grid", "shard router: grid (spatial cells) or band (probability bands)")
		streams  = flag.String("streams", "", "multi-tenant mode: ';'-separated stream specs name:dims=..,window=..,q=..[,shards=..][,wal=on]; requires -http, disables stdin ingestion")
		walDir   = flag.String("wal", "", "durability directory: write-ahead log + checkpoints; recovers existing state at start")
		walFsync = flag.String("wal-fsync", "interval", "WAL commit durability: always, interval or never")
		walPol   = flag.String("wal-policy", "failstop", "durability failure response: failstop, retry or shed")
		walSegMB = flag.Int("wal-segment-mb", 0, "WAL segment rotation threshold in MiB (0 = default 64)")
		walEvery = flag.Int("wal-checkpoint-every", 0, "install a checkpoint every N ingested elements (0 = default, negative = only at exit)")
		walFault = flag.String("wal-fault", "", "chaos testing: seeded fault schedule for the durability filesystem (e.g. \"sync:after=40:times=3;write:partial=7\")")
		walFSeed = flag.Int64("wal-fault-seed", 0, "seed for probabilistic -wal-fault rules (0 = 1)")
		slowThr  = flag.Duration("slow-threshold", 0, "latch writes at or above this admission-to-visibility latency into the flight recorder's slow ring (0 = default 5ms)")
		latEpoch = flag.Duration("latency-epoch", 0, "rotation interval of the windowed latency histograms; recent quantiles cover 6 epochs (0 = default 10s)")
		replLis  = flag.String("replicate-listen", "", "primary mode: stream the WAL to read-only replicas on this address (requires -wal, single engine)")
		replOf   = flag.String("replica-of", "", "replica mode: follow the primary replicating on this address (requires -wal and -http; stdin is not read)")
		promote  = flag.String("promote", "", "promote the replica serving HTTP on this address to a writable primary, then exit")
		replSemK = flag.Int("repl-semisync-k", 0, "semi-sync replication: block each push until this many followers ack it, degrading to async when the quorum cannot keep up (0 = async)")
		replAckW = flag.Duration("repl-ack-wait", 0, "semi-sync ack deadline before a push stops waiting and the stream degrades (0 = default 1s)")
		replFlt  = flag.String("repl-fault", "", "chaos testing: seeded fault schedule for replication connections (e.g. \"write:p=0.1:err=reset;read:delay=20ms\")")
		replFSed = flag.Int64("repl-fault-seed", 0, "seed for probabilistic -repl-fault rules (0 = 1)")
		version  = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(build.String())
		return
	}

	var thresholds []float64
	for _, s := range strings.Split(*qList, ",") {
		q, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			fatal("bad threshold %q: %v", s, err)
		}
		thresholds = append(thresholds, q)
	}

	cfg := config{
		dims: *dims, window: *window, period: *period, thresholds: thresholds,
		snapshot: *snapshot, summary: *summary, file: *file,
		batch: *batch, async: *async, asyncPolicy: *asyncPol, httpAddr: *httpAddr,
		shards: *shards, router: *router, streams: *streams,
		slowThreshold: *slowThr, latencyEpoch: *latEpoch,
		walDir: *walDir, walFsync: *walFsync, walPolicy: *walPol,
		walSegmentMB: *walSegMB, walCkptEvery: *walEvery,
		walFault: *walFault, walFaultSeed: *walFSeed,
		replListen: *replLis, replicaOf: *replOf, promote: *promote,
		replSemiK: *replSemK, replAckWait: *replAckW,
		replFault: *replFlt, replFaultSeed: *replFSed,
	}
	if err := run(cfg, os.Stdin, os.Stdout, os.Stderr); err != nil {
		fatal("%v", err)
	}
}

// options builds the monitor Options every mode starts from: the
// dimensionality, window and thresholds, the async queue and its policy,
// latency tracking and — with -wal — durability.
func (cfg config) options() (pskyline.Options, error) {
	pol, err := pskyline.ParseOverloadPolicy(cfg.asyncPolicy)
	if err != nil {
		return pskyline.Options{}, err
	}
	opt := pskyline.Options{
		Dims: cfg.dims, Thresholds: cfg.thresholds,
		AsyncQueue: cfg.async, AsyncPolicy: pol,
		Latency: pskyline.LatencyOptions{Epoch: cfg.latencyEpoch, SlowThreshold: cfg.slowThreshold},
	}
	if cfg.period > 0 {
		opt.Period = cfg.period
	} else {
		opt.Window = cfg.window
	}
	if cfg.walDir != "" {
		opt.Durability = pskyline.Durability{
			Dir:             cfg.walDir,
			Fsync:           cfg.walFsync,
			Policy:          cfg.walPolicy,
			SegmentBytes:    int64(cfg.walSegmentMB) << 20,
			CheckpointEvery: cfg.walCkptEvery,
			InjectFaults:    cfg.walFault,
			FaultSeed:       cfg.walFaultSeed,
		}
	}
	return opt, nil
}

// run executes one streaming session: create (or, with -wal, recover) the
// monitor, feed the input through it (optionally batched and/or async),
// serve snapshot prints from the published view, and, with -wal, checkpoint
// at exit.
func run(cfg config, stdin io.Reader, out, errw io.Writer) error {
	if cfg.promote != "" {
		return runPromote(cfg.promote, out)
	}
	if cfg.replSemiK < 0 {
		return fmt.Errorf("-repl-semisync-k %d < 0", cfg.replSemiK)
	}
	if cfg.replSemiK > 0 && cfg.replListen == "" {
		return fmt.Errorf("-repl-semisync-k requires -replicate-listen: only a replicating primary waits on acks")
	}
	if cfg.replAckWait != 0 && cfg.replSemiK == 0 {
		return fmt.Errorf("-repl-ack-wait requires -repl-semisync-k")
	}
	if cfg.replFault != "" && cfg.replListen == "" && cfg.replicaOf == "" {
		return fmt.Errorf("-repl-fault requires -replicate-listen or -replica-of: the schedule wraps replication connections")
	}
	if cfg.replicaOf != "" {
		return runReplica(cfg, errw)
	}
	if cfg.streams != "" {
		if cfg.replListen != "" {
			return fmt.Errorf("-replicate-listen replicates a single stream, not -streams")
		}
		return runStreams(cfg, errw)
	}
	if cfg.replListen != "" {
		if cfg.walDir == "" {
			return fmt.Errorf("-replicate-listen requires -wal: the WAL is the replication log")
		}
		if cfg.shards > 1 {
			return fmt.Errorf("-replicate-listen replicates a single-engine stream: -shards must be 1")
		}
	}
	if cfg.batch < 1 {
		return fmt.Errorf("batch size %d < 1", cfg.batch)
	}
	if cfg.shards == 0 {
		cfg.shards = 1
	}
	if cfg.shards < 1 {
		return fmt.Errorf("shard count %d < 1", cfg.shards)
	}
	opt, err := cfg.options()
	if err != nil {
		return err
	}
	quiet := cfg.summary || cfg.snapshot > 0
	if !quiet {
		if cfg.shards > 1 {
			return fmt.Errorf("-shards needs -summary or -snapshot: enter/leave events are per-shard, not global")
		}
		opt.OnEnter = func(p pskyline.SkyPoint) {
			fmt.Fprintf(out, "+ seq=%d pt=%v p=%.3f\n", p.Seq, p.Point, p.Prob)
		}
		opt.OnLeave = func(p pskyline.SkyPoint) {
			fmt.Fprintf(out, "- seq=%d pt=%v\n", p.Seq, p.Point)
		}
	}
	// With durability, the HTTP server comes up before recovery so probes see
	// 503 "recovering" during replay instead of connection refused — with the
	// live replay progress in the body.
	var (
		srv *http.Server
		h   *monitorHandle
		rs  *replState
	)
	if cfg.replListen != "" {
		rs = &replState{}
	}
	if cfg.httpAddr != "" {
		h = newMonitorHandle(nil)
		if cfg.walDir != "" {
			prog := &pskyline.RecoveryProgress{}
			h.progress = prog
			opt.Durability.Progress = prog
		}
		srv, err = startServer(cfg.httpAddr, newServeMux(h, rs), errw)
		if err != nil {
			return err
		}
		defer srv.Close()
	}

	// m is the stream operator: a single *Monitor, or a *ShardedMonitor when
	// -shards > 1. mon is the concrete monitor in single-engine mode, for the
	// monitor-only surfaces (replication, the -summary metrics block).
	var (
		m   pskyline.Operator
		mon *pskyline.Monitor
	)
	if cfg.shards > 1 {
		rt, rerr := parseRouter(cfg.router)
		if rerr != nil {
			return rerr
		}
		m, err = pskyline.NewSharded(pskyline.ShardedOptions{
			Options: opt, Shards: cfg.shards, Router: rt,
		})
	} else {
		mon, err = pskyline.NewMonitor(opt)
		m = mon
	}
	if err != nil {
		return err
	}
	if rec := m.Recovery(); rec.Recovered {
		fmt.Fprintf(errw, "pskyline: recovered from %s: checkpoint seq %d + %d replayed records (%d torn bytes truncated, %d segments dropped) in %v\n",
			cfg.walDir, rec.CheckpointSeq, rec.Replayed,
			rec.TruncatedBytes, rec.SegmentsDropped,
			rec.Duration.Round(time.Millisecond))
	}
	defer m.Close()
	if h != nil {
		h.set(m)
	}
	if cfg.replListen != "" {
		if mon == nil {
			return fmt.Errorf("-replicate-listen requires a single-engine durable monitor")
		}
		epoch, eerr := repl.LoadEpoch(cfg.walDir)
		if eerr != nil {
			return eerr
		}
		sopt := repl.ServerOptions{Epoch: epoch, SemiSyncK: cfg.replSemiK, AckWait: cfg.replAckWait}
		sopt.Fault, err = parseReplFault(cfg)
		if err != nil {
			return err
		}
		rsrv, rerr := repl.NewServer(mon, cfg.replListen, sopt)
		if rerr != nil {
			return rerr
		}
		defer rsrv.Close()
		if rs != nil {
			rs.setServer(rsrv)
		}
		if cfg.replSemiK > 0 {
			fmt.Fprintf(errw, "pskyline: replicating on %s (epoch %d, semi-sync k=%d)\n", rsrv.Addr(), epoch, cfg.replSemiK)
		} else {
			fmt.Fprintf(errw, "pskyline: replicating on %s (epoch %d)\n", rsrv.Addr(), epoch)
		}
	}

	in := stdin
	if cfg.file != "" {
		f, err := os.Open(cfg.file)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}

	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	count := 0
	start := time.Now()
	batch := make([]pskyline.Element, 0, cfg.batch)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if _, err := m.PushBatch(batch); err != nil {
			return err
		}
		batch = batch[:0]
		return nil
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		el, err := parseLine(line, cfg.dims)
		if err != nil {
			return fmt.Errorf("line %d: %v", count+1, err)
		}
		batch = append(batch, el)
		if len(batch) == cfg.batch {
			if err := flush(); err != nil {
				return fmt.Errorf("line %d: %v", count+1, err)
			}
		}
		count++
		if cfg.snapshot > 0 && count%cfg.snapshot == 0 {
			if err := flush(); err != nil {
				return fmt.Errorf("line %d: %v", count, err)
			}
			m.Drain() // with -async: make everything ingested so far visible
			v := m.View()
			sky := v.Skyline()
			fmt.Fprintf(out, "@%d skyline (%d points):\n", v.Processed(), len(sky))
			for _, p := range sky {
				fmt.Fprintf(out, "  seq=%d pt=%v psky=%.4f\n", p.Seq, p.Point, p.Psky)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("read: %v", err)
	}
	if err := flush(); err != nil {
		return err
	}
	m.Drain()
	elapsed := time.Since(start)
	// Everything is drained: one view answers the checkpoint line and the
	// footer alike.
	st := m.View().Stats()
	if cfg.walDir != "" {
		if err := m.Checkpoint(); err != nil {
			return fmt.Errorf("checkpoint: %v", err)
		}
		fmt.Fprintf(errw, "pskyline: checkpoint installed in %s at seq %d\n",
			cfg.walDir, st.Processed)
	}
	fmt.Fprintf(out, "processed %d elements in %v (%.0f elems/sec)\n",
		count, elapsed.Round(time.Millisecond), float64(count)/elapsed.Seconds())
	fmt.Fprintf(out, "candidates: now %d, max %d; skyline: now %d, max %d\n",
		st.Candidates, st.MaxCandidates, st.Skyline, st.MaxSkyline)
	if cfg.summary {
		if mon != nil {
			met := mon.Metrics()
			printWorkSummary(out, met)
			printLatencySummary(out, met.Latency, mon.Flight())
		} else if sm, ok := m.(*pskyline.ShardedMonitor); ok {
			printShardSummary(out, sm)
		}
		if rs != nil {
			printReplSummary(out, rs)
		}
	}
	if srv != nil {
		fmt.Fprintf(errw, "pskyline: stream done, still serving on %s (interrupt to exit)\n", cfg.httpAddr)
		awaitStop(cfg.stop)
		shutdownServer(srv, errw)
	}
	return nil
}

// runStreams hosts a multi-tenant registry of named streams behind the HTTP
// API: stdin is not read, every stream is ingested through POST
// /streams/{name}/push, and -wal DIR (if set) roots the durable streams'
// namespaces. Durable streams checkpoint at clean shutdown.
func runStreams(cfg config, errw io.Writer) error {
	if cfg.httpAddr == "" {
		return fmt.Errorf("-streams requires -http: streams are ingested over HTTP")
	}
	specs, err := pskyline.ParseStreamSpecs(cfg.streams)
	if err != nil {
		return err
	}
	opt, err := cfg.options()
	if err != nil {
		return err
	}
	reg := pskyline.NewStreamRegistry(opt.Durability)
	defer reg.CloseAll()
	for _, sc := range specs {
		op, err := reg.Open(sc)
		if err != nil {
			return err
		}
		if rec := op.Recovery(); rec.Recovered {
			fmt.Fprintf(errw, "pskyline: stream %s: recovered checkpoint seq %d + %d replayed records in %v\n",
				sc.Name, rec.CheckpointSeq, rec.Replayed, rec.Duration.Round(time.Millisecond))
		}
	}
	srv, err := startServer(cfg.httpAddr, newRegistryMux(reg), errw)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Fprintf(errw, "pskyline: hosting %d streams: %s (interrupt to exit)\n",
		len(specs), strings.Join(reg.Names(), ", "))
	awaitStop(cfg.stop)
	shutdownServer(srv, errw)
	for _, name := range reg.Names() {
		cfg, _ := reg.Config(name)
		if !cfg.Durable {
			continue
		}
		if op, ok := reg.Get(name); ok {
			op.Drain()
			if err := op.Checkpoint(); err != nil {
				fmt.Fprintf(errw, "pskyline: stream %s: checkpoint: %v\n", name, err)
			} else {
				fmt.Fprintf(errw, "pskyline: stream %s: checkpoint installed at seq %d\n",
					name, op.View().Processed())
			}
		}
	}
	return reg.CloseAll()
}

// awaitStop blocks until stop closes, or — when stop is nil — until the
// process receives SIGINT or SIGTERM.
func awaitStop(stop <-chan struct{}) {
	if stop == nil {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sig)
		done := make(chan struct{})
		go func() { <-sig; close(done) }()
		stop = done
	}
	<-stop
}

// shutdownServer gracefully drains the HTTP server: stop accepting, let
// in-flight requests finish within the deadline; the caller's deferred Close
// is the hard backstop.
func shutdownServer(srv *http.Server, errw io.Writer) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(errw, "pskyline: http shutdown: %v\n", err)
	}
}

// parseRouter maps the -router flag to a shard router.
func parseRouter(name string) (pskyline.Router, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "grid":
		return pskyline.GridRouter{}, nil
	case "band":
		return pskyline.BandRouter{}, nil
	default:
		return nil, fmt.Errorf("unknown router %q: want grid or band", name)
	}
}

// printShardSummary renders the -summary block for a sharded session: the
// merged view's aggregate work counters plus one line per shard, then the
// shards' merged latency picture.
func printShardSummary(out io.Writer, sm *pskyline.ShardedMonitor) {
	for i := 0; i < sm.NumShards(); i++ {
		met := sm.Shard(i).Metrics()
		c := met.Counters
		fmt.Fprintf(out, "shard %d: processed=%d candidates=%d skyline=%d nodes=%d items=%d expiries=%d\n",
			i, met.Stats.Processed, met.Stats.Candidates, met.Stats.Skyline,
			c.NodesVisited, c.ItemsTouched, c.Expiries)
		if w := met.WAL; w != nil {
			fmt.Fprintf(out, "shard %d wal: state=%s appends=%d commits=%d checkpoints=%d\n",
				i, w.State, w.Appends, w.Commits, w.Checkpoints)
		}
		lm := met.Latency
		fmt.Fprintf(out, "shard %d visible: n=%d p50=%v p99=%v max=%v\n",
			i, lm.Visible.TotalCount,
			time.Duration(lm.Visible.P50Ns).Round(time.Nanosecond),
			time.Duration(lm.Visible.P99Ns).Round(time.Nanosecond),
			time.Duration(lm.Visible.MaxNs))
	}
	fi := sm.Flight()
	fmt.Fprintf(out, "flight (merged): recorded=%d slow=%d threshold=%v\n",
		fi.Recorded, fi.SlowLatched, fi.SlowThreshold)
}

// printLatencySummary renders the ingest-to-visibility latency block of
// -summary: recent-window quantiles for the applied and visible intervals,
// the flight recorder counters, and the worst latched slow spans with their
// stage breakdowns.
func printLatencySummary(out io.Writer, lm *pskyline.LatencyMetrics, fi pskyline.FlightInfo) {
	fmt.Fprintf(out, "latency (recent %v window; log2-bucket quantiles, within a factor of sqrt(2) of exact — ±1 bucket, at most 2x)\n",
		lm.Window)
	row := func(name string, s pskyline.LatencySummary) {
		fmt.Fprintf(out, "  %-8s n=%-8d p50=%-10v p99=%-10v p999=%-10v max=%v\n",
			name, s.Count,
			time.Duration(s.P50Ns).Round(time.Nanosecond),
			time.Duration(s.P99Ns).Round(time.Nanosecond),
			time.Duration(s.P999Ns).Round(time.Nanosecond),
			time.Duration(s.MaxNs))
	}
	row("applied", lm.Applied)
	row("visible", lm.Visible)
	fmt.Fprintf(out, "flight: recorded=%d slow=%d threshold=%v\n",
		lm.FlightSpans, lm.SlowSpans, lm.SlowThreshold)
	slow := fi.Slow
	if len(slow) > 3 {
		slow = slow[len(slow)-3:]
	}
	stages := pskyline.SpanStages()
	for _, sp := range slow {
		fmt.Fprintf(out, "slow: seq=%d batch=%d total=%v wait=%v apply=%v publish=%v",
			sp.Seq, sp.Batch,
			time.Duration(sp.TotalNs), time.Duration(sp.WaitNs),
			time.Duration(sp.ApplyNs), time.Duration(sp.PublishNs))
		for j, name := range stages {
			if sp.StageNs[j] > 0 {
				fmt.Fprintf(out, " %s=%v", name, time.Duration(sp.StageNs[j]))
			}
		}
		fmt.Fprintln(out)
	}
}

// printWorkSummary renders the -summary observability block: the engine's
// work counters, skyline churn, and per-stage latency quantiles.
func printWorkSummary(out io.Writer, met pskyline.Metrics) {
	c := met.Counters
	fmt.Fprintf(out, "work: nodes=%d items=%d lazy=%d removals=%d moves=%d expiries=%d\n",
		c.NodesVisited, c.ItemsTouched, c.LazyApplied, c.Removals, c.Moves, c.Expiries)
	fmt.Fprintf(out, "churn: enters=%d leaves=%d publishes=%d mean_prob=%.3f\n",
		met.SkylineEnters, met.SkylineLeaves, met.ViewPublishes, met.MeanProb)
	fmt.Fprintf(out, "theory: E|SKY| <= %.1f (observed %d), E|S| <= %.1f (observed %d)\n",
		met.TheorySkylineBound, met.Stats.Skyline,
		met.TheoryCandidateBound, met.Stats.Candidates)
	if met.QueueCapacity > 0 {
		fmt.Fprintf(out, "queue: depth=%d capacity=%d dropped=%d\n",
			met.QueueDepth, met.QueueCapacity, met.QueueDropped)
	}
	if w := met.WAL; w != nil {
		fmt.Fprintf(out, "wal: appends=%d bytes=%d commits=%d fsyncs=%d rotations=%d segments=%d size=%d\n",
			w.Appends, w.AppendedBytes, w.Commits, w.Fsyncs,
			w.Rotations, w.Segments, w.SizeBytes)
		fmt.Fprintf(out, "wal: state=%s write_errors=%d retries=%d dropped_records=%d dropped_bytes=%d reattaches=%d\n",
			w.State, w.WriteErrors, w.Retries, w.DroppedRecords, w.DroppedBytes, w.Reattaches)
		if w.LastFault != "" {
			fmt.Fprintf(out, "wal: last_fault=%q\n", w.LastFault)
		}
		fmt.Fprintf(out, "ckpt: installed=%d failures=%d seq=%d gc_segments=%d\n",
			w.Checkpoints, w.CheckpointFailures, w.CheckpointSeq, w.GCSegments)
		if rec := w.Recovery; rec.Recovered {
			fmt.Fprintf(out, "recovery: checkpoint_seq=%d replayed=%d truncated_bytes=%d segments_dropped=%d duration=%v\n",
				rec.CheckpointSeq, rec.Replayed, rec.TruncatedBytes,
				rec.SegmentsDropped, rec.Duration.Round(time.Microsecond))
		}
	}
	for _, s := range met.Stages {
		fmt.Fprintf(out, "stage %-10s n=%-8d p50=%-10v p99=%-10v max=%v\n",
			s.Stage, s.Count,
			time.Duration(s.P50Ns).Round(time.Nanosecond),
			time.Duration(s.P99Ns).Round(time.Nanosecond),
			time.Duration(s.MaxNs))
	}
}

// parseLine parses "x1,...,xd,prob[,ts]".
func parseLine(line string, dims int) (pskyline.Element, error) {
	parts := strings.Split(line, ",")
	if len(parts) != dims+1 && len(parts) != dims+2 {
		return pskyline.Element{}, fmt.Errorf("want %d or %d fields, got %d", dims+1, dims+2, len(parts))
	}
	el := pskyline.Element{Point: make([]float64, dims)}
	for i := 0; i < dims; i++ {
		v, err := strconv.ParseFloat(strings.TrimSpace(parts[i]), 64)
		if err != nil {
			return el, fmt.Errorf("coordinate %d: %v", i, err)
		}
		el.Point[i] = v
	}
	p, err := strconv.ParseFloat(strings.TrimSpace(parts[dims]), 64)
	if err != nil {
		return el, fmt.Errorf("probability: %v", err)
	}
	el.Prob = p
	if len(parts) == dims+2 {
		ts, err := strconv.ParseInt(strings.TrimSpace(parts[dims+1]), 10, 64)
		if err != nil {
			return el, fmt.Errorf("timestamp: %v", err)
		}
		el.TS = ts
	}
	return el, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pskyline: "+format+"\n", args...)
	os.Exit(1)
}
