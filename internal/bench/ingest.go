// Ingestion benchmark harness behind `pskybench -ingest` and `make bench`.
//
// Unlike the figure runners (which reproduce the paper's plots), this file
// measures the writer-side hot path the way `go test -bench` would — ns/op,
// B/op, allocs/op per ingested element — and serializes the results as a
// machine-readable trajectory (BENCH_ingest.json) so performance changes are
// recorded across PRs instead of claimed in prose. Workloads cover
// steady-state Push across dimensionalities and thresholds, Monitor-level
// looped Push vs PushBatch (the batch-vs-sequential comparison), time-based
// expiry, and a mixed read/write load.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"pskyline"
	"pskyline/internal/core"
	"pskyline/internal/repl"
	"pskyline/internal/streamgen"
)

// IngestSchema identifies the BENCH_ingest.json format.
const IngestSchema = "pskyline-bench-ingest/v1"

// IngestWorkload is one measured workload of an ingest run. NsPerOp,
// BytesPerOp and AllocsPerOp are per ingested element (for the mixed
// workload, per operation, reads included).
type IngestWorkload struct {
	Name        string  `json:"workload"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"b_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	ElemsPerSec float64 `json:"elems_per_sec"`
}

// IngestRun is one full harness execution: a labelled point on the repo's
// performance trajectory.
type IngestRun struct {
	Label     string           `json:"label"`
	Date      string           `json:"date"`
	GoVersion string           `json:"go"`
	GOOS      string           `json:"goos"`
	GOARCH    string           `json:"goarch"`
	Window    int              `json:"window"`
	Workloads []IngestWorkload `json:"workloads"`
}

// IngestFile is the committed BENCH_ingest.json: an append-only list of
// runs, oldest first.
type IngestFile struct {
	Schema string      `json:"schema"`
	Runs   []IngestRun `json:"runs"`
}

// IngestConfig parameterizes the harness.
type IngestConfig struct {
	// Window is the sliding-window size of every workload (0 selects the
	// default of 10_000).
	Window int
	// Short shrinks the window for CI smoke runs.
	Short bool
	// Label names the run in the trajectory file.
	Label string
	// RecoverOnly runs only the recovery-reopen workloads (the
	// `make bench-recovery` smoke target).
	RecoverOnly bool
	// ReplOnly runs only the replication push workloads (the semi-sync
	// vs async A/B).
	ReplOnly bool
}

const ingestQ = 0.3

// ingestDataset is the harness's stress distribution: anti-correlated
// points keep skylines large and probe descents deep.
func ingestDataset(dims int) Dataset {
	return Dataset{
		Name: "anti-uniform", Dims: dims,
		Dist: streamgen.Anticorrelated, Prob: streamgen.UniformProb{},
	}
}

// result converts a testing.BenchmarkResult measured over per-element
// operations into a workload row.
func ingestResult(name string, r testing.BenchmarkResult) IngestWorkload {
	ns := float64(r.T.Nanoseconds()) / float64(r.N)
	w := IngestWorkload{
		Name:        name,
		NsPerOp:     ns,
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: float64(r.MemAllocs) / float64(r.N),
	}
	if ns > 0 {
		w.ElemsPerSec = 1e9 / ns
	}
	return w
}

// benchEnginePush measures steady-state core Push: the window is prefilled
// to 2×window before the timer starts, so every timed push also expires one
// element. Stage metrics are enabled — the recorded trajectory measures the
// instrumented configuration, the one production deployments run; the
// `nometrics` row re-measures the d=3 workload with timing disabled so the
// instrumentation overhead is an explicit same-machine diff, and the
// `blockoff` row re-measures it with the SoA block leaf scans disabled so
// the cache-layout win is one too.
func benchEnginePush(dims, window int, thresholds []float64, withMetrics, blockOff bool) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		opt := core.Options{Dims: dims, Window: window, Thresholds: thresholds, DisableBlockScan: blockOff}
		if withMetrics {
			opt.Metrics = new(core.Metrics)
		}
		eng, err := core.NewEngine(opt)
		if err != nil {
			b.Fatal(err)
		}
		src := ingestDataset(dims).stream(1)
		for i := 0; i < 2*window; i++ {
			el := src.Next()
			if _, err := eng.Push(el.Point, el.P, el.TS); err != nil {
				b.Fatal(err)
			}
		}
		elems := make([]streamgen.Element, b.N)
		for i := range elems {
			elems[i] = src.Next()
		}
		b.ResetTimer()
		for _, el := range elems {
			if _, err := eng.Push(el.Point, el.P, el.TS); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchMonitorPush measures Monitor-level element-wise Push (lock + ingest +
// top-k refresh + view publication per element) — the "looped Push" side of
// the batch comparison.
func benchMonitorPush(dims, window int) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		m, err := pskyline.NewMonitor(pskyline.Options{Dims: dims, Window: window, Thresholds: []float64{ingestQ}})
		if err != nil {
			b.Fatal(err)
		}
		elems := monitorElems(dims, 2*window+b.N)
		for _, e := range elems[:2*window] {
			if _, err := m.Push(e); err != nil {
				b.Fatal(err)
			}
		}
		elems = elems[2*window:]
		b.ResetTimer()
		for i := range elems {
			if _, err := m.Push(elems[i]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchMonitorPushBatch measures Monitor-level batched ingestion at the
// given batch size; ns/op is per element, not per batch.
func benchMonitorPushBatch(dims, window, batch int) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		m, err := pskyline.NewMonitor(pskyline.Options{Dims: dims, Window: window, Thresholds: []float64{ingestQ}})
		if err != nil {
			b.Fatal(err)
		}
		elems := monitorElems(dims, 2*window+b.N)
		for _, e := range elems[:2*window] {
			if _, err := m.Push(e); err != nil {
				b.Fatal(err)
			}
		}
		elems = elems[2*window:]
		b.ResetTimer()
		for len(elems) > 0 {
			n := batch
			if n > len(elems) {
				n = len(elems)
			}
			if _, err := m.PushBatch(elems[:n]); err != nil {
				b.Fatal(err)
			}
			elems = elems[n:]
		}
	})
}

// benchShardedPush measures batched ingestion through a ShardedMonitor in
// synchronous mode: route + per-shard sequence stamping + end-of-batch
// watermark ticks on every shard. Compared against the shards=1 row (and the
// pushbatch row, which is the unsharded Monitor on the same batch size) this
// isolates the sharding overhead; on a single-core machine no parallel
// speedup is available, so the spread between shards=1 and shards=4 is the
// price of the seam, not a throughput claim.
func benchShardedPush(dims, window, shards, batch int) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		s, err := pskyline.NewSharded(pskyline.ShardedOptions{
			Options: pskyline.Options{Dims: dims, Window: window, Thresholds: []float64{ingestQ}},
			Shards:  shards,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		elems := monitorElems(dims, 2*window+b.N)
		for head := elems[:2*window]; len(head) > 0; {
			n := batch
			if n > len(head) {
				n = len(head)
			}
			if _, err := s.PushBatch(head[:n]); err != nil {
				b.Fatal(err)
			}
			head = head[n:]
		}
		elems = elems[2*window:]
		b.ResetTimer()
		for len(elems) > 0 {
			n := batch
			if n > len(elems) {
				n = len(elems)
			}
			if _, err := s.PushBatch(elems[:n]); err != nil {
				b.Fatal(err)
			}
			elems = elems[n:]
		}
	})
}

// benchMonitorPushWAL measures element-wise Push with durability on: every
// push appends its element to the WAL and commits (one buffered write, plus
// an fsync under the "always" policy) before the engine applies it.
// Checkpoints are disabled so the row isolates the logging cost; the no-WAL
// baseline is the looped-push row.
func benchMonitorPushWAL(dims, window int, fsync string) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		dir, err := os.MkdirTemp("", "pskybench-wal-")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(dir)
		m, err := pskyline.Open(pskyline.Options{
			Dims: dims, Window: window, Thresholds: []float64{ingestQ},
			Durability: pskyline.Durability{Dir: dir, Fsync: fsync, CheckpointEvery: -1},
		})
		if err != nil {
			b.Fatal(err)
		}
		defer m.Close()
		elems := monitorElems(dims, 2*window+b.N)
		for _, e := range elems[:2*window] {
			if _, err := m.Push(e); err != nil {
				b.Fatal(err)
			}
		}
		elems = elems[2*window:]
		b.ResetTimer()
		for i := range elems {
			if _, err := m.Push(elems[i]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchReplPush measures element-wise Push on a replicating durable primary
// with one loopback follower attached. semiK=0 is the async control: the
// follower streams in the background and pushes never wait. semiK=1 blocks
// every push on the follower's ack, so ns/op is the full commit round trip —
// local apply + WAL append + stream-out + follower apply + ack — i.e. the
// same-machine price of the semi-sync guarantee, dominated by the server's
// tail-follow poll rather than by compute.
func benchReplPush(dims, window, semiK int) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		pdir, err := os.MkdirTemp("", "pskybench-repl-primary-")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(pdir)
		fdir, err := os.MkdirTemp("", "pskybench-repl-replica-")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(fdir)
		mkOpt := func(dir string) pskyline.Options {
			return pskyline.Options{
				Dims: dims, Window: window, Thresholds: []float64{ingestQ},
				Durability: pskyline.Durability{Dir: dir, Fsync: "never", CheckpointEvery: -1},
			}
		}
		m, err := pskyline.Open(mkOpt(pdir))
		if err != nil {
			b.Fatal(err)
		}
		defer m.Close()
		srv, err := repl.NewServer(m, "127.0.0.1:0", repl.ServerOptions{
			SemiSyncK: semiK, AckWait: 5 * time.Second,
			Heartbeat: 50 * time.Millisecond, Poll: time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		f, err := repl.StartFollower(mkOpt(fdir), repl.FollowerOptions{Addr: srv.Addr().String()})
		if err != nil {
			b.Fatal(err)
		}
		defer f.Close()

		elems := monitorElems(dims, 2*window+b.N)
		for head := elems[:2*window]; len(head) > 0; {
			n := 512
			if n > len(head) {
				n = len(head)
			}
			if _, err := m.PushBatch(head[:n]); err != nil {
				b.Fatal(err)
			}
			head = head[n:]
		}
		elems = elems[2*window:]
		if semiK > 0 {
			// Time the enforced guarantee, not the catch-up window: wait for
			// the upgrade to semisync before starting the clock.
			deadline := time.Now().Add(30 * time.Second)
			for srv.Status().SyncState != repl.SyncSemiSync.String() {
				if time.Now().After(deadline) {
					b.Fatalf("semisync upgrade never happened: %+v", srv.Status())
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
		b.ResetTimer()
		for i := range elems {
			if _, err := m.Push(elems[i]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchExpire measures pure expiry cost on a time-based window: each op
// expires exactly one element via ExpireOlderThan. The window is rebuilt
// with the timer stopped whenever it drains.
func benchExpire(dims, window int) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		src := ingestDataset(dims).stream(3)
		var eng *core.Engine
		var ts int64
		refill := func() {
			var err error
			eng, err = core.NewEngine(core.Options{Dims: dims, Window: 0, Thresholds: []float64{ingestQ}})
			if err != nil {
				b.Fatal(err)
			}
			ts = 0
			for i := 0; i < window; i++ {
				el := src.Next()
				if _, err := eng.Push(el.Point, el.P, ts); err != nil {
					b.Fatal(err)
				}
				ts++
			}
		}
		refill()
		cutoff := int64(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if cutoff == ts {
				b.StopTimer()
				refill()
				cutoff = 0
				b.StartTimer()
			}
			cutoff++
			eng.ExpireOlderThan(cutoff)
		}
	})
}

// benchMixed interleaves Monitor pushes with view reads (Skyline + TopK on
// every 8th op), the shape of a monitoring deployment.
func benchMixed(dims, window int) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		m, err := pskyline.NewMonitor(pskyline.Options{Dims: dims, Window: window, Thresholds: []float64{ingestQ}})
		if err != nil {
			b.Fatal(err)
		}
		elems := monitorElems(dims, 2*window+b.N)
		for _, e := range elems[:2*window] {
			if _, err := m.Push(e); err != nil {
				b.Fatal(err)
			}
		}
		elems = elems[2*window:]
		sink := 0
		b.ResetTimer()
		for i := range elems {
			if i%8 == 7 {
				sink += len(m.Skyline())
				if res, err := m.TopK(10, ingestQ); err == nil {
					sink += len(res)
				}
				continue
			}
			if _, err := m.Push(elems[i]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if sink < 0 {
			b.Fatal("impossible")
		}
	})
}

func monitorElems(dims, n int) []pskyline.Element {
	src := ingestDataset(dims).stream(2)
	out := make([]pskyline.Element, n)
	for i := range out {
		el := src.Next()
		out[i] = pskyline.Element{Point: el.Point, Prob: el.P, TS: el.TS}
	}
	return out
}

// Ingest runs every workload and returns the labelled run. Progress lines
// go to w as workloads finish.
func Ingest(cfg IngestConfig, w io.Writer) IngestRun {
	window := cfg.Window
	if window == 0 {
		window = 10_000
	}
	if cfg.Short {
		window = 2_000
	}
	run := IngestRun{
		Label:     cfg.Label,
		Date:      time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Window:    window,
	}
	add := func(name string, r testing.BenchmarkResult) {
		row := ingestResult(name, r)
		run.Workloads = append(run.Workloads, row)
		fmt.Fprintf(w, "  %-28s %10.0f ns/op %8d B/op %7.2f allocs/op %12.0f elems/s\n",
			row.Name, row.NsPerOp, row.BytesPerOp, row.AllocsPerOp, row.ElemsPerSec)
	}
	replRows := func() {
		add("replpush/d=3/async", benchReplPush(3, window, 0))
		add("replpush/d=3/semisync-k1", benchReplPush(3, window, 1))
	}
	if cfg.ReplOnly {
		replRows()
		return run
	}
	if !cfg.RecoverOnly {
		for _, d := range []int{2, 3, 5} {
			add(fmt.Sprintf("push/d=%d/q=%.1f", d, ingestQ), benchEnginePush(d, window, []float64{ingestQ}, true, false))
		}
		add("push/d=3/nometrics", benchEnginePush(3, window, []float64{ingestQ}, false, false))
		add("push/d=3/blockoff", benchEnginePush(3, window, []float64{ingestQ}, true, true))
		add("push/d=3/q=0.7", benchEnginePush(3, window, []float64{0.7}, true, false))
		add("push/d=3/k=3", benchEnginePush(3, window, []float64{0.7, 0.5, 0.3}, true, false))
		add("looped-push/d=3", benchMonitorPush(3, window))
		add("pushbatch/d=3/B=512", benchMonitorPushBatch(3, window, 512))
		add("shardpush/d=3/shards=1/B=512", benchShardedPush(3, window, 1, 512))
		add("shardpush/d=3/shards=4/B=512", benchShardedPush(3, window, 4, 512))
		add("walpush/d=3/fsync=never", benchMonitorPushWAL(3, window, "never"))
		add("walpush/d=3/fsync=interval", benchMonitorPushWAL(3, window, "interval"))
		replRows()
		add("expire/d=3", benchExpire(3, window))
		add("mixed/d=3", benchMixed(3, window))
	}
	// Recovery reopen: pskyline.Open against a directory whose checkpoint
	// holds a full steady-state window (clean shutdown, empty log tail), so
	// the row isolates what recovery optimization can change — checkpoint
	// decode plus band-tree reconstruction. ns/op is per reopen, not per
	// element.
	recWindow := 10 * window
	if dir, err := seedRecoverDir(recWindow); err != nil {
		fmt.Fprintf(w, "  recover: seed failed: %v\n", err)
	} else {
		add(fmt.Sprintf("recover/d=%d/w=%d/fast", recoverDims, recWindow), benchRecover(recWindow, dir))
		os.RemoveAll(dir)
	}
	return run
}

// recoverDims is the dimensionality of the recovery workloads: d=5 keeps a
// large fraction of the window in the candidate set (anti-correlated data),
// so the checkpoint the reopen restores is big enough to measure.
const recoverDims = 5

// seedRecoverDir builds the durability directory the recover workloads
// reopen: 2×window pushes to reach steady state, then one checkpoint and a
// clean close — recovery restores the checkpoint and replays nothing.
func seedRecoverDir(window int) (string, error) {
	dir, err := os.MkdirTemp("", "pskybench-recover-")
	if err != nil {
		return "", err
	}
	m, err := pskyline.Open(recoverOptions(window, dir))
	if err != nil {
		os.RemoveAll(dir)
		return "", err
	}
	src := ingestDataset(recoverDims).stream(4)
	batch := make([]pskyline.Element, 0, 512)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		_, err := m.PushBatch(batch)
		batch = batch[:0]
		return err
	}
	for i := 0; i < 2*window; i++ {
		el := src.Next()
		batch = append(batch, pskyline.Element{Point: el.Point, Prob: el.P, TS: el.TS})
		if len(batch) == cap(batch) {
			if err := flush(); err != nil {
				os.RemoveAll(dir)
				return "", err
			}
		}
	}
	if err := flush(); err != nil {
		os.RemoveAll(dir)
		return "", err
	}
	if err := m.Checkpoint(); err != nil {
		os.RemoveAll(dir)
		return "", err
	}
	if err := m.Close(); err != nil {
		os.RemoveAll(dir)
		return "", err
	}
	// Release the seed run's heap before the reopen measurements: the
	// 2×window ingest leaves pool arenas and GC debt behind that would
	// otherwise be charged to the recover row.
	runtime.GC()
	return dir, nil
}

func recoverOptions(window int, dir string) pskyline.Options {
	return pskyline.Options{
		Dims: recoverDims, Window: window, Thresholds: []float64{ingestQ},
		Durability: pskyline.Durability{
			Dir: dir, Fsync: "never", CheckpointEvery: -1, SegmentBytes: 1 << 20,
		},
	}
}

// benchRecover measures one full pskyline.Open of the seeded directory per
// op (Close runs with the timer stopped).
func benchRecover(window int, dir string) testing.BenchmarkResult {
	opt := recoverOptions(window, dir)
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := pskyline.Open(opt)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := m.Close(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
}

// WriteIngest appends run to the trajectory file at path (creating it when
// absent) and rewrites it atomically-enough for a dev tool (write temp,
// rename).
func WriteIngest(path string, run IngestRun) error {
	var file IngestFile
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &file); err != nil {
			return fmt.Errorf("bench: %s exists but is not a trajectory file: %w", path, err)
		}
		if file.Schema != IngestSchema {
			return fmt.Errorf("bench: %s has schema %q, want %q", path, file.Schema, IngestSchema)
		}
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("bench: %w", err)
	}
	file.Schema = IngestSchema
	file.Runs = append(file.Runs, run)
	raw, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	raw = append(raw, '\n')
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	return nil
}
