package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pskyline"
	"pskyline/internal/core"
	"pskyline/internal/wal"
)

// The ladder feeds the workload's exact input through each layer's public
// entry point in turn — core.Engine, in-memory Monitor, wal.WAL, durable
// Monitor, semi-sync primary, HTTP server — recording one span per call.
// Every rung starts from the same prefilled window and then receives the
// same elements: first ladderPush element-wise calls, then ladderBatches
// batch calls. A layer's self time is its rung minus the rung below.

const (
	ladderPush    = 1024
	ladderBatches = 64
	// viewReps is how many calls one view span covers: a single View()
	// is shorter than the clock's resolution.
	viewReps = 16
	viewOps  = 256
	skyGets  = 256
)

type ladder struct {
	w        workload
	in       *inputs
	tr       *tracer
	root     uint64
	nPush    int
	nBatches int
	b        int // batch size of the batch calls
	workdir  string
	bin      string
	ref      *core.Engine // the core rung's engine, fed the whole ladder input
	m        metrics
}

func newLadder(w workload, in *inputs, tr *tracer, cfg config) *ladder {
	l := &ladder{w: w, in: in, tr: tr, root: tr.id(), nPush: cfg.ladderPush, nBatches: cfg.ladderBatches,
		b: w.batch, workdir: cfg.workdir, bin: cfg.serverBin}
	if l.b == 1 {
		l.b = 64 // element-wise workloads still get a batch rung
	}
	return l
}

// fed is how many timed-stream elements every rung consumes.
func (l *ladder) fed() int { return l.nPush + l.nBatches*l.b }

func (l *ladder) pushElems() []pskyline.Element { return l.in.slice(0, l.nPush, nil) }

func (l *ladder) batchElems(i int) []pskyline.Element {
	return l.in.slice(l.nPush+i*l.b, l.b, nil)
}

// timed runs fn as one span named name under parent.
func (l *ladder) timed(parent uint64, name string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	l.tr.record(l.tr.id(), parent, name, t0, time.Now())
	return err
}

// medUS is the median duration of the named spans in microseconds,
// divided by per.
func (l *ladder) medUS(name string, per int) float64 {
	return medianMS(l.tr.durations(name)) * 1e3 / float64(per)
}

func (l *ladder) run() error {
	t0 := time.Now()
	steps := []struct {
		name string
		fn   func(uint64) error
	}{
		{"core", l.core}, {"monitor", l.monitor}, {"wal", l.wal},
		{"durable", l.durable}, {"semisync", l.semisync}, {"http", l.http},
	}
	for _, s := range steps {
		id := l.tr.id()
		r0 := time.Now()
		runtime.GC()
		if err := s.fn(id); err != nil {
			return fmt.Errorf("ladder rung %s: %w", s.name, err)
		}
		l.tr.record(id, l.root, "rung."+s.name, r0, time.Now())
	}
	l.tr.record(l.root, 0, "ladder", t0, time.Now())
	return nil
}

// pushPhase times every element-wise call of the rung.
func (l *ladder) pushPhase(parent uint64, name string, push func(pskyline.Element) error) error {
	for _, e := range l.pushElems() {
		t0 := time.Now()
		err := push(e)
		l.tr.record(l.tr.id(), parent, name, t0, time.Now())
		if err != nil {
			return err
		}
	}
	return nil
}

// batchPhase times every batch call of the rung; after runs outside the
// timer.
func (l *ladder) batchPhase(parent uint64, name string, push func([]pskyline.Element) error, after func()) error {
	for i := 0; i < l.nBatches; i++ {
		es := l.batchElems(i)
		t0 := time.Now()
		err := push(es)
		l.tr.record(l.tr.id(), parent, name, t0, time.Now())
		if err != nil {
			return err
		}
		if after != nil {
			after()
		}
	}
	return nil
}

func (l *ladder) core(parent uint64) error {
	eng, err := newEngine(l.w)
	if err != nil {
		return err
	}
	var buf []core.BatchElem
	pushBatch := func(es []pskyline.Element) error {
		buf = engineBatch(es, buf)
		_, err := eng.PushBatch(buf)
		return err
	}
	if err := l.in.fill(func(es []pskyline.Element) (uint64, error) { return 0, pushBatch(es) }); err != nil {
		return err
	}
	c0 := eng.Counters()
	if err := l.pushPhase(parent, "core.push", func(e pskyline.Element) error {
		_, err := eng.Push(e.Point, e.Prob, e.TS)
		return err
	}); err != nil {
		return err
	}
	if err := l.batchPhase(parent, "core.pushbatch", pushBatch, nil); err != nil {
		return err
	}
	c1 := eng.Counters()
	n := float64(l.fed())
	l.m.add("core.push_us", l.medUS("core.push", 1), "us")
	l.m.add("core.pushbatch_us", l.medUS("core.pushbatch", l.b), "us")
	l.m.add("core.nodes_visited_per_elem", float64(c1.NodesVisited-c0.NodesVisited)/n, "count")
	l.m.add("core.items_touched_per_elem", float64(c1.ItemsTouched-c0.ItemsTouched)/n, "count")
	l.m.add("core.lazy_applied_per_elem", float64(c1.LazyApplied-c0.LazyApplied)/n, "count")
	l.m.add("core.candidates", float64(eng.CandidateSize()), "count")
	l.m.add("core.skyline", float64(eng.SkylineSize()), "count")
	l.ref = eng
	return nil
}

func (l *ladder) monitor(parent uint64) error {
	m, err := pskyline.NewMonitor(monitorOptions(l.w))
	if err != nil {
		return err
	}
	defer m.Close()
	if err := l.in.fill(m.PushBatch); err != nil {
		return err
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := l.pushPhase(parent, "monitor.push", func(e pskyline.Element) error {
		_, err := m.Push(e)
		return err
	}); err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	if err := l.batchPhase(parent, "monitor.pushbatch", func(es []pskyline.Element) error {
		_, err := m.PushBatch(es)
		return err
	}, nil); err != nil {
		return err
	}
	if err := compareView("ladder monitor", m.View(), l.ref); err != nil {
		return err
	}
	pushUS := l.medUS("monitor.push", 1)
	l.m.add("monitor.push_us", pushUS, "us")
	l.m.add("monitor.publish_us", pushUS-l.m.get("core.push_us"), "us")
	l.m.add("monitor.pushbatch_us", l.medUS("monitor.pushbatch", l.b), "us")
	l.m.add("monitor.allocs_per_elem", float64(ms1.Mallocs-ms0.Mallocs)/float64(l.nPush), "count")
	l.m.add("monitor.bytes_per_elem", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(l.nPush), "B")
	return l.views(parent, m)
}

// views times the read path on the monitor rung's final state.
func (l *ladder) views(parent uint64, m *pskyline.Monitor) error {
	v := m.View()
	ops := []struct {
		name string
		fn   func() error
	}{
		{"view.read", func() error { v = m.View(); return nil }},
		{"view.query", func() error { _, err := v.Query(0.6); return err }},
		{"view.topk", func() error { _, err := v.TopK(10, l.w.minQ()); return err }},
		{"view.skyline", func() error { sink = v.Skyline(); return nil }},
	}
	for _, op := range ops {
		for i := 0; i < viewOps; i++ {
			if err := l.timed(parent, op.name, func() error {
				for r := 0; r < viewReps; r++ {
					if err := op.fn(); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				return err
			}
		}
		l.m.add(op.name+"_us", l.medUS(op.name, viewReps), "us")
	}
	mix := l.w
	mix.mixRead = true
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < viewOps; i++ {
		if err := readView(m.View(), mix); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&ms1)
	l.m.add("view.allocs_per_read", float64(ms1.Mallocs-ms0.Mallocs)/viewOps, "count")
	return nil
}

func (l *ladder) wal(parent uint64) error {
	dir, err := os.MkdirTemp(l.workdir, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	lg, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return err
	}
	seq := uint64(l.w.window)
	lg.AlignTo(seq)
	appendOne := func(e pskyline.Element) error {
		err := lg.AppendElement(seq, e.Point, e.Prob, e.TS)
		seq++
		return err
	}
	if err := l.pushPhase(parent, "wal.append_commit", func(e pskyline.Element) error {
		if err := appendOne(e); err != nil {
			return err
		}
		return lg.Commit()
	}); err != nil {
		lg.Close()
		return err
	}
	if err := l.batchPhase(parent, "wal.append_commit_batch", func(es []pskyline.Element) error {
		for _, e := range es {
			if err := appendOne(e); err != nil {
				return err
			}
		}
		return lg.Commit()
	}, nil); err != nil {
		lg.Close()
		return err
	}
	l.m.add("wal.append_commit_us", l.medUS("wal.append_commit", 1), "us")
	l.m.add("wal.bytes_per_elem", float64(lg.SizeBytes())/float64(l.fed()), "B")
	return lg.Close()
}

func (l *ladder) durable(parent uint64) error {
	dir, err := os.MkdirTemp(l.workdir, "durable-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	opt := monitorOptions(l.w)
	opt.Durability = pskyline.Durability{Dir: filepath.Join(dir, "wal")}
	m, err := pskyline.Open(opt)
	if err != nil {
		return err
	}
	defer m.Close()
	if err := l.in.fill(m.PushBatch); err != nil {
		return err
	}
	if err := l.pushPhase(parent, "durable.push", func(e pskyline.Element) error {
		_, err := m.Push(e)
		return err
	}); err != nil {
		return err
	}
	if err := l.batchPhase(parent, "durable.pushbatch", func(es []pskyline.Element) error {
		_, err := m.PushBatch(es)
		return err
	}, nil); err != nil {
		return err
	}
	if err := compareView("ladder durable", m.View(), l.ref); err != nil {
		return err
	}
	l.m.add("wal.self_us", l.medUS("durable.pushbatch", l.b)-l.m.get("monitor.pushbatch_us"), "us")
	return nil
}

// semisync skips timing the element-wise calls: each would wait a full
// replication round. It feeds those elements as one untimed batch, which
// leaves the same state, then times the batch calls.
func (l *ladder) semisync(parent uint64) error {
	s, err := buildSemiSync(l.w, l.in, l.workdir)
	if err != nil {
		return err
	}
	defer s.close()
	if _, err := s.prim.PushBatch(l.pushElems()); err != nil {
		return err
	}
	st0 := s.srv.Status()
	var lag, samples float64
	if err := l.batchPhase(parent, "semisync.pushbatch", func(es []pskyline.Element) error {
		_, err := s.prim.PushBatch(es)
		return err
	}, func() {
		for _, f := range s.srv.Status().Followers {
			lag += float64(f.LagSeq)
			samples++
		}
	}); err != nil {
		return err
	}
	st1 := s.srv.Status()
	if err := s.check(l.ref); err != nil {
		return err
	}
	l.m.add("repl.commit_wait_ms", medianMS(l.tr.durations("semisync.pushbatch"))-medianMS(l.tr.durations("durable.pushbatch")), "ms")
	l.m.add("repl.follower_lag_seq", lag/max(samples, 1), "count")
	l.m.add("repl.wait_timeouts", float64(st1.WaitTimeouts-st0.WaitTimeouts), "count")
	l.m.add("repl.degrades", float64(st1.Degrades-st0.Degrades), "count")
	return nil
}

// http posts the element-wise part as one untimed body, like semisync,
// then times one POST per batch and a run of skyline GETs.
func (l *ladder) http(parent uint64) error {
	s, err := buildHTTP(l.w, l.bin, l.workdir, encodeChunks(l.in))
	if err != nil {
		return err
	}
	defer s.close()
	s.stage(l.pushElems())
	if err := s.write(); err != nil {
		return err
	}
	s.sent, s.written = 0, 0
	for i := 0; i < l.nBatches; i++ {
		s.stage(l.batchElems(i))
		if err := l.timed(parent, "http.push", s.write); err != nil {
			return err
		}
	}
	if err := s.check(l.ref); err != nil {
		return err
	}
	for i := 0; i < skyGets; i++ {
		if err := l.timed(parent, "http.skyline", s.read); err != nil {
			return err
		}
	}
	push := medianMS(l.tr.durations("http.push"))
	l.m.add("http.push_ms", push, "ms")
	l.m.add("http.self_ms", push-medianMS(l.tr.durations("durable.pushbatch")), "ms")
	l.m.add("http.skyline_ms", medianMS(l.tr.durations("http.skyline")), "ms")
	l.m.add("http.req_bytes_per_elem", float64(s.sent)/float64(s.written), "B")
	return nil
}
