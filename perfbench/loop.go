package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pskyline"
)

// span is one traced call: what ran, when, and the span that caused it.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Times are nanoseconds
// since the tracer was made.
type tracer struct {
	base  time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, 1<<17)}
}

// id reserves a span identifier, for a parent recorded after its children.
func (t *tracer) id() uint64 { return t.next.Add(1) }

// record stores a finished span under a reserved id.
func (t *tracer) record(id, parent uint64, name string, t0, t1 time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{id, parent, name, t0.Sub(t.base).Nanoseconds(), t1.Sub(t.base).Nanoseconds()})
	t.mu.Unlock()
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// phase is one closed-loop timed phase's outcome.
type phase struct {
	writeLat, readLat      []time.Duration
	writes, writeFails     int
	reads, readFails       int
	applied                int // elements in successful writes
	consumed               int // elements handed to write calls
	elapsed, readerElapsed time.Duration
	firstErr               error
}

// guarded is implemented by systems with a validity check that runs after
// every write, outside the timer.
type guarded interface{ afterWrite() error }

// closedLoop runs one writer and one reader against sys for d. The writer
// sends its next call only when the previous one returned; the reader
// sleeps w.think between reads. Elements are taken from the timed stream
// starting at offset start. With tr non-nil every call is recorded as a
// span under parent.
func closedLoop(sys system, w workload, in *inputs, start int, d time.Duration, tr *tracer, parent uint64) phase {
	var ph phase
	var (
		stop                 atomic.Bool
		wg                   sync.WaitGroup
		readLat              []time.Duration
		reads, readFails     int
		readErr              error
		readerStart, readEnd time.Time
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		readerStart = time.Now()
		for !stop.Load() {
			t0 := time.Now()
			err := sys.read()
			t1 := time.Now()
			reads++
			if err != nil {
				readFails++
				if readErr == nil {
					readErr = fmt.Errorf("read: %w", err)
				}
			} else {
				readLat = append(readLat, t1.Sub(t0))
			}
			if tr != nil {
				tr.record(tr.id(), parent, "loop.read", t0, t1)
			}
			if w.think > 0 {
				time.Sleep(w.think)
			}
		}
		readEnd = time.Now()
	}()

	g, _ := sys.(guarded)
	var scratch []pskyline.Element
	begin := time.Now()
	deadline := begin.Add(d)
	pos := start
	end := begin
	for end.Before(deadline) {
		scratch = in.slice(pos, w.batch, scratch)
		batch := scratch
		sys.stage(batch)
		t0 := time.Now()
		err := sys.write()
		end = time.Now()
		pos += len(batch)
		ph.writes++
		if err == nil && g != nil {
			err = g.afterWrite()
		}
		if err != nil {
			ph.writeFails++
			if ph.firstErr == nil {
				ph.firstErr = fmt.Errorf("write: %w", err)
			}
		} else {
			ph.writeLat = append(ph.writeLat, end.Sub(t0))
			ph.applied += len(batch)
		}
		if tr != nil {
			tr.record(tr.id(), parent, "loop.write", t0, end)
		}
	}
	stop.Store(true)
	wg.Wait()
	ph.elapsed = end.Sub(begin)
	ph.consumed = pos - start
	ph.readLat, ph.reads, ph.readFails = readLat, reads, readFails
	ph.readerElapsed = readEnd.Sub(readerStart)
	if ph.firstErr == nil {
		ph.firstErr = readErr
	}
	return ph
}

// add accumulates o's counts and times into ph; samples are not copied.
func (ph *phase) add(o phase) {
	ph.writes += o.writes
	ph.reads += o.reads
	ph.applied += o.applied
	ph.elapsed += o.elapsed
	ph.readerElapsed += o.readerElapsed
}

// writeEPS is elements applied per second of writer time.
func (ph phase) writeEPS() float64 { return float64(ph.applied) / ph.elapsed.Seconds() }

// readRate is reads completed per second of reader time.
func (ph phase) readRate() float64 { return float64(ph.reads) / ph.readerElapsed.Seconds() }

// quantile returns the nearest-rank q-quantile of ds in milliseconds and
// how many samples lie above it.
func quantile(ds []time.Duration, q float64) (ms float64, beyond int) {
	if len(ds) == 0 {
		return math.NaN(), 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	i = max(i, 0)
	return float64(s[i]) / 1e6, len(s) - 1 - i
}

// medianMS is the median of ds in milliseconds.
func medianMS(ds []time.Duration) float64 {
	ms, _ := quantile(ds, 0.5)
	return ms
}

// tailCheck fails a phase whose samples leave fewer than min beyond p99.
func tailCheck(what string, ds []time.Duration, min int) error {
	if _, beyond := quantile(ds, 0.99); beyond < min || len(ds) == 0 {
		return fmt.Errorf("%s: %d samples leave %d beyond p99, need %d", what, len(ds), beyond, min)
	}
	return nil
}
