package wal

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ReplayProgress publishes live recovery progress. Workers update it with
// atomic stores, so a health endpoint can poll it from another goroutine
// while a recovery replay is running. The zero value is ready to use.
type ReplayProgress struct {
	segTotal atomic.Uint64
	segDone  atomic.Uint64
	records  atomic.Uint64
}

// SegmentsTotal returns the number of segments the replay will decode.
func (p *ReplayProgress) SegmentsTotal() uint64 { return p.segTotal.Load() }

// SegmentsDecoded returns the number of segments fully decoded so far.
func (p *ReplayProgress) SegmentsDecoded() uint64 { return p.segDone.Load() }

// RecordsReplayed returns the number of records delivered to the caller.
func (p *ReplayProgress) RecordsReplayed() uint64 { return p.records.Load() }

// decodedSeg is one segment's records decoded off the critical path by a
// worker. Points are copied out of the scanner's scratch buffer into a
// per-segment arena, so the records stay valid until the merge consumes them.
type decodedSeg struct {
	recs []Record
	err  error
	done chan struct{} // closed when the worker finishes this segment
}

// ReplayParallel is Replay with the CPU-bound record decoding (CRC checks,
// varint-free fixed-width parsing, point materialization) fanned across
// workers, one whole segment per worker at a time. Records are still
// delivered to fn strictly in log order — an ordered merge over the
// per-segment results — so the caller observes the exact sequence Replay
// would produce; only the wall-clock changes. workers <= 0 selects
// GOMAXPROCS; with one worker (or one segment) it degrades to the serial
// scan. prog, when non-nil, is updated live for progress reporting.
//
// Unlike Replay, the Record passed to fn does NOT alias a scratch buffer
// that the next record overwrites: parallel decode copies points into
// per-segment arenas. fn must still copy what it retains beyond the replay,
// since arenas are released as the merge advances.
func (w *WAL) ReplayParallel(from uint64, workers int, prog *ReplayProgress, fn func(Record) error) (uint64, error) {
	work, err := w.replaySegments(from)
	if err != nil {
		return 0, err
	}
	if prog != nil {
		prog.segTotal.Store(uint64(len(work)))
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(work) {
		workers = len(work)
	}
	if workers <= 1 {
		// One lane: stream records straight from the scanner, no buffering.
		return w.replaySerial(work, from, prog, fn)
	}

	results := make([]decodedSeg, len(work))
	for i := range results {
		results[i].done = make(chan struct{})
	}
	var nextIdx atomic.Int64
	var cancelled atomic.Bool
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				idx := int(nextIdx.Add(1) - 1)
				if idx >= len(work) || cancelled.Load() {
					return
				}
				sg := work[idx]
				var recs []Record
				var arena []float64
				_, _, _, err := scanSegment(w.fs, sg.path, sg.firstSeq, w.opt.SparseSeq, func(rec Record) error {
					d := len(rec.Point)
					if cap(arena)-len(arena) < d {
						arena = make([]float64, 0, max(64<<10, d))
					}
					start := len(arena)
					arena = arena[:start+d]
					copy(arena[start:], rec.Point)
					rec.Point = arena[start : start+d : start+d]
					recs = append(recs, rec)
					return nil
				})
				results[idx].recs = recs
				results[idx].err = err
				close(results[idx].done)
				if prog != nil {
					prog.segDone.Add(1)
				}
			}
		}()
	}

	var n uint64
	var firstErr error
merge:
	for i := range work {
		<-results[i].done
		if results[i].err != nil {
			firstErr = results[i].err
			break
		}
		for _, rec := range results[i].recs {
			if rec.Seq < from {
				continue
			}
			n++
			if prog != nil {
				prog.records.Add(1)
			}
			if err := fn(rec); err != nil {
				firstErr = err
				break merge
			}
		}
		results[i].recs = nil // release the arena as the merge advances
	}
	cancelled.Store(true)
	wg.Wait()
	return n, firstErr
}
