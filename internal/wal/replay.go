package wal

import "sync/atomic"

// ReplayProgress publishes live recovery progress. Replay updates it with
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

// Replay streams every valid record with sequence >= from to fn, in log
// order, one segment after the other, and returns the number delivered.
// Records below from (already covered by a checkpoint) are skipped. fn's
// Record aliases a scratch buffer; it must copy what it retains. An error
// from fn stops the replay and is returned with the count delivered so far.
// prog, when non-nil, is updated live.
//
// Pending appends are flushed first, so the files hold every one of them.
// Decoding is a small share of recovery: the records must be re-applied to
// the engine in log order anyway, and that is where the time goes.
func (w *WAL) Replay(from uint64, prog *ReplayProgress, fn func(Record) error) (uint64, error) {
	w.mu.Lock()
	if w.err != nil {
		w.mu.Unlock()
		return 0, w.err
	}
	if w.State() != StateDegraded {
		if err := w.writePendingOnceLocked(); err != nil {
			if err = w.failLocked("replay", err, opFlush); err != nil {
				w.mu.Unlock()
				return 0, err
			}
		}
	}
	// Finalize the active segment's metadata so it is not skipped as empty.
	w.segMetaLocked()
	var segs []segmentInfo
	for _, sg := range w.segs {
		if sg.records > 0 && sg.lastSeq >= from {
			segs = append(segs, sg)
		}
	}
	w.mu.Unlock()

	if prog != nil {
		prog.segTotal.Store(uint64(len(segs)))
	}
	var n uint64
	for _, sg := range segs {
		_, err := scanSegment(w.fs, sg.path, sg.firstSeq, w.opt.SparseSeq, func(rec Record) error {
			if rec.Seq < from {
				return nil
			}
			n++
			if prog != nil {
				prog.records.Add(1)
			}
			return fn(rec)
		})
		if prog != nil {
			prog.segDone.Add(1)
		}
		if err != nil {
			return n, err
		}
	}
	return n, nil
}
