package wal

import (
	"errors"
	"fmt"
	"io/fs"
)

// The read side of the log for replication. A primary streams its WAL to
// followers by following the committed prefix record by record with a
// TailReader, which hands back the raw on-disk record frames (length + CRC +
// payload) so the bytes a follower replays are bit-identical to the bytes the
// primary logged; CommittedSeq and OldestSeq bound what can be streamed, and
// a follower takes the frames apart with DecodeRecords. Recovery reads with
// Replay. Every reader goes through the one frame parser (parseFrame), and
// every reader of a segment file through the one buffered segReader.
//
// The readers never touch writer state: they snapshot the segment list under
// the mutex and then scan the immutable committed prefix of the files. A
// sealed segment never changes; the active segment only grows, and only its
// committed extent is ever read, so a concurrent writer (or the background
// flusher) cannot tear a read.

// ErrGone reports that the requested log position has been garbage-collected
// (or was never logged because a checkpoint subsumed it): the records cannot
// be streamed and the consumer must fall back to checkpoint catch-up.
var ErrGone = errors.New("wal: requested records have been garbage-collected")

// CommittedSeq returns the durability watermark: every record with sequence
// below it has been written to the segment files (pending appends that have
// not been through Commit are above it). For an empty log it is the position
// appends will start at.
func (w *WAL) CommittedSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.pendingRecs > 0 {
		return w.pendingFirst
	}
	return w.nextSeq
}

// OldestSeq returns the sequence of the oldest record still retained by the
// log, reporting ok=false when no records survive (a fresh or fully
// checkpointed-and-collected directory).
func (w *WAL) OldestSeq() (uint64, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.segMetaLocked()
	for _, sg := range w.segs {
		if sg.records > 0 {
			return sg.firstSeq, true
		}
	}
	return 0, false
}

// readSnapshot captures the committed-on-disk shape of the log at one
// instant: the segment list with each segment's readable extent (sealed
// segments are final; the active segment is bounded by its committed
// prefix), plus the committed watermark.
type readSnapshot struct {
	segs      []segmentInfo
	committed uint64 // CommittedSeq at snapshot time
}

func (w *WAL) readSnapshot() (readSnapshot, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return readSnapshot{}, ErrClosed
	}
	w.segMetaLocked()
	s := readSnapshot{segs: append([]segmentInfo(nil), w.segs...)}
	if n := len(s.segs); n > 0 && w.f != nil {
		// A failed write can leave torn bytes past the committed prefix
		// (w.dirty); bound the active segment's readable extent at committed.
		s.segs[n-1].size = w.committed
	}
	if w.pendingRecs > 0 {
		s.committed = w.pendingFirst
	} else {
		s.committed = w.nextSeq
	}
	return s, nil
}

// TailReader follows the committed prefix of the log from a starting
// sequence, returning raw on-disk record frames in order — including records
// committed after the reader was created. It is a cursor for one consumer
// goroutine; concurrent use requires separate readers.
type TailReader struct {
	w    *WAL
	next uint64     // next sequence to deliver
	r    *segReader // the segment being read (nil before the first)
	rerr error      // sticky error
}

// NewTailReader positions a tail reader at from: the first record it
// delivers is the first committed record with sequence >= from. Whether that
// position is still retained is checked by Next, not here — a reader created
// at a collected position reports ErrGone on first use.
func (w *WAL) NewTailReader(from uint64) *TailReader {
	return &TailReader{w: w, next: from}
}

// Seq returns the sequence the next delivered record will carry (or exceed).
func (t *TailReader) Seq() uint64 { return t.next }

// Close releases the reader's file handle. The reader is unusable after.
func (t *TailReader) Close() {
	if t.r != nil {
		t.r.f.Close()
		t.r = nil
	}
	if t.rerr == nil {
		t.rerr = ErrClosed
	}
}

// Next appends up to roughly maxBytes of committed raw record frames to dst,
// returning the extended slice and the sequence range [first, last]
// delivered (first == 0 && last == 0 when nothing new is committed — the
// caller is caught up and should poll again later). Each frame is the exact
// on-disk encoding (length + CRC + payload), re-verified by the frame parser
// before being handed out. ErrGone means the position was garbage-collected
// and the consumer needs a checkpoint instead; any other error is a
// corruption or I/O failure that makes the reader unusable.
func (t *TailReader) Next(dst []byte, maxBytes int) ([]byte, uint64, uint64, error) {
	if t.rerr != nil {
		return dst, 0, 0, t.rerr
	}
	snap, err := t.w.readSnapshot()
	if err != nil {
		return dst, 0, 0, err
	}
	base := len(dst)
	var first, last uint64
	for len(dst)-base < maxBytes {
		seg, ok, err := t.locate(snap)
		if err == nil && ok && (t.r == nil || t.r.path != seg.path) {
			err = t.open(seg.path)
		}
		if err != nil {
			t.rerr = err
			return dst, first, last, err
		}
		if !ok {
			break // caught up to the committed watermark
		}
		// A handle on a still-active segment is kept across calls: only the
		// committed extent it may read moves.
		t.r.limit = seg.size
		progressed := false
		for len(dst)-base < maxBytes {
			frame, rec, end, err := t.r.next()
			if err == nil && frame == nil && end != endClean {
				// Commits only ever advance the extent by whole records.
				err = fmt.Errorf("wal: tail %s: %s record frame at offset %d", seg.path, end, t.r.off)
			}
			if err != nil {
				t.rerr = err
				return dst, first, last, err
			}
			if frame == nil {
				break // the segment's committed extent is drained
			}
			if rec.Seq < t.next {
				continue // the prefix of a segment joined mid-way
			}
			if len(dst) == base {
				first = rec.Seq
			}
			dst = append(dst, frame...)
			last, t.next, progressed = rec.Seq, rec.Seq+1, true
		}
		if !progressed {
			break
		}
	}
	return dst, first, last, nil
}

// locate finds the segment holding t.next in the snapshot. ok=false means
// the reader is caught up (t.next is at or past the committed watermark, or
// only pending records remain); ErrGone means the position was collected.
func (t *TailReader) locate(snap readSnapshot) (segmentInfo, bool, error) {
	if t.next >= snap.committed {
		return segmentInfo{}, false, nil
	}
	// Candidates are segments with flushed records; the active segment may
	// legitimately hold none yet.
	var cands []segmentInfo
	for _, sg := range snap.segs {
		if sg.records > 0 {
			cands = append(cands, sg)
		}
	}
	if len(cands) == 0 || t.next < cands[0].firstSeq {
		// Below the watermark but not in any file: the records were either
		// garbage-collected or subsumed by a checkpoint before ever being
		// logged here (an AlignTo jump). Both mean "stream a checkpoint".
		return segmentInfo{}, false, ErrGone
	}
	idx := -1
	for i, sg := range cands {
		if sg.firstSeq <= t.next {
			idx = i
		}
	}
	sg := cands[idx]
	if t.next > sg.lastSeq {
		if idx == len(cands)-1 {
			// Past the last flushed record: the rest is pending (not yet
			// committed to the file) — caught up for now.
			return segmentInfo{}, false, nil
		}
		// A gap between segments (checkpoint ahead of a truncated tail):
		// the skipped records only exist inside a checkpoint.
		return segmentInfo{}, false, ErrGone
	}
	return sg, true, nil
}

// open starts reading a segment from its beginning. Records before t.next
// are parsed and skipped by Next — the vfs.File surface is sequential (no
// Seek), and a reconnecting consumer resuming mid-segment pays one scan of
// the prefix.
func (t *TailReader) open(path string) error {
	if t.r != nil {
		t.r.f.Close()
		t.r = nil
	}
	r, _, err := openSegment(t.w.fs, path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		// The segment was collected between the snapshot and the open; the
		// consumer needs a checkpoint.
		return ErrGone
	case err == nil && r == nil:
		return fmt.Errorf("wal: tail %s: no valid segment header", path)
	}
	t.r = r
	return err
}

// DecodeRecords iterates the raw record frames in b (the byte shape a
// TailReader emits and a replication shipper transports), checking each
// with the frame parser and handing the decoded records to fn in order. The
// Record's Point aliases a scratch buffer — fn must copy what it retains.
func DecodeRecords(b []byte, fn func(Record) error) error {
	var scratch []float64
	for off := 0; off < len(b); {
		rec, size, end := parseFrame(b[off:], &scratch)
		if end != endClean {
			return fmt.Errorf("wal: records: %s record frame at byte %d of %d", end, off, len(b))
		}
		if err := fn(rec); err != nil {
			return err
		}
		off += size
	}
	return nil
}
