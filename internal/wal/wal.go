package wal

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pskyline/internal/vfs"
)

// Fsync selects when appended records are forced to stable storage.
type Fsync int

const (
	// FsyncInterval (the default) fsyncs from a background flusher every
	// Options.FsyncInterval: bounded data loss on power failure, negligible
	// per-append cost. Process crashes (kill -9) lose nothing — commits
	// always reach the OS page cache.
	FsyncInterval Fsync = iota
	// FsyncAlways fsyncs on every Commit: no loss on power failure, one
	// fsync per group commit.
	FsyncAlways
	// FsyncNever never fsyncs: the OS flushes at its leisure. Survives
	// process crashes, not power failures.
	FsyncNever
)

func (f Fsync) String() string {
	switch f {
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	default:
		return "interval"
	}
}

// ParseFsync parses an fsync policy name: "always", "interval" or "never"
// ("" selects the default, interval).
func ParseFsync(s string) (Fsync, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "interval":
		return FsyncInterval, nil
	case "always":
		return FsyncAlways, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or never)", s)
}

// Options configures a WAL.
type Options struct {
	// Fsync is the commit durability policy.
	Fsync Fsync
	// FsyncInterval is the background flush period under FsyncInterval
	// (0 selects 100ms).
	FsyncInterval time.Duration
	// SegmentBytes is the rotation threshold (0 selects 64 MiB).
	SegmentBytes int64
	// SparseSeq relaxes sequence continuity to "strictly increasing":
	// consecutive records may skip sequence numbers. A shard of a sharded
	// monitor logs only its own subsequence of the globally numbered
	// stream, so gaps are the normal shape of its log, not corruption.
	// The same directory must be opened with the same setting it was
	// written with.
	SparseSeq bool
	// FS is the filesystem the log lives on. Nil selects the production
	// passthrough (vfs.OS); tests substitute a fault-injecting vfs.Fault.
	FS vfs.FS
	// Policy selects the response to durability failures: FailStop
	// (default), Retry or Shed. See the Policy constants.
	Policy Policy
	// RetryMax bounds in-place recovery attempts per failed operation under
	// the Retry policy (0 selects DefaultRetryMax).
	RetryMax int
	// RetryBase and RetryMaxDelay shape the exponential backoff between
	// retry attempts (0 selects DefaultRetryBase / DefaultRetryMaxDelay).
	RetryBase     time.Duration
	RetryMaxDelay time.Duration
	// OnStateChange, when non-nil, is invoked on every health state
	// transition. It runs with the WAL mutex held and must not block or
	// call back into the WAL — a non-blocking channel send is the intended
	// use.
	OnStateChange func(State)
	// Metrics, when non-nil, receives the WAL's counters and latency
	// histograms. Nil allocates a private, unexported block.
	Metrics *Metrics
}

// ScanResult reports what Open found (and repaired) in the directory.
type ScanResult struct {
	// HasRecords reports whether any valid record survives; NextSeq is then
	// the sequence the next appended record is expected to carry.
	HasRecords bool
	NextSeq    uint64
	// Records and Segments count the valid log tail.
	Records  uint64
	Segments int
	// TruncatedBytes is the invalid tail dropped from the first bad
	// segment; SegmentsDropped counts whole segments discarded after it.
	TruncatedBytes  int64
	SegmentsDropped int
	// TornSegments counts segments cut at a torn tail (a record that simply
	// ran out of bytes — the expected crash signature); CorruptSegments
	// counts segments cut at actual corruption (bad length, CRC or decode
	// with the bytes present).
	TornSegments    int
	CorruptSegments int
	// TmpFilesRemoved counts stale checkpoint temp files swept at Open
	// (debris from a checkpoint install that died before its rename).
	TmpFilesRemoved int
}

// ErrClosed is returned by operations on a closed WAL.
var ErrClosed = errors.New("wal: closed")

// WAL is an append-only segmented write-ahead log. The writer side
// (Append/Commit) is single-caller by contract — the Monitor serializes it
// under its ingestion mutex — while the internal mutex exists to coordinate
// with the background fsync flusher and with Close.
//
// Appends encode into an in-memory pending buffer; Commit performs the file
// write. Keeping unwritten records off the file until Commit is what makes
// failures recoverable: a failed write tears only the file (repaired by
// truncating back to the committed prefix), never the records, so the Retry
// policy can replay the same bytes and the caller observes nothing.
type WAL struct {
	dir string
	opt Options
	met *Metrics
	fs  vfs.FS
	rng *rand.Rand

	mu           sync.Mutex
	segs         []segmentInfo
	f            vfs.File
	size         int64 // bytes in the active segment (committed prefix)
	committed    int64 // last byte of the active segment known good on disk
	dirty        bool  // the file may hold a torn tail past committed
	total        int64 // bytes across all segments
	pending      []byte
	pendingRecs  uint64
	pendingFirst uint64 // seq of pending's first record (pendingRecs > 0)
	pendingLast  uint64 // seq of pending's last record (pendingRecs > 0)
	nextSeq      uint64 // seq the next appended record must carry (tracking only)
	fileRecs     uint64 // records flushed to the active segment
	fileLastSeq  uint64 // seq of the active segment's last flushed record (fileRecs > 0)
	rotate       bool   // force a fresh segment on the next flush
	failedSeg    string // segment path left as debris by a failed creation
	err          error  // sticky failure; nil while healthy
	closed       bool
	flushFails   int
	stopFlush    chan struct{}
	flushDone    chan struct{}

	stateA    atomic.Int32
	lastFault atomic.Pointer[error]
}

// Open opens (creating if needed) the WAL in dir, validating every segment
// from the front: the first corrupt or torn record truncates its segment at
// that point and discards all later segments, so the surviving log is a
// clean prefix of what was appended. A valid record out of its segment's
// sequence order (see scanSegment) is refused instead: Open returns an error
// naming the segment and both sequences, and changes no file. Stale
// checkpoint temp files are swept. The returned WAL is ready for Replay and
// further appends.
func Open(dir string, opt Options) (*WAL, ScanResult, error) {
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = 64 << 20
	}
	if opt.FsyncInterval <= 0 {
		opt.FsyncInterval = 100 * time.Millisecond
	}
	if opt.RetryMax <= 0 {
		opt.RetryMax = DefaultRetryMax
	}
	if opt.RetryBase <= 0 {
		opt.RetryBase = DefaultRetryBase
	}
	if opt.RetryMaxDelay <= 0 {
		opt.RetryMaxDelay = DefaultRetryMaxDelay
	}
	fsys := opt.FS
	if fsys == nil {
		fsys = vfs.OS{}
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, ScanResult{}, fmt.Errorf("wal: %w", err)
	}
	segs, err := listSegments(fsys, dir)
	if err != nil {
		return nil, ScanResult{}, err
	}
	// Validate before repairing anything, so a refused directory is left
	// exactly as it was. The scan stops at the first segment cut short: the
	// log is a prefix of what was appended, so nothing after it is used.
	scans := make([]segScan, 0, len(segs))
	for _, sg := range segs {
		sc, err := scanSegment(fsys, sg.path, sg.firstSeq, opt.SparseSeq, nil)
		if err != nil {
			return nil, ScanResult{}, err
		}
		if sc.end == endOrder {
			return nil, ScanResult{}, orderError(sc, opt.SparseSeq)
		}
		scans = append(scans, sc)
		if sc.end != endClean {
			break
		}
	}
	var res ScanResult
	swept, err := sweepTmp(fsys, dir)
	if err != nil {
		return nil, ScanResult{}, err
	}
	res.TmpFilesRemoved = swept
	var valid []segmentInfo
	for i, sc := range scans {
		if sc.end != endClean {
			// Torn or corrupt tail: truncate to the last valid record.
			fi, err := fsys.Stat(sc.info.path)
			if err != nil {
				return nil, ScanResult{}, fmt.Errorf("wal: %w", err)
			}
			res.TruncatedBytes += fi.Size() - sc.info.size
			if err := fsys.Truncate(sc.info.path, sc.info.size); err != nil {
				return nil, ScanResult{}, fmt.Errorf("wal: truncate torn tail: %w", err)
			}
			if sc.end == endCorrupt {
				res.CorruptSegments++
			} else {
				res.TornSegments++
			}
		}
		if sc.info.records > 0 {
			valid = append(valid, sc.info)
			res.Records += sc.info.records
			res.NextSeq = sc.info.lastSeq + 1
			res.HasRecords = true
		} else if err := fsys.Remove(sc.info.path); err != nil {
			// A segment with no valid records carries no information.
			return nil, ScanResult{}, fmt.Errorf("wal: %w", err)
		}
		if sc.end != endClean {
			// Everything after the torn point is untrustworthy: discard the
			// remaining segments so the log stays a clean prefix.
			for _, later := range segs[i+1:] {
				if err := fsys.Remove(later.path); err != nil {
					return nil, ScanResult{}, fmt.Errorf("wal: %w", err)
				}
				res.SegmentsDropped++
			}
		}
	}
	w := &WAL{
		dir:  dir,
		opt:  opt,
		met:  opt.Metrics,
		fs:   fsys,
		rng:  rand.New(rand.NewSource(1)),
		segs: valid,
	}
	if w.met == nil {
		w.met = new(Metrics)
	}
	for _, s := range w.segs {
		w.total += s.size
	}
	w.nextSeq = res.NextSeq
	res.Segments = len(w.segs)
	// Appends continue in the last surviving segment; a fresh segment is
	// created lazily on the first flush otherwise.
	if n := len(w.segs); n > 0 {
		last := &w.segs[n-1]
		f, err := fsys.OpenAppend(last.path)
		if err != nil {
			return nil, ScanResult{}, fmt.Errorf("wal: %w", err)
		}
		w.f = f
		w.size = last.size
		w.committed = last.size
		w.fileRecs = last.records
		w.fileLastSeq = last.lastSeq
	}
	w.met.Segments.SetInt(len(w.segs))
	w.met.SizeBytes.Set(float64(w.total))
	w.met.State.SetInt(int(StateHealthy))
	if opt.Fsync == FsyncInterval {
		w.stopFlush = make(chan struct{})
		w.flushDone = make(chan struct{})
		go w.flusher(w.stopFlush)
	}
	return w, res, nil
}

// orderError is Open's refusal of a segment whose valid record breaks the
// sequence order: the bytes are intact, so truncating them would destroy a
// log that is only being read with the wrong settings.
func orderError(sc segScan, sparse bool) error {
	if sc.info.records == 0 {
		return fmt.Errorf("wal: segment %s: first record has sequence %d, its name says %d; refusing to open", sc.info.path, sc.seq, sc.info.firstSeq)
	}
	if sparse {
		return fmt.Errorf("wal: segment %s: record %d follows record %d; refusing to open", sc.info.path, sc.seq, sc.info.lastSeq)
	}
	return fmt.Errorf("wal: segment %s: record %d follows record %d in a dense log (a shard member's log?); refusing to open", sc.info.path, sc.seq, sc.info.lastSeq)
}

// sweepTmp removes stale checkpoint temp files (ckpt-*.ckpt.tmp): debris
// from an install that crashed or failed before its atomic rename.
func sweepTmp(fsys vfs.FS, dir string) (int, error) {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	removed := 0
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".ckpt.tmp") || !strings.HasPrefix(name, "ckpt-") {
			continue
		}
		if err := fsys.Remove(filepath.Join(dir, name)); err != nil {
			return removed, fmt.Errorf("wal: sweep tmp: %w", err)
		}
		removed++
	}
	return removed, nil
}

// AlignTo prepares the WAL for appends starting at seq. When the log's tail
// does not line up with seq (a checkpoint newer than the surviving tail, or
// records skipped by recovery), the next flush opens a fresh segment named
// by its first record so intra-segment sequence continuity is preserved.
func (w *WAL) AlignTo(seq uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	// In sparse mode a forward jump is an ordinary gap — appends may
	// continue in the active segment; only a regression (a checkpoint ahead
	// of the surviving tail) forces a fresh segment. Dense logs rotate on
	// any misalignment.
	misaligned := w.nextSeq != seq
	if w.opt.SparseSeq {
		misaligned = seq < w.nextSeq
	}
	if w.f != nil && misaligned {
		// Finalize the tail's metadata at its true span before nextSeq moves.
		w.segMetaLocked()
		w.rotate = true
	}
	w.nextSeq = seq
}

// AppendElement appends one element record to the pending buffer; nothing
// touches the disk (and nothing is promised durable) until Commit. It cannot
// fail while the log is attached: in StateDegraded the record is counted and
// dropped, and after detach the sticky error is returned.
func (w *WAL) AppendElement(seq uint64, pt []float64, p float64, ts int64) error {
	t0 := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.opt.SparseSeq && seq < w.nextSeq {
		// A sparse log has no dense continuity to enforce, so regressions
		// would otherwise go undetected until a scan flags the segment
		// corrupt. Catch the caller bug at the source instead.
		return fmt.Errorf("wal: append sequence %d behind log position %d", seq, w.nextSeq)
	}
	if w.State() == StateDegraded {
		w.met.DroppedRecords.Inc()
		w.met.DroppedBytes.Add(uint64(recordLen(len(pt))))
		w.nextSeq = seq + 1
		return nil
	}
	if len(w.pending) == 0 {
		w.pendingFirst = seq
	}
	w.pending = appendRecord(w.pending, seq, pt, p, ts)
	w.pendingRecs++
	w.pendingLast = seq
	w.nextSeq = seq + 1
	w.met.Appends.Inc()
	w.met.AppendLatency.Record(time.Since(t0))
	return nil
}

// Commit writes every record appended since the previous Commit to the file
// (crash-safe) and, under FsyncAlways, fsyncs (power-safe). One Commit per
// ingested batch is the group-commit contract that amortizes the syscalls.
// Failures are routed through the durability policy: a Retry success or a
// Shed degradation both return nil.
func (w *WAL) Commit() error {
	t0 := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.State() == StateDegraded {
		w.dropPendingLocked()
		return nil
	}
	if err := w.writePendingOnceLocked(); err != nil {
		if err = w.failLocked("commit", err, opFlush); err != nil {
			return err
		}
	}
	if w.opt.Fsync == FsyncAlways && w.State() != StateDegraded {
		if err := w.fsyncOnceLocked(); err != nil {
			if err = w.failLocked("fsync", err, opFsync); err != nil {
				return err
			}
		}
	}
	if w.State() == StateRetrying {
		// A flusher-tick failure left the state armed; this commit went
		// through whole, so the incident is over.
		w.setStateLocked(StateHealthy, nil)
	}
	w.met.Commits.Inc()
	w.met.CommitLatency.Record(time.Since(t0))
	return nil
}

// Sync flushes pending records and fsyncs the active segment, whatever the
// fsync policy. Failures go through the durability policy like Commit's.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.State() == StateDegraded {
		w.dropPendingLocked()
		return nil
	}
	if err := w.writePendingOnceLocked(); err != nil {
		if err = w.failLocked("sync", err, opFlush); err != nil {
			return err
		}
	}
	if w.State() == StateDegraded {
		return nil
	}
	if err := w.fsyncOnceLocked(); err != nil {
		if err = w.failLocked("fsync", err, opFsync); err != nil {
			return err
		}
	}
	return nil
}

// writePendingOnceLocked makes one attempt to put the pending records on
// disk: ensure an active segment (rotating as needed) and issue a single
// write. On success the committed prefix advances and pending resets; on
// failure pending is kept (the records are not lost) and the file is marked
// dirty for repair.
func (w *WAL) writePendingOnceLocked() error {
	if len(w.pending) == 0 {
		return nil
	}
	if err := w.ensureSegmentLocked(w.pendingFirst, int64(len(w.pending))); err != nil {
		return err
	}
	if _, err := w.f.Write(w.pending); err != nil {
		// A short write may have torn the tail past the committed prefix.
		w.dirty = true
		return fmt.Errorf("wal: append: %w", err)
	}
	n := int64(len(w.pending))
	w.size += n
	w.committed = w.size
	w.total += n
	w.fileRecs += w.pendingRecs
	w.fileLastSeq = w.pendingLast
	w.met.AppendedBytes.Add(uint64(n))
	w.met.SizeBytes.Set(float64(w.total))
	w.pending = w.pending[:0]
	w.pendingRecs = 0
	return nil
}

// fsyncOnceLocked makes one fsync attempt on the active segment.
func (w *WAL) fsyncOnceLocked() error {
	if w.f == nil {
		return nil
	}
	t0 := time.Now()
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	w.met.Fsyncs.Inc()
	w.met.FsyncLatency.Record(time.Since(t0))
	return nil
}

// retryOp names the step failLocked re-executes between repairs. An enum
// rather than a closure keeps the happy path allocation-free.
type retryOp int

const (
	opFlush retryOp = iota
	opFsync
)

func (w *WAL) retryOpLocked(op retryOp) error {
	if op == opFsync {
		return w.fsyncOnceLocked()
	}
	return w.writePendingOnceLocked()
}

// failLocked routes one durability failure through the configured policy.
// Returns nil when the failure was absorbed — retried to success, or shed
// (the caller should then check State for degradation). Non-nil means the
// WAL is detached and the error is sticky.
func (w *WAL) failLocked(what string, err error, op retryOp) error {
	w.met.WriteErrors.Inc()
	switch w.opt.Policy {
	case Shed:
		w.degradeLocked(what, err)
		return nil
	case Retry:
		w.setStateLocked(StateRetrying, err)
		for attempt := 1; attempt <= w.opt.RetryMax; attempt++ {
			// Sleeping with the mutex held is deliberate backpressure:
			// ingestion stalls while the disk misbehaves, queries stay
			// lock-free and unaffected.
			time.Sleep(w.backoffDelay(attempt))
			w.met.Retries.Inc()
			if rerr := w.repairLocked(); rerr != nil {
				w.met.WriteErrors.Inc()
				err = rerr
				continue
			}
			if err = w.retryOpLocked(op); err == nil {
				w.setStateLocked(StateHealthy, nil)
				return nil
			}
			w.met.WriteErrors.Inc()
		}
	}
	return w.detachLocked(what, err)
}

// repairLocked restores the invariant that the active segment holds exactly
// its committed clean prefix: close the (possibly wedged) handle, truncate
// any torn tail written past the last known-good byte, and reopen for
// append. Any step may itself fail; the retry loop absorbs that.
func (w *WAL) repairLocked() error {
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
	if len(w.segs) == 0 {
		return nil
	}
	last := &w.segs[len(w.segs)-1]
	if w.dirty {
		if err := w.fs.Truncate(last.path, w.committed); err != nil {
			return fmt.Errorf("wal: repair truncate: %w", err)
		}
		w.dirty = false
	}
	f, err := w.fs.OpenAppend(last.path)
	if err != nil {
		return fmt.Errorf("wal: repair reopen: %w", err)
	}
	w.f = f
	w.size = w.committed
	return nil
}

// degradeLocked sheds durability: pending records are counted and dropped,
// the handle is released, and the WAL sits in StateDegraded absorbing
// appends as counted no-ops until Reattach.
func (w *WAL) degradeLocked(what string, err error) {
	w.dropPendingLocked()
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
	w.dirty = false
	w.setStateLocked(StateDegraded, fmt.Errorf("wal: %s: %w", what, err))
}

func (w *WAL) dropPendingLocked() {
	if w.pendingRecs > 0 {
		w.met.DroppedRecords.Add(w.pendingRecs)
		w.met.DroppedBytes.Add(uint64(len(w.pending)))
		w.pending = w.pending[:0]
		w.pendingRecs = 0
	}
}

// detachLocked latches the sticky error: the WAL is dead to further writes.
func (w *WAL) detachLocked(what string, err error) error {
	w.err = fmt.Errorf("wal: %s: %w", what, errors.Join(ErrDetached, err))
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
	w.setStateLocked(StateDetached, w.err)
	return w.err
}

// Reattach restores durability after Shed degradation. The caller must have
// installed a fresh checkpoint capturing stream position seq: every record
// the old log held predates it, so the stale segments (including any torn
// pre-degradation tail) are removed and logging restarts cleanly at seq.
// A failure leaves the WAL degraded; calling again retries the remaining
// removals. No-op unless degraded.
func (w *WAL) Reattach(seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.State() != StateDegraded {
		return nil
	}
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
	for len(w.segs) > 0 {
		sg := w.segs[0]
		if err := w.fs.Remove(sg.path); err != nil {
			w.met.Segments.SetInt(len(w.segs))
			w.met.SizeBytes.Set(float64(w.total))
			return fmt.Errorf("wal: reattach: %w", err)
		}
		w.total -= sg.size
		w.segs = w.segs[1:]
	}
	w.total = 0
	w.size = 0
	w.committed = 0
	w.dirty = false
	w.pending = w.pending[:0]
	w.pendingRecs = 0
	w.fileRecs = 0
	w.fileLastSeq = 0
	w.rotate = false
	w.failedSeg = ""
	w.nextSeq = seq
	w.met.Segments.SetInt(0)
	w.met.SizeBytes.Set(0)
	w.met.Reattaches.Inc()
	w.setStateLocked(StateHealthy, nil)
	return nil
}

// ensureSegmentLocked makes sure an active segment can take n more bytes,
// rotating or creating one as needed. seq names the new segment (its first
// record's sequence). Errors are returned plain — the caller routes them
// through the durability policy.
func (w *WAL) ensureSegmentLocked(seq uint64, n int64) error {
	needNew := w.f == nil || w.rotate ||
		(w.size+n > w.opt.SegmentBytes && w.size > segHdrLen)
	if !needNew {
		return nil
	}
	if w.f != nil {
		if !w.rotate {
			// An AlignTo rotation already finalized the tail's metadata (and
			// nextSeq has since moved); only size rotations finalize here.
			w.segMetaLocked()
		}
		// The retiring segment is sealed with an fsync regardless of policy:
		// rotation is rare and a sealed segment never changes again.
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("wal: rotate: %w", err)
		}
		if err := w.f.Close(); err != nil {
			w.f = nil
			return fmt.Errorf("wal: rotate: %w", err)
		}
		w.f = nil
		w.met.Rotations.Inc()
	}
	path := filepath.Join(w.dir, segmentName(seq))
	var f vfs.File
	var err error
	if path == w.failedSeg {
		// A previous creation attempt left debris under this name (its
		// Remove failed too); truncate it rather than tripping over our own
		// leftovers with O_EXCL.
		f, err = w.fs.Create(path)
	} else {
		f, err = w.fs.CreateExcl(path)
	}
	if err != nil {
		return fmt.Errorf("wal: new segment: %w", err)
	}
	if _, err := f.Write(segMagic); err != nil {
		f.Close()
		if w.fs.Remove(path) != nil {
			w.failedSeg = path
		}
		return fmt.Errorf("wal: new segment: %w", err)
	}
	if err := w.fs.SyncDir(w.dir); err != nil {
		f.Close()
		if w.fs.Remove(path) != nil {
			w.failedSeg = path
		}
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	w.rotate = false
	w.failedSeg = ""
	w.f = f
	w.size = segHdrLen
	w.committed = segHdrLen
	w.dirty = false
	w.fileRecs = 0
	w.fileLastSeq = 0
	w.total += segHdrLen
	w.segs = append(w.segs, segmentInfo{path: path, firstSeq: seq, size: segHdrLen})
	w.met.Segments.SetInt(len(w.segs))
	w.met.SizeBytes.Set(float64(w.total))
	return nil
}

// segMetaLocked finalizes the active segment's bookkeeping (size, record
// span) before the segment list is consulted for rotation or GC. The record
// count and last sequence are tracked exactly at flush time — arithmetic
// from the next sequence would miscount sparse (gapped) logs — and pending
// (unflushed) records are not part of the segment yet.
func (w *WAL) segMetaLocked() {
	if n := len(w.segs); n > 0 && w.f != nil {
		last := &w.segs[n-1]
		last.size = w.size
		last.records = w.fileRecs
		if w.fileRecs > 0 {
			last.lastSeq = w.fileLastSeq
		}
	}
}

// GC removes segments every record of which is strictly below keepSeq — the
// caller passes min(newest checkpoint seq, window horizon seq), so a segment
// is only collected once both the checkpoint and the sliding window have
// moved past it. The active (last) segment is never collected.
func (w *WAL) GC(keepSeq uint64) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrClosed
	}
	w.segMetaLocked()
	removed := 0
	for len(w.segs) > 1 && w.segs[0].lastSeq < keepSeq {
		sg := w.segs[0]
		if err := w.fs.Remove(sg.path); err != nil {
			return removed, fmt.Errorf("wal: gc: %w", err)
		}
		w.total -= sg.size
		w.segs = w.segs[1:]
		removed++
	}
	if removed > 0 {
		w.met.GCSegments.Add(uint64(removed))
		w.met.Segments.SetInt(len(w.segs))
		w.met.SizeBytes.Set(float64(w.total))
	}
	return removed, nil
}

// SegmentCount returns the number of live segments.
func (w *WAL) SegmentCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.segs)
}

// SizeBytes returns the total on-disk size of the log.
func (w *WAL) SizeBytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.total
}

// flusher is the FsyncInterval background goroutine. The stop channel is
// passed in (captured at spawn time): stopFlusher nils the w.stopFlush field
// for idempotency, and it can run before this goroutine is first scheduled —
// reading the field here could then see nil and block forever.
//
// A failed tick does not sleep-retry in place (that would wedge commits for
// the whole backoff); under Retry it repairs once and arms StateRetrying,
// letting the next tick — or the next Commit — finish the recovery. After
// RetryMax consecutive failed ticks the WAL detaches.
func (w *WAL) flusher(stop <-chan struct{}) {
	defer close(w.flushDone)
	t := time.NewTicker(w.opt.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			w.mu.Lock()
			if w.err == nil && w.State() != StateDegraded && (w.f != nil || len(w.pending) > 0) {
				err := w.writePendingOnceLocked()
				if err == nil {
					err = w.fsyncOnceLocked()
				}
				if err == nil {
					w.flushFails = 0
					if w.State() == StateRetrying {
						w.setStateLocked(StateHealthy, nil)
					}
				} else {
					w.met.WriteErrors.Inc()
					w.flushFails++
					switch {
					case w.opt.Policy == Shed:
						w.degradeLocked("flush", err)
					case w.opt.Policy == Retry && w.flushFails <= w.opt.RetryMax:
						w.setStateLocked(StateRetrying, err)
						if rerr := w.repairLocked(); rerr != nil {
							w.met.WriteErrors.Inc()
						}
					default:
						w.detachLocked("flush", err)
					}
				}
			}
			w.mu.Unlock()
		}
	}
}

// Close flushes, fsyncs and closes the log. Idempotent.
func (w *WAL) Close() error {
	w.stopFlusher()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	var firstErr error
	if w.err == nil && w.State() != StateDegraded {
		if err := w.writePendingOnceLocked(); err != nil {
			firstErr = err
		} else if err := w.fsyncOnceLocked(); err != nil {
			firstErr = err
		}
	}
	if w.f != nil {
		if err := w.f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		w.f = nil
	}
	if w.err == nil {
		w.err = ErrClosed
	}
	if firstErr != nil {
		return fmt.Errorf("wal: close: %w", firstErr)
	}
	return nil
}

// Abort closes the log WITHOUT flushing pending records — the file is left
// exactly as the last Commit (and the OS) saw it. It exists for crash
// simulation in tests and for tearing down a WAL whose state is already
// known bad.
func (w *WAL) Abort() {
	w.stopFlusher()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return
	}
	w.closed = true
	w.pending = w.pending[:0]
	w.pendingRecs = 0
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
	if w.err == nil {
		w.err = ErrClosed
	}
}

func (w *WAL) stopFlusher() {
	w.mu.Lock()
	stop := w.stopFlush
	w.stopFlush = nil
	w.mu.Unlock()
	if stop != nil {
		close(stop)
		<-w.flushDone
	}
}
