package pskyline

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"pskyline/internal/vfs"
	"pskyline/internal/wal"
)

// DefaultCheckpointEvery is the automatic checkpoint cadence when
// Durability.CheckpointEvery is zero.
const DefaultCheckpointEvery = 1 << 16

// DefaultReattachEvery is the degraded-mode reattach probe cadence when
// Durability.ReattachEvery is zero.
const DefaultReattachEvery = time.Second

// Durability configures the write-ahead log and checkpoint store that make a
// Monitor crash-recoverable. With Dir set, every Push appends the element to
// a segmented WAL and commits it (one group commit per push or per ingested
// batch) before the engine applies it, so a crash at any point loses at most
// what the fsync policy permits; Open then recovers by restoring the newest
// valid checkpoint and re-ingesting the log tail.
//
// The paper's Theorem 5 is why the log exists: the maintained candidate set
// S_{N,q} is minimal, so no snapshot of the in-memory state can reconstruct
// the rest of the window — recovery must replay the raw arrival stream. The
// sliding window bounds the cost: segments behind both the newest checkpoint
// and the window horizon are garbage-collected, so the log's size tracks the
// window, not the stream.
//
// Element payloads (Element.Data) are not written to the WAL — they are
// arbitrary Go values with no stable binary encoding on the hot path. They
// ARE captured by checkpoints (gob), so after recovery, elements restored
// from the checkpoint keep their payloads while elements replayed from the
// log tail carry nil Data.
type Durability struct {
	// Dir is the durability directory holding WAL segments and checkpoints.
	// Empty disables durability.
	Dir string
	// Fsync is the commit durability policy: "always" (fsync on every
	// commit — no loss on power failure), "interval" (background fsync
	// every FsyncInterval — bounded loss on power failure; the default) or
	// "never" (the OS flushes at its leisure). All three survive process
	// crashes (kill -9): commits always reach the OS page cache.
	Fsync string
	// FsyncInterval is the background fsync period under the "interval"
	// policy (0 selects 100ms).
	FsyncInterval time.Duration
	// SegmentBytes is the WAL segment rotation threshold (0 selects 64 MiB).
	SegmentBytes int64
	// CheckpointEvery installs a checkpoint (and garbage-collects the log)
	// after this many ingested elements. 0 selects DefaultCheckpointEvery;
	// negative disables automatic checkpoints — the log then grows until
	// Checkpoint is called explicitly.
	CheckpointEvery int

	// Policy selects the response to durability failures (disk write, fsync,
	// rotation or segment-creation errors): "failstop" (the default — the
	// first failure latches a sticky error and every later push fails fast),
	// "retry" (bounded in-place recovery with exponential backoff; transient
	// faults are invisible to callers) or "shed" (drop durability, keep
	// ingesting and serving; a background goroutine restores durability with
	// a fresh checkpoint once the disk heals). See DESIGN.md §12.
	Policy string
	// RetryMax bounds recovery attempts per failed operation under the
	// "retry" policy (0 selects wal.DefaultRetryMax). RetryBase and
	// RetryMaxDelay shape the backoff between attempts.
	RetryMax      int
	RetryBase     time.Duration
	RetryMaxDelay time.Duration
	// ReattachEvery is the degraded-mode probe cadence under the "shed"
	// policy: how often the monitor attempts to write a fresh checkpoint and
	// reattach the log (0 selects DefaultReattachEvery).
	ReattachEvery time.Duration

	// Progress, when non-nil, is updated live while Open replays the log,
	// so a health endpoint can report recovery progress from another
	// goroutine. Allocate one RecoveryProgress per Open.
	Progress *RecoveryProgress

	// InjectFaults, when non-empty, wraps the durability filesystem in a
	// deterministic, seeded fault injector driven by this schedule spec
	// (vfs.ParseSchedule syntax; the -wal-fault CLI knob). Chaos testing
	// only — never set it in production.
	InjectFaults string
	// FaultSeed seeds the schedule's probabilistic rules (0 selects 1).
	FaultSeed int64

	fs vfs.FS // test hook: overrides the filesystem (see export_test.go)
}

// Namespace derives a Durability configuration rooted at a subdirectory of
// this one — the layout seam behind multi-tenant streams
// (<root>/streams/<name>) and sharded monitors (<stream>/shard-NNN). Every
// other knob (fsync, policy, fault injection, the test filesystem) is
// inherited. Each part must be a valid stream name (see StreamConfig), so a
// namespace can never escape the root or collide with the WAL's own files.
func (d Durability) Namespace(parts ...string) (Durability, error) {
	if d.Dir == "" {
		return d, errors.New("pskyline: Namespace requires Durability.Dir")
	}
	nd := d
	for _, p := range parts {
		if err := ValidateStreamName(p); err != nil {
			return d, err
		}
		nd.Dir = filepath.Join(nd.Dir, p)
	}
	return nd, nil
}

// RecoveryProgress is a live view of Open's crash-recovery replay: how many
// WAL segments have been decoded and how many records re-ingested so far.
// All methods are safe to call from any goroutine while Open runs — pass the
// same value in Durability.Progress and poll it from a readiness endpoint.
type RecoveryProgress struct{ p wal.ReplayProgress }

// SegmentsTotal returns the number of WAL segments the replay will decode.
func (r *RecoveryProgress) SegmentsTotal() uint64 { return r.p.SegmentsTotal() }

// SegmentsDecoded returns the number of segments fully decoded so far.
func (r *RecoveryProgress) SegmentsDecoded() uint64 { return r.p.SegmentsDecoded() }

// RecordsReplayed returns the number of log records re-ingested so far.
func (r *RecoveryProgress) RecordsReplayed() uint64 { return r.p.RecordsReplayed() }

// RecoveryInfo reports what Open found and repaired. It is fixed at Open
// time; Monitor.Recovery returns it.
type RecoveryInfo struct {
	// Recovered reports whether existing durable state (a checkpoint or log
	// records) was found and restored.
	Recovered bool
	// CheckpointSeq is the stream position of the checkpoint recovery
	// started from (0 when recovery replayed the log from scratch).
	CheckpointSeq uint64
	// Replayed counts the WAL records re-ingested after the checkpoint.
	Replayed uint64
	// TruncatedBytes is the torn log tail discarded by crash repair, and
	// SegmentsDropped the whole segments discarded after a corrupt one.
	TruncatedBytes  int64
	SegmentsDropped int
	// TornSegments counts segments cut at a plain torn tail (the expected
	// crash signature); CorruptSegments counts segments cut at actual
	// corruption (bad length, checksum or decode). A valid record out of
	// sequence order is not cut: Open refuses the directory instead.
	TornSegments    int
	CorruptSegments int
	// CheckpointsSkipped counts newer checkpoints that failed to decode and
	// were passed over for an older one.
	CheckpointsSkipped int
	// TmpFilesRemoved counts stale checkpoint temp files swept at Open.
	TmpFilesRemoved int
	// Duration is the wall time recovery took.
	Duration time.Duration
}

// Open opens a durable Monitor rooted at opt.Durability.Dir. A fresh
// directory starts an empty monitor whose pushes are logged; an existing one
// is recovered: the newest decodable checkpoint is restored (older ones are
// tried if the newest is unreadable), torn WAL tails from the crash are
// truncated, and the surviving log tail past the checkpoint is re-ingested
// through the exact ingestion path used live, so the recovered state is
// byte-identical to the state the uninterrupted monitor had after its last
// committed push. Checkpointed band trees are rebuilt bottom-up with STR
// bulk loading, so reopening a large window from its checkpoint costs
// seconds, not minutes; the log tail is read by one serial replay, since
// re-applying its records in log order, not decoding them, is what the tail
// costs. Recovery suppresses OnEnter/OnLeave/OnTopK callbacks — the
// transitions were already reported before the crash.
//
// The caller must pass the same core Options (Dims, Window/Period,
// Thresholds) on every Open of the same directory: the WAL logs only
// elements, not configuration. A mismatch with a recovered checkpoint is
// rejected, as RestoreMonitor rejects it, and is never a reason to fall
// back to an older checkpoint; thresholds are compared as a set (order and
// duplicates do not matter). AddThreshold and RemoveThreshold are not
// logged either: a checkpoint records the threshold set current when it was
// taken, so a directory whose thresholds changed reopens with that set, and
// Open must be passed it rather than the original one. MaxEntries (the
// R-tree shape) is taken from the checkpoint; the option applies to a fresh
// directory. A sharded stream's member directory (<dir>/shard-NNN) opened
// as a standalone monitor is refused without touching any file: its log
// skips the other shards' sequences, and a valid record out of sequence
// order is an error, never a torn tail to truncate.
func Open(opt Options) (*Monitor, error) {
	d := opt.Durability
	if d.Dir == "" {
		return nil, errors.New("pskyline: Open requires Options.Durability.Dir")
	}
	pol, err := wal.ParseFsync(d.Fsync)
	if err != nil {
		return nil, fmt.Errorf("pskyline: %w", err)
	}
	fpol, err := wal.ParsePolicy(d.Policy)
	if err != nil {
		return nil, fmt.Errorf("pskyline: %w", err)
	}
	if d.CheckpointEvery == 0 {
		d.CheckpointEvery = DefaultCheckpointEvery
	} else if d.CheckpointEvery < 0 {
		d.CheckpointEvery = 0
	}
	if d.ReattachEvery <= 0 {
		d.ReattachEvery = DefaultReattachEvery
	}
	fsys := d.fs
	if fsys == nil && d.InjectFaults != "" {
		seed := d.FaultSeed
		if seed == 0 {
			seed = 1
		}
		f, err := vfs.ParseSchedule(vfs.OS{}, seed, d.InjectFaults)
		if err != nil {
			return nil, fmt.Errorf("pskyline: %w", err)
		}
		fsys = f
	}
	if fsys == nil {
		fsys = vfs.OS{}
	}
	t0 := time.Now()

	// Restore the newest checkpoint that decodes; fall back to older ones
	// (atomic installation makes a corrupt newest checkpoint unlikely, but a
	// decode failure must not brick the directory).
	refs, err := wal.Checkpoints(fsys, d.Dir)
	if err != nil {
		return nil, fmt.Errorf("pskyline: open: %w", err)
	}
	var (
		m       *Monitor
		rec     RecoveryInfo
		lastErr error
	)
	for _, ref := range refs {
		f, err := fsys.Open(ref.Path)
		undecodable := err != nil
		if err == nil {
			m, undecodable, err = restoreChecked(f, opt)
			f.Close()
		}
		if undecodable {
			lastErr = err
			rec.CheckpointsSkipped++
			continue
		}
		if err != nil {
			return nil, err
		}
		rec.CheckpointSeq = ref.Seq
		rec.Recovered = true
		break
	}
	if m == nil {
		if rec.CheckpointsSkipped > 0 {
			return nil, fmt.Errorf("pskyline: open: no checkpoint decodes (last error: %w); refusing to silently restart from the log alone", lastErr)
		}
		if m, err = newMonitorCore(opt); err != nil {
			return nil, err
		}
	}

	m.fsys = fsys
	m.walPol = fpol
	m.degradedCh = make(chan struct{}, 1)
	w, scan, err := wal.Open(d.Dir, wal.Options{
		Fsync:         pol,
		FsyncInterval: d.FsyncInterval,
		SegmentBytes:  d.SegmentBytes,
		SparseSeq:     opt.shard != nil,
		FS:            fsys,
		Policy:        fpol,
		RetryMax:      d.RetryMax,
		RetryBase:     d.RetryBase,
		RetryMaxDelay: d.RetryMaxDelay,
		OnStateChange: m.walStateChanged,
		Metrics:       &m.met.wal,
	})
	if err != nil {
		return nil, fmt.Errorf("pskyline: %w", err)
	}
	rec.TruncatedBytes = scan.TruncatedBytes
	rec.SegmentsDropped = scan.SegmentsDropped
	rec.TornSegments = scan.TornSegments
	rec.CorruptSegments = scan.CorruptSegments
	rec.TmpFilesRemoved = scan.TmpFilesRemoved
	if scan.HasRecords {
		rec.Recovered = true
	}

	// Re-ingest the committed log tail through the live ingestion path.
	// A dense (standalone) log must continue exactly where the engine
	// stands: a gap means the checkpoint predates the garbage-collected
	// log. A shard member's log is legitimately sparse — it holds one
	// shard's subsequence of the globally numbered stream — so only
	// regressions (records behind the engine) are rejected.
	m.replaying = true
	var wp *wal.ReplayProgress
	if d.Progress != nil {
		wp = &d.Progress.p
	}
	replayed, rerr := w.Replay(m.eng.NextSeq(), wp, func(r wal.Record) error {
		want := m.eng.NextSeq()
		if m.opts.shard != nil {
			if r.Seq < want {
				return fmt.Errorf("log record %d behind shard engine position %d", r.Seq, want)
			}
		} else if r.Seq != want {
			return fmt.Errorf("log record %d does not continue engine position %d (checkpoint older than the retained log?)", r.Seq, want)
		}
		return m.pushLocked(r.Seq, Element{Point: r.Point, Prob: r.Prob, TS: r.TS})
	})
	m.replaying = false
	if rerr != nil {
		w.Close()
		return nil, fmt.Errorf("pskyline: open: replay: %w", rerr)
	}
	rec.Replayed = replayed
	rec.Duration = time.Since(t0)

	// If the checkpoint is ahead of the surviving tail (possible under lax
	// fsync policies after a power failure), appends restart in a fresh
	// segment so intra-segment sequence continuity holds.
	w.AlignTo(m.eng.NextSeq())
	m.wal = w
	m.dur = d
	m.met.ckptSeqA.Store(rec.CheckpointSeq)
	m.recovery = rec
	return m.finish(), nil
}

// Recovery returns what Open found and repaired (the zero RecoveryInfo for
// non-durable monitors).
func (m *Monitor) Recovery() RecoveryInfo { return m.recovery }

// WALState returns the durability health state (wal.StateHealthy for
// non-durable monitors, where there is nothing to be unhealthy about).
// Lock-free.
func (m *Monitor) WALState() wal.State {
	if m.wal == nil {
		return wal.StateHealthy
	}
	return m.wal.State()
}

// walStateChanged is the WAL's OnStateChange hook. It runs with the WAL
// mutex held, so it only pokes the reattacher's wakeup channel (non-blocking;
// the channel has capacity 1 and the reattacher also polls on a ticker).
func (m *Monitor) walStateChanged(s wal.State) {
	if s == wal.StateDegraded {
		select {
		case m.degradedCh <- struct{}{}:
		default:
		}
	}
}

// reattacher is the Shed policy's background recovery goroutine: whenever
// the WAL sits degraded, it periodically tries to write a fresh checkpoint
// (capturing everything ingested so far, including the records shed while
// degraded) and, on success, reattaches the log. stop is captured at spawn
// time like the WAL flusher's.
func (m *Monitor) reattacher(stop <-chan struct{}) {
	defer close(m.reattachDone)
	t := time.NewTicker(m.dur.ReattachEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-m.degradedCh:
		case <-t.C:
		}
		if m.wal.State() == wal.StateDegraded {
			m.tryReattachLocked()
		}
	}
}

// tryReattachLocked makes one reattach attempt: checkpoint at the current
// stream position, then hand the log a clean restart at that position. Both
// steps can fail (the disk may still be sick) — the monitor simply stays
// degraded and the next tick retries.
func (m *Monitor) tryReattachLocked() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || m.wal.State() != wal.StateDegraded {
		return
	}
	seq, err := m.installCheckpointLocked()
	if err != nil {
		m.met.ckptFails.Inc()
		return
	}
	if err := m.wal.Reattach(seq); err != nil {
		return
	}
	// Old checkpoints are superseded; a failure here is retried by the next
	// regular checkpoint.
	wal.RemoveCheckpointsBefore(m.fsys, m.dur.Dir, seq)
}

// stopReattacher shuts the Shed recovery goroutine down. Idempotent; no-op
// for monitors without one.
func (m *Monitor) stopReattacher() {
	if m.reattachStop == nil {
		return
	}
	m.reattachOnce.Do(func() {
		close(m.reattachStop)
		<-m.reattachDone
	})
}

// Checkpoint installs a checkpoint of the current ingested state and
// garbage-collects log segments and older checkpoints that recovery can no
// longer need. With an async queue, call Drain first to checkpoint a
// deterministic cut of the stream.
func (m *Monitor) Checkpoint() error {
	if m.wal == nil {
		return errors.New("pskyline: monitor has no durability (Options.Durability.Dir)")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.checkpointLocked()
}

// logOpsLocked appends a write's pushes under one group commit: one append
// per push, one write, at most one fsync. Ticks are not logged — they are
// derivable (recovery re-establishes the watermark from every shard's
// recovered position). Callers hold m.mu.
func (m *Monitor) logOpsLocked(ops []writeOp) error {
	logged := false
	for i := range ops {
		if ops[i].tick {
			continue
		}
		if err := m.wal.AppendElement(ops[i].seq, ops[i].el.Point, ops[i].el.Prob, ops[i].el.TS); err != nil {
			return m.walFail(err)
		}
		logged = true
	}
	if !logged {
		return nil
	}
	if err := m.wal.Commit(); err != nil {
		return m.walFail(err)
	}
	return nil
}

// walFail latches a durability failure. With the new health state machine
// the WAL only returns an error once it is detached (FailStop, or Retry with
// its budget exhausted) — Retry successes and Shed degradations are absorbed
// below it — so an error here is final and latching it lets Push fail fast
// without taking the lock.
func (m *Monitor) walFail(err error) error {
	werr := fmt.Errorf("pskyline: durability: %w", err)
	m.walErr.CompareAndSwap(nil, &werr)
	return werr
}

// maybeCheckpointLocked counts ingested elements toward the automatic
// checkpoint cadence. Checkpoint failures are counted and retried after
// another CheckpointEvery elements — the monitor keeps serving; only
// recovery cost grows. While the WAL is degraded the reattacher owns
// checkpointing (a checkpoint without a reattach would be wasted work).
// Callers hold m.mu.
func (m *Monitor) maybeCheckpointLocked(n int) {
	if m.wal == nil || m.dur.CheckpointEvery <= 0 {
		return
	}
	m.ckptSince += n
	if m.ckptSince < m.dur.CheckpointEvery {
		return
	}
	if m.wal.State() == wal.StateDegraded {
		return
	}
	if err := m.checkpointLocked(); err != nil {
		m.met.ckptFails.Inc()
		m.ckptSince = 0 // retry after another full interval, not every push
	}
}

// installCheckpointLocked writes a checkpoint at the current stream position
// and restarts the checkpoint cadence, returning the position. Callers hold
// m.mu.
func (m *Monitor) installCheckpointLocked() (uint64, error) {
	seq := m.eng.NextSeq()
	if _, err := wal.WriteCheckpoint(m.fsys, m.dur.Dir, seq, m.snapshotLocked); err != nil {
		return 0, err
	}
	m.ckptSince = 0
	m.met.ckpts.Inc()
	m.met.ckptSeqA.Store(seq)
	return seq, nil
}

// checkpointLocked installs a checkpoint at the current stream position,
// then garbage-collects: log segments strictly behind both the checkpoint
// and the window horizon, and checkpoints older than the new one. Callers
// hold m.mu.
func (m *Monitor) checkpointLocked() error {
	seq, err := m.installCheckpointLocked()
	if err != nil {
		return err
	}
	keep := seq
	if h := m.horizonLocked(); h < keep {
		keep = h
	}
	if _, err := m.wal.GC(keep); err != nil {
		return err
	}
	if _, err := wal.RemoveCheckpointsBefore(m.fsys, m.dur.Dir, seq); err != nil {
		return err
	}
	return nil
}

// horizonLocked returns the sequence of the oldest element still inside the
// sliding window. The engine tracks it exactly — next−fill arithmetic would
// overestimate it for shard members, whose in-window sequences are sparse,
// and GC past the true horizon would lose replayable records. Callers hold
// m.mu.
func (m *Monitor) horizonLocked() uint64 {
	return m.eng.HorizonSeq()
}
