package pskyline

import "pskyline/internal/vfs"

// Crash simulates a process kill for tests: the async queue (if any) is
// drained and stopped so the cut point is deterministic, then the WAL is
// closed WITHOUT flushing — only records already handed to the OS by Commit
// survive, which is exactly what kill -9 leaves behind. The monitor must not
// be used afterwards; reopen the directory with Open to exercise recovery.
// Torn writes from power failures are simulated on top of this by truncating
// or corrupting the segment files directly.
func (m *Monitor) Crash() {
	if m.aq != nil {
		m.aq.stop()
	}
	m.stopReattacher()
	if m.wal != nil {
		m.wal.Abort()
	}
}

// Crash simulates a process kill of a sharded monitor: every shard's queue
// is stopped and its WAL abandoned unflushed, as one kill -9 would do to all
// of them at once.
func (s *ShardedMonitor) Crash() {
	for _, sh := range s.shards {
		sh.Crash()
	}
}

// WithFS returns a copy of opt whose durability layer runs on fsys instead of
// the real filesystem — the hook chaos tests use to inject faults without
// going through the Options.Durability.InjectFaults string.
func WithFS(opt Options, fsys vfs.FS) Options {
	opt.Durability.fs = fsys
	return opt
}

// MergeViews exposes the cross-shard candidate merge to the differential
// suite: the sharded parts and the single-engine oracle's view run through
// the same merge, so their encodings can be compared byte for byte.
func MergeViews(parts []*View) *View { return mergeCandidateViews(parts) }
