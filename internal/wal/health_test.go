package wal

import (
	"errors"
	"math/rand"
	"strings"
	"syscall"
	"testing"
	"time"

	"pskyline/internal/vfs"
)

// openFault opens a WAL on a fault-injecting filesystem with a fast retry
// schedule so policy tests run in microseconds.
func openFault(t *testing.T, dir string, fi *vfs.Fault, pol Policy) *WAL {
	t.Helper()
	w, _, err := Open(dir, Options{
		Fsync:         FsyncAlways,
		FS:            fi,
		Policy:        pol,
		RetryMax:      3,
		RetryBase:     time.Microsecond,
		RetryMaxDelay: 10 * time.Microsecond,
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Policy
	}{
		{"", FailStop}, {"failstop", FailStop}, {" FailStop ", FailStop},
		{"retry", Retry}, {"RETRY", Retry},
		{"shed", Shed},
	} {
		got, err := ParsePolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if got.String() == "" {
			t.Errorf("Policy(%v).String() empty", got)
		}
	}
	if _, err := ParsePolicy("explode"); err == nil {
		t.Fatal("ParsePolicy accepted garbage")
	}
}

func TestStateStrings(t *testing.T) {
	for s, want := range map[State]string{
		StateHealthy: "healthy", StateRetrying: "retrying",
		StateDegraded: "degraded", StateDetached: "detached",
	} {
		if s.String() != want {
			t.Errorf("State(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestBackoffDelayBounds(t *testing.T) {
	w := &WAL{
		opt: Options{RetryBase: 10 * time.Millisecond, RetryMaxDelay: 80 * time.Millisecond},
		rng: rand.New(rand.NewSource(7)),
	}
	for attempt := 1; attempt <= 20; attempt++ {
		d := w.backoffDelay(attempt)
		full := w.opt.RetryBase << uint(attempt-1)
		if full <= 0 || full > w.opt.RetryMaxDelay {
			full = w.opt.RetryMaxDelay
		}
		if d < full/2 || d > full {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, full/2, full)
		}
	}
}

func TestFailStopDetaches(t *testing.T) {
	dir := t.TempDir()
	fi := vfs.NewFault(vfs.OS{}, 1)
	w := openFault(t, dir, fi, FailStop)
	appendN(t, w, 0, 10, 3, 5, 1)

	fi.Inject(vfs.Rule{Op: vfs.OpWrite, Times: -1, Effect: vfs.Effect{Err: syscall.EIO}})
	if err := w.AppendElement(10, []float64{1, 2, 3}, 0.5, 10); err != nil {
		t.Fatalf("append into pending should not fail: %v", err)
	}
	err := w.Commit()
	if !errors.Is(err, ErrDetached) {
		t.Fatalf("commit error %v, want ErrDetached", err)
	}
	if w.State() != StateDetached {
		t.Fatalf("state %v, want detached", w.State())
	}
	if w.LastFault() == nil {
		t.Fatal("LastFault nil after detach")
	}
	// Sticky: later operations fail fast with the same error.
	if err2 := w.AppendElement(11, []float64{1, 2, 3}, 0.5, 11); !errors.Is(err2, ErrDetached) {
		t.Fatalf("append after detach: %v", err2)
	}
	if fi.Errors(vfs.OpWrite) != 1 {
		t.Fatalf("FailStop retried the write: %d injected errors", fi.Errors(vfs.OpWrite))
	}

	// The committed prefix is intact: a reopen on the healed disk replays
	// exactly the 10 records committed before the fault.
	w.Close()
	fi.Clear()
	w2, res, err := Open(dir, Options{FS: fi})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	if res.Records != 10 || res.NextSeq != 10 {
		t.Fatalf("reopen found %d records next %d, want 10/10", res.Records, res.NextSeq)
	}
	if res.CorruptSegments != 0 {
		t.Fatalf("reopen found corruption: %+v", res)
	}
}

func TestRetryRecoversTransient(t *testing.T) {
	dir := t.TempDir()
	fi := vfs.NewFault(vfs.OS{}, 1)
	w := openFault(t, dir, fi, Retry)
	appendN(t, w, 0, 5, 2, 5, 1)

	// One whole write fails, then the disk heals: the caller must observe
	// nothing.
	fi.Inject(vfs.Rule{Op: vfs.OpWrite, Times: 1, Effect: vfs.Effect{Err: syscall.EIO}})
	seq := appendN(t, w, 5, 5, 2, 5, 2)
	if seq != 10 {
		t.Fatalf("seq %d, want 10", seq)
	}
	if w.State() != StateHealthy {
		t.Fatalf("state %v, want healthy", w.State())
	}
	if got := w.met.Retries.Load(); got == 0 {
		t.Fatal("no retries recorded")
	}
	if recs := replayAll(t, w, 0); len(recs) != 10 {
		t.Fatalf("replayed %d records, want 10", len(recs))
	}
}

func TestRetryRepairsTornWrite(t *testing.T) {
	dir := t.TempDir()
	fi := vfs.NewFault(vfs.OS{}, 1)
	w := openFault(t, dir, fi, Retry)
	appendN(t, w, 0, 5, 2, 5, 1)

	// The next write tears at byte 7 — a partial record lands on disk past
	// the committed prefix. Repair must truncate it before the retry, or the
	// segment would hold the record twice (once torn, once whole).
	fi.Inject(vfs.Rule{Op: vfs.OpWrite, Times: 1, Partial: 7, Effect: vfs.Effect{Err: syscall.EIO}})
	appendN(t, w, 5, 5, 2, 5, 2)
	if w.State() != StateHealthy {
		t.Fatalf("state %v, want healthy", w.State())
	}
	if fi.Count(vfs.OpTruncate) == 0 {
		t.Fatal("repair never truncated the torn tail")
	}

	w.Close()
	w2, res, err := Open(dir, Options{FS: fi})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	if res.Records != 10 || res.TornSegments != 0 || res.CorruptSegments != 0 {
		t.Fatalf("reopen after torn-write repair: %+v", res)
	}
}

func TestRetryFsyncFailure(t *testing.T) {
	dir := t.TempDir()
	fi := vfs.NewFault(vfs.OS{}, 1)
	w := openFault(t, dir, fi, Retry)

	fi.Inject(vfs.Rule{Op: vfs.OpSync, Times: 2, Effect: vfs.Effect{Err: syscall.EIO}})
	appendN(t, w, 0, 5, 2, 5, 1)
	if w.State() != StateHealthy {
		t.Fatalf("state %v, want healthy", w.State())
	}
	if recs := replayAll(t, w, 0); len(recs) != 5 {
		t.Fatalf("replayed %d records, want 5", len(recs))
	}
}

func TestRetryExhaustionDetaches(t *testing.T) {
	dir := t.TempDir()
	fi := vfs.NewFault(vfs.OS{}, 1)
	w := openFault(t, dir, fi, Retry)
	appendN(t, w, 0, 5, 2, 5, 1)

	fi.Inject(vfs.Rule{Op: vfs.OpWrite, Times: -1, Effect: vfs.Effect{Err: syscall.ENOSPC}})
	if err := w.AppendElement(5, []float64{1, 2}, 0.5, 5); err != nil {
		t.Fatalf("append: %v", err)
	}
	err := w.Commit()
	if !errors.Is(err, ErrDetached) {
		t.Fatalf("commit error %v, want ErrDetached", err)
	}
	if !strings.Contains(err.Error(), "no space") && !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("detach error lost the cause: %v", err)
	}
	if got := int(w.met.Retries.Load()); got != 3 {
		t.Fatalf("retries %d, want RetryMax=3", got)
	}
	if w.State() != StateDetached {
		t.Fatalf("state %v, want detached", w.State())
	}
}

func TestShedDegradesAndReattaches(t *testing.T) {
	dir := t.TempDir()
	fi := vfs.NewFault(vfs.OS{}, 1)
	var transitions []State
	w, _, err := Open(dir, Options{
		Fsync:         FsyncAlways,
		FS:            fi,
		Policy:        Shed,
		OnStateChange: func(s State) { transitions = append(transitions, s) },
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer w.Close()
	appendN(t, w, 0, 10, 2, 5, 1)

	// Disk dies for good (as far as Shed is concerned: one failure sheds).
	fi.Inject(vfs.Rule{Op: vfs.OpWrite, Times: -1, Effect: vfs.Effect{Err: syscall.EIO}})
	if err := w.AppendElement(10, []float64{1, 2}, 0.5, 10); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := w.Commit(); err != nil {
		t.Fatalf("shed commit must absorb the failure: %v", err)
	}
	if w.State() != StateDegraded {
		t.Fatalf("state %v, want degraded", w.State())
	}
	// Degraded appends are counted no-ops; commits stay nil.
	for seq := uint64(11); seq < 20; seq++ {
		if err := w.AppendElement(seq, []float64{1, 2}, 0.5, int64(seq)); err != nil {
			t.Fatalf("degraded append: %v", err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatalf("degraded commit: %v", err)
	}
	if got := w.met.DroppedRecords.Load(); got != 10 {
		t.Fatalf("dropped records %d, want 10 (1 pending + 9 degraded)", got)
	}
	if w.met.DroppedBytes.Load() == 0 {
		t.Fatal("dropped bytes not counted")
	}

	// Disk heals; the owner installs a checkpoint at seq 20 and reattaches.
	fi.Clear()
	if err := w.Reattach(20); err != nil {
		t.Fatalf("reattach: %v", err)
	}
	if w.State() != StateHealthy {
		t.Fatalf("state %v, want healthy", w.State())
	}
	if n := w.SegmentCount(); n != 0 {
		t.Fatalf("stale segments survived reattach: %d", n)
	}
	appendN(t, w, 20, 5, 2, 5, 3)
	if recs := replayAll(t, w, 0); len(recs) != 5 || recs[0].Seq != 20 {
		t.Fatalf("post-reattach replay: %d records, first %d; want 5 from 20", len(recs), recs[0].Seq)
	}
	want := []State{StateDegraded, StateHealthy}
	if len(transitions) != len(want) {
		t.Fatalf("transitions %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transitions %v, want %v", transitions, want)
		}
	}
}

func TestReattachFailureStaysDegraded(t *testing.T) {
	dir := t.TempDir()
	fi := vfs.NewFault(vfs.OS{}, 1)
	w := openFault(t, dir, fi, Shed)
	appendN(t, w, 0, 5, 2, 5, 1)

	fi.Inject(vfs.Rule{Op: vfs.OpWrite, Times: 1, Effect: vfs.Effect{Err: syscall.EIO}})
	w.AppendElement(5, []float64{1, 2}, 0.5, 5)
	if err := w.Commit(); err != nil || w.State() != StateDegraded {
		t.Fatalf("commit %v state %v, want nil/degraded", err, w.State())
	}

	// The stale segment cannot be removed yet: Reattach must fail, stay
	// degraded, and succeed when called again after the disk heals.
	fi.Inject(vfs.Rule{Op: vfs.OpRemove, Times: 1, Effect: vfs.Effect{Err: syscall.EIO}})
	if err := w.Reattach(6); err == nil {
		t.Fatal("reattach succeeded despite remove failure")
	}
	if w.State() != StateDegraded {
		t.Fatalf("state %v, want degraded after failed reattach", w.State())
	}
	if err := w.Reattach(6); err != nil {
		t.Fatalf("second reattach: %v", err)
	}
	if w.State() != StateHealthy {
		t.Fatalf("state %v, want healthy", w.State())
	}
}

func TestRetrySegmentCreationFailure(t *testing.T) {
	dir := t.TempDir()
	fi := vfs.NewFault(vfs.OS{}, 1)
	w := openFault(t, dir, fi, Retry)

	// The very first segment creation fails twice; the retry loop must
	// recreate it (tolerating the debris path) and commit cleanly.
	fi.Inject(vfs.Rule{Op: vfs.OpCreate, Times: 2, Effect: vfs.Effect{Err: syscall.EIO}})
	appendN(t, w, 0, 5, 2, 5, 1)
	if w.State() != StateHealthy {
		t.Fatalf("state %v, want healthy", w.State())
	}
	if recs := replayAll(t, w, 0); len(recs) != 5 {
		t.Fatalf("replayed %d records, want 5", len(recs))
	}
}
