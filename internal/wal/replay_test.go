package wal

import (
	"errors"
	"testing"
)

// TestReplayCallbackError checks a failing callback stops the replay and
// surfaces the error with the count delivered so far.
func TestReplayCallbackError(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(dir, Options{SegmentBytes: 2048, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendN(t, w, 1, 1000, 2, 16, 5)
	boom := errors.New("boom")
	seen := 0
	var prog ReplayProgress
	n, err := w.Replay(0, &prog, func(r Record) error {
		seen++
		if seen == 137 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want callback error, got %v", err)
	}
	if n != 137 || prog.RecordsReplayed() != 137 {
		t.Fatalf("delivered %d records (progress %d) before the error, want 137", n, prog.RecordsReplayed())
	}
	if prog.SegmentsDecoded() >= prog.SegmentsTotal() {
		t.Fatalf("progress: %d of %d segments decoded after an early stop", prog.SegmentsDecoded(), prog.SegmentsTotal())
	}
}

// TestReplayEmptyAndPastEnd covers the degenerate shapes: an empty log, and
// a replay start past the end, both deliver nothing; a full replay's progress
// totals match what it delivered.
func TestReplayEmptyAndPastEnd(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(dir, Options{SegmentBytes: 2048, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	nop := func(r Record) error { return nil }
	var prog ReplayProgress
	n, err := w.Replay(0, &prog, nop)
	if err != nil || n != 0 {
		t.Fatalf("empty log: n=%d err=%v", n, err)
	}
	if prog.SegmentsTotal() != 0 || prog.RecordsReplayed() != 0 {
		t.Fatalf("empty log reported %d segments, %d records", prog.SegmentsTotal(), prog.RecordsReplayed())
	}
	appendN(t, w, 1, 300, 2, 4, 3)
	n, err = w.Replay(1000, nil, nop)
	if err != nil || n != 0 {
		t.Fatalf("past-end replay: n=%d err=%v", n, err)
	}
	var full ReplayProgress
	n, err = w.Replay(0, &full, nop)
	if err != nil || n != 300 {
		t.Fatalf("full replay: n=%d err=%v", n, err)
	}
	if full.SegmentsTotal() != uint64(w.SegmentCount()) || full.SegmentsDecoded() != full.SegmentsTotal() || full.RecordsReplayed() != n {
		t.Fatalf("progress: %d of %d segments decoded, %d records counted, %d delivered, %d segments",
			full.SegmentsDecoded(), full.SegmentsTotal(), full.RecordsReplayed(), n, w.SegmentCount())
	}
}
