package wal

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"pskyline/internal/vfs"
)

// testElem is the test stream: deterministic pseudo-random elements.
func testElem(rng *rand.Rand, dims int) ([]float64, float64, int64) {
	pt := make([]float64, dims)
	for i := range pt {
		pt[i] = rng.Float64() * 100
	}
	return pt, 0.1 + 0.9*rng.Float64(), rng.Int63n(1 << 40)
}

// appendN appends n elements starting at seq, committing every commitEvery.
func appendN(t *testing.T, w *WAL, seq uint64, n, dims, commitEvery int, rngSeed int64) uint64 {
	t.Helper()
	rng := rand.New(rand.NewSource(rngSeed))
	for i := 0; i < n; i++ {
		pt, p, ts := testElem(rng, dims)
		if err := w.AppendElement(seq, pt, p, ts); err != nil {
			t.Fatalf("append %d: %v", seq, err)
		}
		seq++
		if (i+1)%commitEvery == 0 {
			if err := w.Commit(); err != nil {
				t.Fatalf("commit: %v", err)
			}
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	return seq
}

// replayAll collects every record with seq >= from.
func replayAll(t *testing.T, w *WAL, from uint64) []Record {
	t.Helper()
	var out []Record
	if _, err := w.Replay(from, nil, func(r Record) error {
		r.Point = append([]float64(nil), r.Point...)
		out = append(out, r)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func TestRecordRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var buf []byte
	for i := 0; i < 100; i++ {
		dims := 1 + rng.Intn(8)
		pt, p, ts := testElem(rng, dims)
		buf = appendRecord(buf[:0], uint64(i), pt, p, ts)
		if len(buf) != recordLen(dims) {
			t.Fatalf("record length %d, want %d", len(buf), recordLen(dims))
		}
		var scratch []float64
		rec, size, end := parseFrame(buf, &scratch)
		if end != endClean || size != len(buf) {
			t.Fatalf("parse: %v, size %d of %d", end, size, len(buf))
		}
		if rec.Seq != uint64(i) || rec.Prob != p || rec.TS != ts {
			t.Fatalf("round trip mismatch: %+v", rec)
		}
		for d := range pt {
			if rec.Point[d] != pt[d] {
				t.Fatalf("coordinate %d mismatch", d)
			}
		}
	}
}

func TestOpenAppendReplay(t *testing.T) {
	dir := t.TempDir()
	w, res, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if res.HasRecords {
		t.Fatal("fresh dir reports records")
	}
	end := appendN(t, w, 0, 500, 3, 16, 42)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, res2, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if !res2.HasRecords || res2.NextSeq != end || res2.Records != 500 {
		t.Fatalf("reopen scan = %+v, want 500 records next %d", res2, end)
	}
	recs := replayAll(t, w2, 0)
	if len(recs) != 500 {
		t.Fatalf("replayed %d records, want 500", len(recs))
	}
	// Replay must produce exactly the appended values, in order.
	rng := rand.New(rand.NewSource(42))
	for i, rec := range recs {
		pt, p, ts := testElem(rng, 3)
		if rec.Seq != uint64(i) || rec.Prob != p || rec.TS != ts {
			t.Fatalf("record %d = %+v, want p=%v ts=%v", i, rec, p, ts)
		}
		for d := range pt {
			if rec.Point[d] != pt[d] {
				t.Fatalf("record %d coordinate %d mismatch", i, d)
			}
		}
	}
	// Partial replay skips the checkpointed prefix.
	if got := replayAll(t, w2, 123); len(got) != 500-123 || got[0].Seq != 123 {
		t.Fatalf("partial replay from 123: %d records, first %d", len(got), got[0].Seq)
	}
}

func TestSegmentRotationAndGC(t *testing.T) {
	dir := t.TempDir()
	// ~69 bytes per d=3 record: a 1 KiB segment holds ~14 records.
	w, _, err := Open(dir, Options{Fsync: FsyncNever, SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	end := appendN(t, w, 0, 300, 3, 8, 7)
	if n := w.SegmentCount(); n < 10 {
		t.Fatalf("expected many segments, got %d", n)
	}
	if got := replayAll(t, w, 0); len(got) != 300 {
		t.Fatalf("replay across segments: %d records", len(got))
	}

	// GC below seq 150: only whole segments strictly below it go.
	removed, err := w.GC(150)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("GC removed nothing")
	}
	recs := replayAll(t, w, 150)
	if len(recs) != 150 || recs[0].Seq != 150 {
		t.Fatalf("post-GC replay from 150: %d records, first %v", len(recs), recs[0].Seq)
	}
	// Records >= 150 all survived; the kept prefix may reach a bit below.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen after GC: scan tolerates the missing prefix.
	w2, res, err := Open(dir, Options{Fsync: FsyncNever, SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if res.NextSeq != end {
		t.Fatalf("post-GC reopen next seq %d, want %d", res.NextSeq, end)
	}
	if got := replayAll(t, w2, 150); len(got) != 150 {
		t.Fatalf("post-GC reopen replay: %d records", len(got))
	}
}

// lastSegment returns the path of the newest segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := listSegments(vfs.OS{}, dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s: %v", dir, err)
	}
	return segs[len(segs)-1].path
}

// TestTornTailTruncation cuts the final segment at every kind of offset —
// record boundaries, mid-header, mid-payload — and asserts Open recovers
// exactly the longest clean record prefix and the log accepts appends again.
func TestTornTailTruncation(t *testing.T) {
	const n, dims = 60, 3
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		dir := t.TempDir()
		w, _, err := Open(dir, Options{Fsync: FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, w, 0, n, dims, 4, 1000+int64(trial))
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		seg := lastSegment(t, dir)
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		// Cut at a random byte offset within the record area (or exactly a
		// record boundary on even trials).
		recLen := int64(recordLen(dims))
		var cut int64
		if trial%2 == 0 {
			k := rng.Int63n(int64(n) + 1)
			cut = segHdrLen + k*recLen
		} else {
			cut = segHdrLen + rng.Int63n(fi.Size()-segHdrLen+1)
		}
		if err := os.Truncate(seg, cut); err != nil {
			t.Fatal(err)
		}
		wantRecords := int((cut - segHdrLen) / recLen) // complete records before the cut

		w2, res, err := Open(dir, Options{Fsync: FsyncNever})
		if err != nil {
			t.Fatalf("trial %d: open after cut at %d: %v", trial, cut, err)
		}
		recs := replayAll(t, w2, 0)
		if len(recs) != wantRecords {
			t.Fatalf("trial %d: cut %d → %d records, want %d", trial, cut, len(recs), wantRecords)
		}
		if res.HasRecords != (wantRecords > 0) || int(res.Records) != wantRecords {
			t.Fatalf("trial %d: scan %+v, want %d records", trial, res, wantRecords)
		}
		// The log must keep working: append from where the tail now ends.
		w2.AlignTo(res.NextSeq)
		end := appendN(t, w2, res.NextSeq, 10, dims, 4, 2000+int64(trial))
		if got := replayAll(t, w2, 0); len(got) != wantRecords+10 || (len(got) > 0 && got[len(got)-1].Seq != end-1) {
			t.Fatalf("trial %d: post-recovery append broken: %d records", trial, len(got))
		}
		w2.Close()
	}
}

// TestMidLogCorruption flips bytes inside an earlier record: recovery must
// keep the prefix before the corruption and drop everything after, including
// later segments.
func TestMidLogCorruption(t *testing.T) {
	const dims = 2
	dir := t.TempDir()
	w, _, err := Open(dir, Options{Fsync: FsyncNever, SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 200, dims, 8, 5)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(vfs.OS{}, dir)
	if err != nil || len(segs) < 4 {
		t.Fatalf("want >= 4 segments, got %d (%v)", len(segs), err)
	}
	// Corrupt a byte in the middle of the second segment's record area.
	victim := segs[1]
	raw, err := os.ReadFile(victim.path)
	if err != nil {
		t.Fatal(err)
	}
	pos := segHdrLen + (len(raw)-segHdrLen)/2
	raw[pos] ^= 0xFF
	if err := os.WriteFile(victim.path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, res, err := Open(dir, Options{Fsync: FsyncNever, SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if res.SegmentsDropped == 0 {
		t.Fatalf("corruption in segment 2 of %d should drop later segments: %+v", len(segs), res)
	}
	recs := replayAll(t, w2, 0)
	// Everything before the corrupt record survives; it is a strict prefix.
	if len(recs) == 0 || len(recs) >= 200 {
		t.Fatalf("replay after corruption: %d records", len(recs))
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i) {
			t.Fatalf("record %d has seq %d: prefix broken", i, rec.Seq)
		}
	}
	if res.TruncatedBytes == 0 {
		t.Fatalf("scan should report truncated bytes: %+v", res)
	}
}

// dirFiles reads every file in dir, keyed by name.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(ents))
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = b
	}
	return files
}

// TestOpenRefusesOutOfOrder opens a sparse log (a shard member's shape) as a
// dense one. Its records are intact, so the first sequence gap is not a
// crash artifact: Open must refuse with an error naming the segment and both
// sequences, and leave every file as it was, where truncating there would
// destroy the log. A segment renamed away from its first record is refused
// the same way. Opened as sparse, the log is whole.
func TestOpenRefusesOutOfOrder(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Fsync: FsyncNever, SegmentBytes: 1 << 10, SparseSeq: true}
	w, _, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for seq := uint64(0); seq < 120; seq += 1 + uint64(rng.Intn(3)) {
		pt, p, ts := testElem(rng, 2)
		if err := w.AppendElement(seq, pt, p, ts); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := WriteCheckpoint(vfs.OS{}, dir, 60, func(io.Writer) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ckpt-00000000000000000099.ckpt.tmp"), []byte("debris"), 0o644); err != nil {
		t.Fatal(err)
	}
	want := dirFiles(t, dir)
	if _, _, err := Open(dir, Options{Fsync: FsyncNever}); err == nil || !strings.Contains(err.Error(), segmentName(0)) || !strings.Contains(err.Error(), "follows record") {
		t.Fatalf("sparse log opened as dense: err = %v, want a refusal naming %s", err, segmentName(0))
	}
	if got := dirFiles(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatal("a refused Open changed the directory")
	}

	segs, err := listSegments(vfs.OS{}, dir)
	if err != nil || len(segs) < 2 {
		t.Fatalf("want >= 2 segments, got %d (%v)", len(segs), err)
	}
	moved := filepath.Join(dir, segmentName(segs[1].firstSeq-1))
	if err := os.Rename(segs[1].path, moved); err != nil {
		t.Fatal(err)
	}
	want = dirFiles(t, dir)
	if _, _, err := Open(dir, opt); err == nil || !strings.Contains(err.Error(), "its name says") {
		t.Fatalf("misnamed segment: err = %v, want a refusal", err)
	}
	if got := dirFiles(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatal("a refused Open changed the directory")
	}
	if err := os.Rename(moved, segs[1].path); err != nil {
		t.Fatal(err)
	}

	w2, res, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if res.TruncatedBytes != 0 || res.CorruptSegments != 0 || res.TmpFilesRemoved != 1 {
		t.Fatalf("sparse reopen: %+v", res)
	}
	recs := replayAll(t, w2, 0)
	if uint64(len(recs)) != res.Records || recs[len(recs)-1].Seq != res.NextSeq-1 {
		t.Fatalf("sparse reopen replayed %d records, scan %+v", len(recs), res)
	}
}

// TestAbortKeepsCommitted simulates a crash: Abort drops whatever was
// appended after the last Commit, and Open recovers exactly the committed
// prefix.
func TestAbortKeepsCommitted(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		pt, p, ts := testElem(rng, 3)
		if err := w.AppendElement(uint64(i), pt, p, ts); err != nil {
			t.Fatal(err)
		}
		if i == 11 { // commit the first 12 only
			if err := w.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	w.Abort()
	w2, res, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if res.Records != 12 || res.NextSeq != 12 {
		t.Fatalf("after abort: %+v, want the 12 committed records", res)
	}
}

func TestAlignToRotates(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	end := appendN(t, w, 0, 20, 2, 4, 8)
	// A checkpoint ahead of the tail (records 20..29 lost to a power cut):
	// appends must restart in a fresh, correctly named segment.
	w.AlignTo(end + 10)
	appendN(t, w, end+10, 5, 2, 4, 9)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, res, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if res.NextSeq != end+15 || res.Records != 25 {
		t.Fatalf("scan after gap = %+v, want 25 records ending at %d", res, end+15)
	}
	got := replayAll(t, w2, end+10)
	if len(got) != 5 || got[0].Seq != end+10 {
		t.Fatalf("replay after gap: %d records, first %v", len(got), got[0].Seq)
	}
}

func TestCheckpointInstallAndList(t *testing.T) {
	dir := t.TempDir()
	blob := func(s string) func(io.Writer) error {
		return func(w io.Writer) error { _, err := io.Copy(w, bytes.NewBufferString(s)); return err }
	}
	if _, err := WriteCheckpoint(nil, dir, 100, blob("first")); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteCheckpoint(nil, dir, 250, blob("second")); err != nil {
		t.Fatal(err)
	}
	refs, err := Checkpoints(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 2 || refs[0].Seq != 250 || refs[1].Seq != 100 {
		t.Fatalf("checkpoints = %+v", refs)
	}
	raw, err := os.ReadFile(refs[0].Path)
	if err != nil || string(raw) != "second" {
		t.Fatalf("newest checkpoint payload %q (%v)", raw, err)
	}
	// A failed install leaves nothing behind.
	if _, err := WriteCheckpoint(nil, dir, 300, func(io.Writer) error { return fmt.Errorf("boom") }); err == nil {
		t.Fatal("failing writer did not error")
	}
	if refs, _ = Checkpoints(nil, dir); len(refs) != 2 {
		t.Fatalf("failed install left debris: %+v", refs)
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
	if n, err := RemoveCheckpointsBefore(nil, dir, 250); err != nil || n != 1 {
		t.Fatalf("RemoveCheckpointsBefore = %d, %v", n, err)
	}
	if refs, _ = Checkpoints(nil, dir); len(refs) != 1 || refs[0].Seq != 250 {
		t.Fatalf("after GC: %+v", refs)
	}
}

// TestAppendAllocs pins the durability hot path's allocation budget: once
// the encode buffer has grown to the record size, AppendElement + Commit
// with fsync=never must not allocate — the WAL adds zero amortized
// allocations to steady-state Push.
func TestAppendAllocs(t *testing.T) {
	dir := t.TempDir()
	// A huge segment bound keeps rotation out of the measured window.
	w, _, err := Open(dir, Options{Fsync: FsyncNever, SegmentBytes: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	pt := []float64{1.5, 2.5, 3.5}
	seq := uint64(0)
	if err := w.AppendElement(seq, pt, 0.5, 1); err != nil { // warm the buffer
		t.Fatal(err)
	}
	seq++
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(2000, func() {
		if err := w.AppendElement(seq, pt, 0.5, int64(seq)); err != nil {
			t.Fatal(err)
		}
		seq++
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("AppendElement+Commit averaged %.2f allocs, want 0", avg)
	}
}

func TestMetricsRecorded(t *testing.T) {
	dir := t.TempDir()
	met := new(Metrics)
	w, _, err := Open(dir, Options{Fsync: FsyncAlways, SegmentBytes: 1 << 10, Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 100, 3, 10, 77)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if met.Appends.Load() != 100 {
		t.Errorf("appends = %d", met.Appends.Load())
	}
	if met.Commits.Load() == 0 || met.Fsyncs.Load() == 0 {
		t.Errorf("commits=%d fsyncs=%d", met.Commits.Load(), met.Fsyncs.Load())
	}
	if met.Rotations.Load() == 0 || met.Segments.Load() < 2 {
		t.Errorf("rotations=%d segments=%v", met.Rotations.Load(), met.Segments.Load())
	}
	if met.AppendLatency.Count() != 100 || met.FsyncLatency.Count() == 0 {
		t.Errorf("latency counts: append=%d fsync=%d", met.AppendLatency.Count(), met.FsyncLatency.Count())
	}
}

func TestIntervalFlusher(t *testing.T) {
	dir := t.TempDir()
	met := new(Metrics)
	w, _, err := Open(dir, Options{Fsync: FsyncInterval, FsyncInterval: 5 * time.Millisecond, Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 10, 2, 5, 6)
	deadline := time.Now().Add(2 * time.Second)
	for met.Fsyncs.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if met.Fsyncs.Load() == 0 {
		t.Fatal("interval flusher never fsynced")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Close is idempotent and post-close writes fail cleanly.
	if err := w.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := w.AppendElement(99, []float64{1, 2}, 0.5, 0); err == nil {
		t.Fatal("append after close succeeded")
	}
}
