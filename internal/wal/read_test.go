package wal

import (
	"errors"
	"math/rand"
	"testing"
	"time"
)

// openRead opens a WAL with FsyncNever (reads only need the page cache) and
// a small rotation threshold so multi-segment shapes are cheap to produce.
func openRead(t *testing.T, dir string, segBytes int64) *WAL {
	t.Helper()
	w, _, err := Open(dir, Options{Fsync: FsyncNever, SegmentBytes: segBytes})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return w
}

// collect drains a tail reader until it reports caught-up, returning the
// decoded sequences in delivery order.
func collect(t *testing.T, tr *TailReader, maxBytes int) []uint64 {
	t.Helper()
	var seqs []uint64
	for {
		out, _, _, err := tr.Next(nil, maxBytes)
		if err != nil {
			t.Fatalf("tail next: %v", err)
		}
		if len(out) == 0 {
			return seqs
		}
		if err := DecodeRecords(out, func(r Record) error {
			seqs = append(seqs, r.Seq)
			return nil
		}); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
}

func TestTailReaderFollowsCommits(t *testing.T) {
	w := openRead(t, t.TempDir(), 1<<20)
	defer w.Close()
	tr := w.NewTailReader(0)
	defer tr.Close()

	if got := collect(t, tr, 1<<20); len(got) != 0 {
		t.Fatalf("fresh log delivered %v", got)
	}

	rng := rand.New(rand.NewSource(1))
	for seq := uint64(0); seq < 20; seq++ {
		pt, p, ts := testElem(rng, 3)
		if err := w.AppendElement(seq, pt, p, ts); err != nil {
			t.Fatal(err)
		}
		// Appended but uncommitted records must be invisible.
		if got := collect(t, tr, 1<<20); len(got) != 0 {
			t.Fatalf("pending record %d visible: %v", seq, got)
		}
		if wm := w.CommittedSeq(); wm != seq {
			t.Fatalf("watermark %d with record %d pending", wm, seq)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		if wm := w.CommittedSeq(); wm != seq+1 {
			t.Fatalf("watermark %d after committing %d", wm, seq)
		}
		got := collect(t, tr, 1<<20)
		if len(got) != 1 || got[0] != seq {
			t.Fatalf("after committing %d delivered %v", seq, got)
		}
	}
}

func TestTailReaderContentMatchesLog(t *testing.T) {
	w := openRead(t, t.TempDir(), 1<<20)
	defer w.Close()
	rng := rand.New(rand.NewSource(2))
	type el struct {
		pt []float64
		p  float64
		ts int64
	}
	var want []el
	for seq := uint64(0); seq < 50; seq++ {
		pt, p, ts := testElem(rng, 2)
		want = append(want, el{append([]float64(nil), pt...), p, ts})
		if err := w.AppendElement(seq, pt, p, ts); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	tr := w.NewTailReader(0)
	defer tr.Close()
	out, first, last, err := tr.Next(nil, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if first != 0 || last != 49 {
		t.Fatalf("delivered range [%d, %d], want [0, 49]", first, last)
	}
	i := 0
	if err := DecodeRecords(out, func(r Record) error {
		e := want[i]
		if r.Seq != uint64(i) || r.Prob != e.p || r.TS != e.ts {
			t.Fatalf("record %d: got seq=%d p=%v ts=%d", i, r.Seq, r.Prob, r.TS)
		}
		for d, v := range e.pt {
			if r.Point[d] != v {
				t.Fatalf("record %d dim %d: got %v want %v", i, d, r.Point[d], v)
			}
		}
		i++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if i != 50 {
		t.Fatalf("decoded %d records, want 50", i)
	}
}

func TestTailReaderAcrossRotations(t *testing.T) {
	w := openRead(t, t.TempDir(), 256) // tiny segments: rotate every few records
	defer w.Close()
	appendN(t, w, 0, 200, 2, 5, 3)
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if w.SegmentCount() < 3 {
		t.Fatalf("expected multiple segments, got %d", w.SegmentCount())
	}

	tr := w.NewTailReader(0)
	defer tr.Close()
	got := collect(t, tr, 1<<20)
	if len(got) != 200 {
		t.Fatalf("delivered %d records, want 200", len(got))
	}
	for i, s := range got {
		if s != uint64(i) {
			t.Fatalf("record %d has seq %d", i, s)
		}
	}

	// Small maxBytes must still make progress and deliver everything once.
	tr2 := w.NewTailReader(0)
	defer tr2.Close()
	got2 := collect(t, tr2, 100)
	if len(got2) != 200 {
		t.Fatalf("small-budget reader delivered %d records, want 200", len(got2))
	}
}

func TestTailReaderFromMidLog(t *testing.T) {
	w := openRead(t, t.TempDir(), 512)
	defer w.Close()
	appendN(t, w, 0, 120, 2, 7, 4)
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	tr := w.NewTailReader(77)
	defer tr.Close()
	got := collect(t, tr, 1<<20)
	if len(got) != 43 || got[0] != 77 || got[len(got)-1] != 119 {
		t.Fatalf("mid-log read: %d records, first %d, last %d", len(got), got[0], got[len(got)-1])
	}
}

func TestTailReaderGone(t *testing.T) {
	w := openRead(t, t.TempDir(), 256)
	defer w.Close()
	appendN(t, w, 0, 100, 2, 5, 5)
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.GC(60); err != nil {
		t.Fatal(err)
	}
	oldest, ok := w.OldestSeq()
	if !ok || oldest == 0 {
		t.Fatalf("OldestSeq = %d, %v after GC", oldest, ok)
	}

	tr := w.NewTailReader(0)
	defer tr.Close()
	if _, _, _, err := tr.Next(nil, 1<<20); !errors.Is(err, ErrGone) {
		t.Fatalf("collected position: err = %v, want ErrGone", err)
	}
	// The error is sticky.
	if _, _, _, err := tr.Next(nil, 1<<20); !errors.Is(err, ErrGone) {
		t.Fatalf("sticky: err = %v, want ErrGone", err)
	}

	tr2 := w.NewTailReader(oldest)
	defer tr2.Close()
	got := collect(t, tr2, 1<<20)
	if len(got) == 0 || got[0] != oldest || got[len(got)-1] != 99 {
		t.Fatalf("read from oldest retained: got %d records, first %v", len(got), got)
	}
}

func TestTailReaderSurvivesConcurrentAppends(t *testing.T) {
	w := openRead(t, t.TempDir(), 1<<12)
	defer w.Close()
	const n = 500
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(6))
		for seq := uint64(0); seq < n; seq++ {
			pt, p, ts := testElem(rng, 2)
			if err := w.AppendElement(seq, pt, p, ts); err != nil {
				t.Errorf("append: %v", err)
				return
			}
			if err := w.Commit(); err != nil {
				t.Errorf("commit: %v", err)
				return
			}
		}
	}()
	tr := w.NewTailReader(0)
	defer tr.Close()
	var got []uint64
	deadline := time.Now().Add(10 * time.Second)
	for len(got) < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out with %d/%d records", len(got), n)
		}
		out, _, _, err := tr.Next(nil, 4096)
		if err != nil {
			t.Fatalf("next: %v", err)
		}
		if len(out) == 0 {
			time.Sleep(time.Millisecond)
			continue
		}
		if err := DecodeRecords(out, func(r Record) error {
			got = append(got, r.Seq)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	for i, s := range got {
		if s != uint64(i) {
			t.Fatalf("record %d has seq %d", i, s)
		}
	}
}

func TestTailReaderClosedWAL(t *testing.T) {
	w := openRead(t, t.TempDir(), 1<<20)
	appendN(t, w, 0, 10, 2, 5, 7)
	tr := w.NewTailReader(0)
	defer tr.Close()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := tr.Next(nil, 1<<20); !errors.Is(err, ErrClosed) {
		t.Fatalf("next on closed WAL: %v, want ErrClosed", err)
	}
}

func TestDecodeRecordsRejectsDamage(t *testing.T) {
	var buf []byte
	buf = appendRecord(buf, 0, []float64{1, 2}, 0.5, 9)
	buf = appendRecord(buf, 1, []float64{3, 4}, 0.6, 10)

	nop := func(Record) error { return nil }
	if err := DecodeRecords(buf, nop); err != nil {
		t.Fatalf("valid records rejected: %v", err)
	}
	if err := DecodeRecords(buf[:len(buf)-3], nop); err == nil {
		t.Fatal("truncated record accepted")
	}
	flip := append([]byte(nil), buf...)
	flip[recHdrLen+12] ^= 0x40
	if err := DecodeRecords(flip, nop); err == nil {
		t.Fatal("bit flip accepted")
	}
	if err := DecodeRecords(buf[:5], nop); err == nil {
		t.Fatal("trailing header fragment accepted")
	}
}
