package core

import (
	"bytes"
	"encoding/gob"
	"testing"

	"pskyline/internal/streamgen"
)

// TestSnapshotRoundTrip checkpoints an engine mid-stream, restores it, and
// drives both the original and the restored engine through the remainder of
// the stream: every observable must agree at every checkpoint.
func TestSnapshotRoundTrip(t *testing.T) {
	opts := Options{Dims: 3, Window: 400, Thresholds: []float64{0.6, 0.3}, MaxEntries: 6}
	orig, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	src := streamgen.New(3, streamgen.Anticorrelated, streamgen.UniformProb{}, 33)
	var prefix []streamgen.Element
	for i := 0; i < 1500; i++ {
		el := src.Next()
		prefix = append(prefix, el)
		if _, err := orig.Push(el.Point, el.P, el.TS); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := orig.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(&buf, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.CheckInvariants(); err != nil {
		t.Fatalf("restored invariants: %v", err)
	}

	compare := func(step int) {
		if orig.Processed() != restored.Processed() ||
			orig.CandidateSize() != restored.CandidateSize() ||
			orig.SkylineSize() != restored.SkylineSize() ||
			orig.MaxCandidateSize() != restored.MaxCandidateSize() {
			t.Fatalf("step %d: headline stats diverge", step)
		}
		oc, rc := orig.Candidates(), restored.Candidates()
		if len(oc) != len(rc) {
			t.Fatalf("step %d: candidate counts %d vs %d", step, len(oc), len(rc))
		}
		for i := range oc {
			if oc[i].Seq != rc[i].Seq || !feq(oc[i].Pnew, rc[i].Pnew) ||
				!feq(oc[i].Pold, rc[i].Pold) || !feq(oc[i].Psky, rc[i].Psky) {
				t.Fatalf("step %d: candidate %d diverged: %+v vs %+v", step, i, oc[i], rc[i])
			}
		}
		os, rs := orig.Skyline(), restored.Skyline()
		if len(os) != len(rs) {
			t.Fatalf("step %d: skylines %d vs %d", step, len(os), len(rs))
		}
		for i := range os {
			if os[i].Seq != rs[i].Seq {
				t.Fatalf("step %d: skyline member %d vs %d", step, os[i].Seq, rs[i].Seq)
			}
		}
	}
	compare(0)

	// Continue both engines in lockstep through more of the stream.
	for i := 0; i < 1200; i++ {
		el := src.Next()
		if _, err := orig.Push(el.Point, el.P, el.TS); err != nil {
			t.Fatal(err)
		}
		if _, err := restored.Push(el.Point, el.P, el.TS); err != nil {
			t.Fatal(err)
		}
		if (i+1)%97 == 0 {
			compare(i + 1)
		}
	}
	compare(1200)
	_ = prefix
}

// TestSnapshotTimeWindow round-trips the arrival queue of a time-based
// window.
func TestSnapshotTimeWindow(t *testing.T) {
	orig, err := NewEngine(Options{Dims: 2, Window: 0, Thresholds: []float64{0.3}})
	if err != nil {
		t.Fatal(err)
	}
	src := streamgen.New(2, streamgen.Independent, streamgen.UniformProb{}, 44)
	ts := int64(0)
	for i := 0; i < 300; i++ {
		ts += 2
		el := src.Next()
		orig.ExpireOlderThan(ts - 100)
		if _, err := orig.Push(el.Point, el.P, ts); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := orig.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(&buf, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		ts += 2
		el := src.Next()
		orig.ExpireOlderThan(ts - 100)
		restored.ExpireOlderThan(ts - 100)
		if _, err := orig.Push(el.Point, el.P, ts); err != nil {
			t.Fatal(err)
		}
		if _, err := restored.Push(el.Point, el.P, ts); err != nil {
			t.Fatal(err)
		}
	}
	if orig.CandidateSize() != restored.CandidateSize() || orig.SkylineSize() != restored.SkylineSize() {
		t.Fatalf("time-window restore diverged: (%d,%d) vs (%d,%d)",
			orig.CandidateSize(), orig.SkylineSize(), restored.CandidateSize(), restored.SkylineSize())
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	if _, err := Restore(bytes.NewReader([]byte("not a snapshot")), RestoreOptions{}); err == nil {
		t.Fatal("garbage accepted")
	}
	// A checkpoint carries the fanout its engine was built with: one out of
	// range must come back as an error, not a panic in the tree constructor.
	for _, me := range []int{2, 64} {
		var buf bytes.Buffer
		s := snapshot{Version: snapshotVersion, Dims: 2, Window: 10, Thresholds: []float64{0.3}, MaxEntries: me}
		if err := gob.NewEncoder(&buf).Encode(s); err != nil {
			t.Fatal(err)
		}
		if _, err := Restore(&buf, RestoreOptions{}); err == nil {
			t.Errorf("MaxEntries %d accepted", me)
		}
	}
}
