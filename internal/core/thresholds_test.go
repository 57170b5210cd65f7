package core

import (
	"math"
	"testing"

	"pskyline/internal/streamgen"
)

// engineStateEqual compares two engines' full observable state.
func engineStateEqual(t *testing.T, a, b *Engine, what string) {
	t.Helper()
	if err := a.CheckInvariants(); err != nil {
		t.Fatalf("%s: a invariants: %v", what, err)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("%s: b invariants: %v", what, err)
	}
	qa, qb := a.Thresholds(), b.Thresholds()
	if len(qa) != len(qb) {
		t.Fatalf("%s: threshold counts %v vs %v", what, qa, qb)
	}
	for i := range qa {
		if qa[i] != qb[i] {
			t.Fatalf("%s: thresholds %v vs %v", what, qa, qb)
		}
	}
	for b2 := 0; b2 <= len(qa); b2++ {
		if a.BandSize(b2) != b.BandSize(b2) {
			t.Fatalf("%s: band %d sizes %d vs %d", what, b2, a.BandSize(b2), b.BandSize(b2))
		}
	}
	ca, cb := a.Candidates(), b.Candidates()
	if len(ca) != len(cb) {
		t.Fatalf("%s: candidates %d vs %d", what, len(ca), len(cb))
	}
	for i := range ca {
		if ca[i].Seq != cb[i].Seq || !feq(ca[i].Pnew, cb[i].Pnew) || !feq(ca[i].Pold, cb[i].Pold) {
			t.Fatalf("%s: candidate %d: %+v vs %+v", what, i, ca[i], cb[i])
		}
	}
}

// TestAddThresholdMatchesFresh — splitting a band at runtime must leave the
// engine in exactly the state a fresh engine maintaining that threshold
// from the start would have reached, both immediately and after further
// stream progress.
func TestAddThresholdMatchesFresh(t *testing.T) {
	for _, addQ := range []float64{0.45, 0.8, 1.0} {
		dyn, err := NewEngine(Options{Dims: 3, Window: 200, Thresholds: []float64{0.6, 0.3}, MaxEntries: 5})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewEngine(Options{Dims: 3, Window: 200, Thresholds: []float64{0.6, 0.3, addQ}, MaxEntries: 5})
		if err != nil {
			t.Fatal(err)
		}
		srcA := streamgen.New(3, streamgen.Anticorrelated, streamgen.UniformProb{}, 61)
		srcB := streamgen.New(3, streamgen.Anticorrelated, streamgen.UniformProb{}, 61)
		push := func(e *Engine, s streamgen.Stream, n int) {
			for i := 0; i < n; i++ {
				el := s.Next()
				if _, err := e.Push(el.Point, el.P, el.TS); err != nil {
					t.Fatal(err)
				}
			}
		}
		push(dyn, srcA, 800)
		push(ref, srcB, 800)
		if err := dyn.AddThreshold(addQ); err != nil {
			t.Fatal(err)
		}
		engineStateEqual(t, dyn, ref, "right after AddThreshold")
		push(dyn, srcA, 800)
		push(ref, srcB, 800)
		engineStateEqual(t, dyn, ref, "after continued stream")
	}
}

// TestRemoveThresholdMatchesFresh — merging a band must equal never having
// maintained the threshold.
func TestRemoveThresholdMatchesFresh(t *testing.T) {
	dyn, err := NewEngine(Options{Dims: 2, Window: 150, Thresholds: []float64{0.7, 0.5, 0.3}, MaxEntries: 5})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewEngine(Options{Dims: 2, Window: 150, Thresholds: []float64{0.7, 0.3}, MaxEntries: 5})
	if err != nil {
		t.Fatal(err)
	}
	srcA := streamgen.New(2, streamgen.Independent, streamgen.UniformProb{}, 67)
	srcB := streamgen.New(2, streamgen.Independent, streamgen.UniformProb{}, 67)
	push := func(e *Engine, s streamgen.Stream, n int) {
		for i := 0; i < n; i++ {
			el := s.Next()
			if _, err := e.Push(el.Point, el.P, el.TS); err != nil {
				t.Fatal(err)
			}
		}
	}
	push(dyn, srcA, 600)
	push(ref, srcB, 600)
	if err := dyn.RemoveThreshold(0.5); err != nil {
		t.Fatal(err)
	}
	engineStateEqual(t, dyn, ref, "right after RemoveThreshold")
	push(dyn, srcA, 600)
	push(ref, srcB, 600)
	engineStateEqual(t, dyn, ref, "after continued stream")
}

func TestThresholdChangeValidation(t *testing.T) {
	e, err := NewEngine(Options{Dims: 2, Window: 10, Thresholds: []float64{0.6, 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddThreshold(0.1); err == nil {
		t.Error("threshold below minimum accepted")
	}
	if err := e.AddThreshold(0.3); err == nil {
		t.Error("duplicate threshold accepted")
	}
	if err := e.AddThreshold(1.5); err == nil {
		t.Error("threshold above 1 accepted")
	}
	if err := e.AddThreshold(math.NaN()); err == nil {
		t.Error("NaN threshold accepted")
	}
	if err := e.RemoveThreshold(0.9); err == nil {
		t.Error("unknown threshold removal accepted")
	}
	if err := e.RemoveThreshold(0.3); err == nil {
		t.Error("smallest threshold removal accepted")
	}
	if err := e.RemoveThreshold(0.6); err != nil {
		t.Errorf("valid removal rejected: %v", err)
	}
	if got := e.Thresholds(); len(got) != 1 || got[0] != 0.3 {
		t.Fatalf("thresholds after removal = %v", got)
	}
}

// TestAddRemoveRoundTrip — add then remove (and vice versa) returns the
// engine to the equivalent state, with the stream advancing in between.
func TestAddRemoveRoundTrip(t *testing.T) {
	dyn, err := NewEngine(Options{Dims: 2, Window: 120, Thresholds: []float64{0.4}})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewEngine(Options{Dims: 2, Window: 120, Thresholds: []float64{0.4}})
	if err != nil {
		t.Fatal(err)
	}
	srcA := streamgen.New(2, streamgen.Anticorrelated, streamgen.UniformProb{}, 71)
	srcB := streamgen.New(2, streamgen.Anticorrelated, streamgen.UniformProb{}, 71)
	push := func(e *Engine, s streamgen.Stream, n int) {
		for i := 0; i < n; i++ {
			el := s.Next()
			if _, err := e.Push(el.Point, el.P, el.TS); err != nil {
				t.Fatal(err)
			}
		}
	}
	push(dyn, srcA, 300)
	push(ref, srcB, 300)
	if err := dyn.AddThreshold(0.75); err != nil {
		t.Fatal(err)
	}
	push(dyn, srcA, 300)
	push(ref, srcB, 300)
	if err := dyn.RemoveThreshold(0.75); err != nil {
		t.Fatal(err)
	}
	engineStateEqual(t, dyn, ref, "after add+remove round trip")
}
