package core

import (
	"math"
	"math/rand"
	"testing"

	"pskyline/internal/geom"
)

func mustEngine(t *testing.T, opt Options) *Engine {
	t.Helper()
	e, err := NewEngine(opt)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestQueriesOnEmptyEngine(t *testing.T) {
	e := mustEngine(t, Options{Dims: 2, Window: 10, Thresholds: []float64{0.3}})
	if sky := e.Skyline(); len(sky) != 0 {
		t.Fatalf("empty skyline = %v", sky)
	}
	if res, err := e.Query(0.5); err != nil || len(res) != 0 {
		t.Fatalf("empty query = %v, %v", res, err)
	}
	if top, err := e.TopK(5, 0.3); err != nil || len(top) != 0 {
		t.Fatalf("empty topk = %v, %v", top, err)
	}
	if c := e.Candidates(); len(c) != 0 {
		t.Fatalf("empty candidates = %v", c)
	}
}

func TestQueryBoundsValidation(t *testing.T) {
	e := mustEngine(t, Options{Dims: 2, Window: 10, Thresholds: []float64{0.3}})
	if _, err := e.Query(0.2); err == nil {
		t.Error("query below q accepted")
	}
	if _, err := e.Query(1.5); err == nil {
		t.Error("query above 1 accepted")
	}
	if _, err := e.Query(1.0); err != nil {
		t.Errorf("query at exactly 1: %v", err)
	}
	if _, err := e.TopK(3, 0.1); err == nil {
		t.Error("topk below q accepted")
	}
	if _, err := e.Query(math.NaN()); err == nil {
		t.Error("query at NaN accepted")
	}
	if _, err := e.TopK(3, math.NaN()); err == nil {
		t.Error("topk at NaN accepted")
	}
	if top, err := e.TopK(0, 0.3); err != nil || top != nil {
		t.Errorf("topk k=0 = %v, %v", top, err)
	}
	if top, err := e.TopK(-2, 0.3); err != nil || top != nil {
		t.Errorf("topk k<0 = %v, %v", top, err)
	}
}

func TestTopKLargerThanPopulation(t *testing.T) {
	e := mustEngine(t, Options{Dims: 2, Window: 10, Thresholds: []float64{0.3}})
	e.Push(geom.Point{1, 2}, 0.9, 0)
	e.Push(geom.Point{2, 1}, 0.8, 1)
	top, err := e.TopK(100, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 {
		t.Fatalf("topk(100) = %d results", len(top))
	}
	if top[0].Psky < top[1].Psky {
		t.Fatal("topk not sorted")
	}
}

func TestWalkBandEarlyStop(t *testing.T) {
	e := mustEngine(t, Options{Dims: 2, Window: 50, Thresholds: []float64{0.3}})
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		e.Push(geom.Point{r.Float64(), r.Float64()}, 1-r.Float64(), int64(i))
	}
	visited := 0
	e.WalkBand(1, func(Result) bool {
		visited++
		return visited < 3
	})
	if visited != 3 {
		t.Fatalf("early stop visited %d", visited)
	}
}

func TestBandSizesSumToCandidates(t *testing.T) {
	e := mustEngine(t, Options{Dims: 3, Window: 100, Thresholds: []float64{0.7, 0.4, 0.2}})
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		pt := geom.Point{r.Float64(), r.Float64(), r.Float64()}
		e.Push(pt, 1-r.Float64(), int64(i))
	}
	sum := 0
	for b := 0; b <= 3; b++ {
		sum += e.BandSize(b)
	}
	if sum != e.CandidateSize() {
		t.Fatalf("band sizes sum %d != candidates %d", sum, e.CandidateSize())
	}
}

func TestEngineOptionValidation(t *testing.T) {
	bad := []Options{
		{Dims: 0, Window: 10, Thresholds: []float64{0.3}},
		{Dims: 2, Window: -1, Thresholds: []float64{0.3}},
		{Dims: 2, Window: 10},
		{Dims: 2, Window: 10, Thresholds: []float64{-0.1}},
		{Dims: 2, Window: 10, Thresholds: []float64{0}},
		{Dims: 2, Window: 10, Thresholds: []float64{1.01}},
		{Dims: 2, Window: 10, Thresholds: []float64{0.3, math.NaN()}},
	}
	for i, opt := range bad {
		if _, err := NewEngine(opt); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// Thresholds are sorted descending and deduplicated.
	e := mustEngine(t, Options{Dims: 2, Window: 10, Thresholds: []float64{0.3, 0.9, 0.3, 0.6}})
	got := e.Thresholds()
	want := []float64{0.9, 0.6, 0.3}
	if len(got) != len(want) {
		t.Fatalf("thresholds = %v", got)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("thresholds = %v, want %v", got, want)
		}
	}
}

func TestPushValidationEngine(t *testing.T) {
	e := mustEngine(t, Options{Dims: 2, Window: 10, Thresholds: []float64{0.3}})
	if _, err := e.Push(geom.Point{1}, 0.5, 0); err == nil {
		t.Error("dim mismatch accepted")
	}
	if _, err := e.Push(geom.Point{1, 2}, 0, 0); err == nil {
		t.Error("p=0 accepted")
	}
	if _, err := e.Push(geom.Point{1, 2}, 1.1, 0); err == nil {
		t.Error("p>1 accepted")
	}
	if _, err := e.Push(geom.Point{1, 2}, math.NaN(), 0); err == nil {
		t.Error("p=NaN accepted")
	}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := e.Push(geom.Point{x, 2}, 0.5, 0); err == nil {
			t.Errorf("coordinate %v accepted", x)
		}
		if _, err := e.PushAt(e.NextSeq(), geom.Point{1, x}, 0.5, 0); err == nil {
			t.Errorf("PushAt coordinate %v accepted", x)
		}
	}
	// A count-window engine takes PushAt only as the dense continuation.
	if _, err := e.PushAt(5, geom.Point{1, 2}, 0.5, 0); err == nil {
		t.Error("sparse PushAt on a count-window engine accepted")
	}
	if it, err := e.PushAt(0, geom.Point{1, 2}, 0.5, 0); err != nil || it.Seq != 0 || e.NextSeq() != 1 {
		t.Errorf("dense PushAt: %v, next %d", err, e.NextSeq())
	}
}

func TestExpireOlderThanRequiresTracking(t *testing.T) {
	e := mustEngine(t, Options{Dims: 2, Window: 10, Thresholds: []float64{0.3}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic without arrival tracking")
		}
	}()
	e.ExpireOlderThan(5)
}

func TestTrackArrivalsWithCountWindow(t *testing.T) {
	// Both a count window and time-based expiry can be combined explicitly.
	e := mustEngine(t, Options{Dims: 1, Window: 100, Thresholds: []float64{0.5}, TrackArrivals: true})
	// Ascending values: older elements dominate newer ones, so Pnew stays 1
	// and every element remains a candidate until expiry.
	for i := 0; i < 10; i++ {
		e.Push(geom.Point{float64(i)}, 1, int64(i))
	}
	n := e.ExpireOlderThan(5) // expires ts 0..4
	if n != 5 {
		t.Fatalf("expired %d arrivals, want 5", n)
	}
	if e.CandidateSize() != 5 {
		t.Fatalf("candidates = %d", e.CandidateSize())
	}
}
