package core

import (
	"math"
	"sort"
	"testing"

	"pskyline/internal/streamgen"
)

func TestTopKTrackerValidation(t *testing.T) {
	eng, err := NewEngine(Options{Dims: 2, Window: 10, Thresholds: []float64{0.3}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTopKTracker(eng, 0, 0.3); err == nil {
		t.Error("k = 0 accepted")
	}
	if _, err := NewTopKTracker(eng, 3, 0.1); err == nil {
		t.Error("minQ below q accepted")
	}
	if _, err := NewTopKTracker(eng, 3, math.NaN()); err == nil {
		t.Error("NaN minQ accepted")
	}
}

// TestTopKTrackerContinuous drives a stream and verifies, at every step,
// that the tracker's view equals a fresh TopK query, that change reports
// are accurate, and that the ranking is the head of the full sorted
// skyline.
func TestTopKTrackerContinuous(t *testing.T) {
	eng, err := NewEngine(Options{Dims: 2, Window: 80, Thresholds: []float64{0.3}})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTopKTracker(eng, 5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	src := streamgen.New(2, streamgen.Anticorrelated, streamgen.UniformProb{}, 17)
	prev := append([]Result(nil), tr.Top()...)
	changes := 0
	for i := 0; i < 800; i++ {
		el := src.Next()
		if _, err := eng.Push(el.Point, el.P, el.TS); err != nil {
			t.Fatal(err)
		}
		changed, top, err := tr.Refresh()
		if err != nil {
			t.Fatal(err)
		}
		// Change detection must be exact.
		same := len(top) == len(prev)
		if same {
			for j := range top {
				if top[j].Seq != prev[j].Seq {
					same = false
					break
				}
			}
		}
		if changed == same {
			t.Fatalf("step %d: changed=%v but ranked lists same=%v", i, changed, same)
		}
		// The ranking must be the head of the sorted q-skyline set.
		full, err := eng.Query(0.3)
		if err != nil {
			t.Fatal(err)
		}
		sort.SliceStable(full, func(a, b int) bool { return full[a].Psky > full[b].Psky })
		want := full
		if len(want) > 5 {
			want = want[:5]
		}
		if len(top) != len(want) {
			t.Fatalf("step %d: top-k %d vs head %d", i, len(top), len(want))
		}
		for j := range top {
			if !feq(top[j].Psky, want[j].Psky) {
				t.Fatalf("step %d rank %d: %v vs %v", i, j, top[j].Psky, want[j].Psky)
			}
		}
		prev = append(prev[:0], top...)
		if changed {
			changes++
		}
	}
	if changes == 0 {
		t.Fatal("top-k never changed over 800 arrivals")
	}
}
