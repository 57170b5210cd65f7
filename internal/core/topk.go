package core

import "fmt"

// TopKTracker maintains the continuous probabilistic top-k skyline of
// Section VI: after every window update it re-derives the k candidates with
// the highest skyline probabilities (≥ minQ) via the best-first search over
// the band trees' Psky_max bounds — the trees double as the paper's "heap
// trees" — and reports whether the ranked membership changed.
type TopKTracker struct {
	eng  *Engine
	k    int
	minQ float64
	cur  []Result
}

// NewTopKTracker returns a tracker over eng. minQ must be at least the
// engine's smallest maintained threshold.
func NewTopKTracker(eng *Engine, k int, minQ float64) (*TopKTracker, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: top-k tracker needs k > 0, got %d", k)
	}
	if qk := eng.qf[len(eng.qf)-1]; !(minQ >= qk) { // also rejects NaN
		return nil, fmt.Errorf("core: top-k threshold %v below maintained minimum %v", minQ, qk)
	}
	t := &TopKTracker{eng: eng, k: k, minQ: minQ}
	t.cur, _ = eng.TopK(k, minQ)
	return t, nil
}

// Top returns the current ranked top-k (descending skyline probability).
// The returned slice is shared; callers must not mutate it.
func (t *TopKTracker) Top() []Result { return t.cur }

// Refresh re-derives the top-k after the engine processed stream updates
// and reports whether the ranked member list changed (by sequence; pure
// probability drift of an unchanged ranking does not count as a change).
func (t *TopKTracker) Refresh() (changed bool, top []Result, err error) {
	top, err = t.eng.TopK(t.k, t.minQ)
	if err != nil {
		return false, nil, err
	}
	changed = len(top) != len(t.cur)
	if !changed {
		for i := range top {
			if top[i].Seq != t.cur[i].Seq {
				changed = true
				break
			}
		}
	}
	t.cur = top
	return changed, top, nil
}
