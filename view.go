package pskyline

import (
	"fmt"
	"sort"

	"pskyline/internal/core"
)

// View is an immutable snapshot of the Monitor's answerable state: the full
// candidate set S_{N,q_k} partitioned into threshold bands, each band sorted
// by descending skyline probability. By the paper's Theorem 4 the candidate
// set suffices to answer the continuous skyline, any ad-hoc query with
// q' ≥ q_k and probabilistic top-k, so a View answers Skyline, Query and
// TopK without touching the Monitor's live R-trees — and therefore without
// taking any lock.
//
// The Monitor publishes a fresh View after every completed Push, PushBatch,
// async ingestion batch, threshold change and restore; Monitor.View returns
// the most recently published one. A View never changes after publication:
// it is safe to read from any number of goroutines, to hold across an
// arbitrary number of subsequent writes, and to compare against later
// views. Unchanged bands are shared structurally between consecutive views
// (copy-on-write), so holding old views is cheap.
//
// Answers reflect the stream exactly as of the snapshot: Processed reports
// how many elements had been ingested when the View was captured.
type View struct {
	processed  uint64
	thresholds []float64    // maintained thresholds, descending
	bands      [][]SkyPoint // band i: Psky in [q_i, q_{i-1}), sorted desc
	stats      Stats
	counters   core.Counters
}

// Processed returns the number of stream elements that had been ingested
// when this view was captured.
func (v *View) Processed() uint64 { return v.processed }

// Stats returns the operator's size statistics as of this view's capture.
func (v *View) Stats() Stats { return v.stats }

// Counters returns the engine's accumulated work counters as of this
// view's capture.
func (v *View) Counters() core.Counters { return v.counters }

// Thresholds returns the maintained thresholds at capture time, sorted
// descending.
func (v *View) Thresholds() []float64 {
	return append([]float64(nil), v.thresholds...)
}

// NumCandidates returns the size of the captured candidate set |S_{N,q_k}|.
func (v *View) NumCandidates() int {
	n := 0
	for _, b := range v.bands {
		n += len(b)
	}
	return n
}

// BandSizes returns the number of elements in each threshold band: index
// i < k counts elements with Psky in [q_i, q_{i-1}), index k the remaining
// candidates below q_k.
func (v *View) BandSizes() []int {
	out := make([]int, len(v.bands))
	for i, b := range v.bands {
		out[i] = len(b)
	}
	return out
}

// Skyline returns the captured q_1-skyline sorted by descending skyline
// probability.
func (v *View) Skyline() []SkyPoint {
	return append([]SkyPoint(nil), v.bands[0]...)
}

// Query answers an ad-hoc skyline query at threshold q' ≥ q_k against the
// captured state: every candidate whose skyline probability is at least q',
// sorted by descending probability. The threshold is applied to the
// reported float64 probabilities, so for any q2 ≥ q1, Query(q2) is always a
// subset of Query(q1).
func (v *View) Query(qPrime float64) ([]SkyPoint, error) {
	qk := v.thresholds[len(v.thresholds)-1]
	if !(qPrime >= qk) { // also rejects NaN
		return nil, fmt.Errorf("pskyline: ad-hoc threshold %v below maintained minimum %v", qPrime, qk)
	}
	if qPrime > 1 {
		return nil, fmt.Errorf("pskyline: ad-hoc threshold %v above 1", qPrime)
	}
	var out []SkyPoint
	for i, b := range v.bands {
		if len(b) == 0 {
			continue
		}
		if i < len(v.thresholds) && v.thresholds[i] >= qPrime {
			// Whole band qualifies; bands are disjoint descending
			// probability ranges, so appending keeps the global order.
			out = append(out, b...)
			continue
		}
		j := sort.Search(len(b), func(j int) bool { return b[j].Psky < qPrime })
		out = append(out, b[:j]...)
	}
	return out, nil
}

// TopK returns the k captured candidates with the highest skyline
// probabilities among those with Psky ≥ minQ (minQ ≥ q_k), in descending
// order.
func (v *View) TopK(k int, minQ float64) ([]SkyPoint, error) {
	if k <= 0 {
		return nil, nil
	}
	qk := v.thresholds[len(v.thresholds)-1]
	if !(minQ >= qk) { // also rejects NaN
		return nil, fmt.Errorf("pskyline: top-k threshold %v below maintained minimum %v", minQ, qk)
	}
	out := make([]SkyPoint, 0, k)
	for _, b := range v.bands {
		for _, p := range b {
			if p.Psky < minQ || len(out) == k {
				return out, nil
			}
			out = append(out, p)
		}
	}
	return out, nil
}

// Candidates returns the entire captured candidate set sorted by descending
// skyline probability. It is the concatenation of the bands and is intended
// for inspection, tests and bulk export.
func (v *View) Candidates() []SkyPoint {
	out := make([]SkyPoint, 0, v.NumCandidates())
	for _, b := range v.bands {
		out = append(out, b...)
	}
	return out
}
