package core

import (
	"fmt"

	"pskyline/internal/aggrtree"
	"pskyline/internal/prob"
)

// AddThreshold begins maintaining an additional threshold q (a new MSKY
// user registering a confidence level, Section IV-D). q must lie in
// (q_k, 1] and not already be maintained: thresholds at or below the
// smallest maintained one cannot be added because elements outside
// S_{N,q_k} were already discarded. The band containing q is split in
// place; the candidate set is untouched, so the operation is exact.
//
// Adding or removing thresholds renumbers bands, so no band-transition
// events are emitted for the split; continuous queries are unaffected.
func (e *Engine) AddThreshold(q float64) error {
	if !(q > 0 && q <= 1) { // also rejects NaN
		return fmt.Errorf("core: threshold %v out of (0,1]", q)
	}
	qk := e.qf[len(e.qf)-1]
	if q < qk {
		return fmt.Errorf("core: cannot add threshold %v below maintained minimum %v (candidates were discarded)", q, qk)
	}
	pos := 0
	for pos < len(e.qf) && e.qf[pos] > q {
		pos++
	}
	if pos < len(e.qf) && e.qf[pos] == q {
		return fmt.Errorf("core: threshold %v already maintained", q)
	}
	// The new threshold splits the current band at index pos (range
	// [q_pos, q_{pos-1})) into [q, q_{pos-1}) and [q_pos, q); q > q_k
	// guarantees pos ≤ k−1, so the bottom candidates-only tree never
	// splits.
	qq := prob.FromFloat(q)
	split := e.trees[pos]
	upper := aggrtree.New(e.dims, aggrtree.Config{MaxEntries: e.maxEntries, NodePool: e.nodes})

	var promote []*aggrtree.Item
	split.WalkItems(func(it *aggrtree.Item, pnew, pold prob.Factor) bool {
		if it.PF().Times(pnew).Times(pold).AtLeast(qq) {
			promote = append(promote, it)
		}
		return true
	})
	for _, it := range promote {
		split.DeleteItem(it)
		upper.InsertItem(it)
	}

	e.trees = append(e.trees, nil)
	copy(e.trees[pos+1:], e.trees[pos:])
	e.trees[pos] = upper
	e.qf = append(e.qf, 0)
	copy(e.qf[pos+1:], e.qf[pos:])
	e.qf[pos] = q
	e.qs = append(e.qs, prob.Factor{})
	copy(e.qs[pos+1:], e.qs[pos:])
	e.qs[pos] = qq
	e.bandGen = append(e.bandGen, 0)
	e.touchAll()
	return nil
}

// RemoveThreshold stops maintaining threshold q (an MSKY user leaving),
// merging its band into the band below. The smallest threshold cannot be
// removed: it bounds the candidate set, and candidates for anything looser
// were never kept.
func (e *Engine) RemoveThreshold(q float64) error {
	pos := -1
	for i, v := range e.qf {
		if v == q {
			pos = i
			break
		}
	}
	if pos < 0 {
		return fmt.Errorf("core: threshold %v is not maintained", q)
	}
	if pos == len(e.qf)-1 {
		return fmt.Errorf("core: cannot remove the smallest threshold %v (it bounds the candidate set)", q)
	}
	// Graft the whole band tree into the band below, entry-wise: no
	// pending references exist outside a Push, so the wholesale move is
	// safe and cheap.
	src := e.trees[pos]
	if src.Size() > 0 {
		root := src.RemoveEntry(src.Root())
		e.trees[pos+1].InsertEntry(root)
	}
	e.trees = append(e.trees[:pos], e.trees[pos+1:]...)
	e.qf = append(e.qf[:pos], e.qf[pos+1:]...)
	e.qs = append(e.qs[:pos], e.qs[pos+1:]...)
	e.bandGen = e.bandGen[:len(e.bandGen)-1]
	e.touchAll()
	return nil
}
