package core

import (
	"container/heap"
	"fmt"
	"sort"

	"pskyline/internal/aggrtree"
	"pskyline/internal/geom"
	"pskyline/internal/prob"
)

// Result is one element of a skyline answer.
type Result struct {
	Seq   uint64
	Point geom.Point
	P     float64
	TS    int64
	Psky  float64
	Pnew  float64
	Pold  float64
}

// resultOf clones the item's point: results outlive the item (published
// views, top-k rankings), and the engine recycles both items and their
// arena-backed coordinate slots when elements leave the window.
func resultOf(it *aggrtree.Item, pnew, pold prob.Factor) Result {
	return Result{
		Seq:   it.Seq,
		Point: it.Point.Clone(),
		P:     it.P,
		TS:    it.TS,
		Psky:  it.PF().Times(pnew).Times(pold).Float(),
		Pnew:  pnew.Float(),
		Pold:  pold.Float(),
	}
}

// Skyline returns the current q_1-skyline: every element whose skyline
// probability is at least the largest threshold, sorted by descending
// probability.
func (e *Engine) Skyline() []Result {
	res, _ := e.Query(e.qf[0])
	return res
}

// Query answers an ad-hoc skyline query with threshold q' (QSKY, Section
// IV-D): it returns every element with skyline probability ≥ q'. q' must be
// at least the smallest maintained threshold q_k. Bands entirely above q'
// are enumerated wholesale; the single band straddling q' is filtered with a
// branch-and-bound scan over the aggregate Psky bounds; bands below are
// skipped. No aggregate information is updated.
func (e *Engine) Query(qPrime float64) ([]Result, error) {
	qk := e.qf[len(e.qf)-1]
	if !(qPrime >= qk) { // also rejects NaN
		return nil, fmt.Errorf("core: ad-hoc threshold %v below maintained minimum %v", qPrime, qk)
	}
	if qPrime > 1 {
		return nil, fmt.Errorf("core: ad-hoc threshold %v above 1", qPrime)
	}
	qq := prob.FromFloat(qPrime)
	var out []Result
	for i, tr := range e.trees {
		if tr.Size() == 0 {
			continue
		}
		lo, hi, hiOK := e.bandBounds(i)
		if hiOK && !qq.Less(hi) {
			continue // whole band below q'
		}
		if i < len(e.qs) && lo.AtLeast(qq) {
			// Whole band qualifies.
			tr.WalkItems(func(it *aggrtree.Item, pnew, pold prob.Factor) bool {
				out = append(out, resultOf(it, pnew, pold))
				return true
			})
			continue
		}
		out = filterScan(tr.Root(), prob.One(), prob.One(), qq, out)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Psky != out[b].Psky {
			return out[a].Psky > out[b].Psky
		}
		return out[a].Seq < out[b].Seq
	})
	return out, nil
}

// filterScan collects elements with skyline probability ≥ qq from the
// subtree at n, pruning entries by their aggregate bounds. accNew/accOld
// carry the ancestors' lazy multipliers; the scan never mutates the tree.
func filterScan(n *aggrtree.Node, accNew, accOld prob.Factor, qq prob.Factor, out []Result) []Result {
	min := n.EffPskyMin().Times(accNew).Over(accOld)
	max := n.EffPskyMax().Times(accNew).Over(accOld)
	if max.Less(qq) {
		return out
	}
	accNew = accNew.Times(n.LazyNew())
	accOld = accOld.Times(n.LazyOld())
	if n.IsLeaf() {
		for _, it := range n.Items() {
			pnew := it.Pnew.Times(accNew)
			pold := it.Pold.Over(accOld)
			if it.PF().Times(pnew).Times(pold).AtLeast(qq) {
				out = append(out, resultOf(it, pnew, pold))
			}
		}
		return out
	}
	if min.AtLeast(qq) {
		// Whole subtree qualifies: enumerate without further checks.
		var walk func(m *aggrtree.Node, an, ao prob.Factor)
		walk = func(m *aggrtree.Node, an, ao prob.Factor) {
			an = an.Times(m.LazyNew())
			ao = ao.Times(m.LazyOld())
			if m.IsLeaf() {
				for _, it := range m.Items() {
					out = append(out, resultOf(it, it.Pnew.Times(an), it.Pold.Over(ao)))
				}
				return
			}
			for _, c := range m.Children() {
				walk(c, an, ao)
			}
		}
		for _, c := range n.Children() {
			walk(c, accNew, accOld)
		}
		return out
	}
	for _, c := range n.Children() {
		out = filterScan(c, accNew, accOld, qq, out)
	}
	return out
}

// pqEntry is a best-first frontier entry for TopK: an entry scored by its
// resolved maximum skyline probability, or an element scored by its exact
// skyline probability.
type pqEntry struct {
	score  prob.Factor
	n      *aggrtree.Node
	it     *aggrtree.Item
	result Result // valid when it != nil
	accNew prob.Factor
	accOld prob.Factor
}

type topkHeap []pqEntry

func (h topkHeap) Len() int            { return len(h) }
func (h topkHeap) Less(i, j int) bool  { return h[j].score.Less(h[i].score) }
func (h topkHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *topkHeap) Push(x interface{}) { *h = append(*h, x.(pqEntry)) }
func (h *topkHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// TopK returns the k candidate elements with the highest skyline
// probabilities that are at least minQ (Section VI, probabilistic top-k
// skyline; the paper requires minQ ≥ q, here minQ ≥ q_k). It runs a
// best-first search over the Psky_max entry bounds of all band trees,
// expanding only entries that can still contribute, and never mutates
// aggregate information.
func (e *Engine) TopK(k int, minQ float64) ([]Result, error) {
	if k <= 0 {
		return nil, nil
	}
	qk := e.qf[len(e.qf)-1]
	if !(minQ >= qk) { // also rejects NaN
		return nil, fmt.Errorf("core: top-k threshold %v below maintained minimum %v", minQ, qk)
	}
	floor := prob.FromFloat(minQ)
	h := &topkHeap{}
	for _, tr := range e.trees {
		if tr.Size() > 0 {
			root := tr.Root()
			heap.Push(h, pqEntry{
				score:  root.EffPskyMax(),
				n:      root,
				accNew: prob.One(),
				accOld: prob.One(),
			})
		}
	}
	var out []Result
	for h.Len() > 0 && len(out) < k {
		top := heap.Pop(h).(pqEntry)
		if top.score.Less(floor) {
			break
		}
		if top.it != nil {
			out = append(out, top.result)
			continue
		}
		n := top.n
		accNew := top.accNew.Times(n.LazyNew())
		accOld := top.accOld.Times(n.LazyOld())
		if n.IsLeaf() {
			for _, it := range n.Items() {
				pnew := it.Pnew.Times(accNew)
				pold := it.Pold.Over(accOld)
				psky := it.PF().Times(pnew).Times(pold)
				heap.Push(h, pqEntry{score: psky, it: it, result: resultOf(it, pnew, pold)})
			}
			continue
		}
		for _, c := range n.Children() {
			heap.Push(h, pqEntry{
				score:  c.EffPskyMax().Times(accNew).Over(accOld),
				n:      c,
				accNew: accNew,
				accOld: accOld,
			})
		}
	}
	return out, nil
}

// Candidates returns every element of the candidate set S_{N,q_k} with its
// exact probabilities, sorted by arrival. It is intended for inspection and
// tests.
func (e *Engine) Candidates() []Result {
	var out []Result
	for _, tr := range e.trees {
		tr.WalkItems(func(it *aggrtree.Item, pnew, pold prob.Factor) bool {
			out = append(out, resultOf(it, pnew, pold))
			return true
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// WalkBand visits every element currently in threshold band i with its
// exact probabilities.
func (e *Engine) WalkBand(i int, fn func(Result) bool) {
	e.trees[i].WalkItems(func(it *aggrtree.Item, pnew, pold prob.Factor) bool {
		return fn(resultOf(it, pnew, pold))
	})
}
