package core

import (
	"math/bits"

	"pskyline/internal/aggrtree"
	"pskyline/internal/geom"
	"pskyline/internal/prob"
)

// Leaf scans.
//
// The probe hot loops — marking elements dominated by an arrival, the
// mutual-dominance probe, the read-only dominator fold and the expiry
// divisor — each examine every item of a partially overlapping leaf. They
// run the geom block kernels over the leaf's packed SoA coordinate block
// (dims sequential lane scans, no per-item pointer chase) and then visit
// only the mask hits, in ascending slot order, so probability folds
// accumulate in item order. NewEngine caps the fanout so that a leaf —
// even holding the transient overflow item between an insertion and its
// split — always fits one 64-bit mask.

// leafMarkDominated applies the arrival's Pnew multiplier to every leaf item
// dominated by p, recording the hits in domI. It is the relDom == DomNone
// arm of probeInsert, where only the dominated side of the test is live.
func (e *Engine) leafMarkDominated(n *aggrtree.Node, band int, p geom.Point, om prob.Factor, domI *[]itemT) bool {
	items := n.Items()
	lanes, stride := n.Block()
	mask := e.bkern.DominatesBlock(p, lanes, stride, len(items))
	hit := mask != 0
	for mask != 0 {
		i := bits.TrailingZeros64(mask)
		mask &= mask - 1
		x := items[i]
		x.Pnew = x.Pnew.Times(om)
		*domI = append(*domI, itemT{x, band})
	}
	return hit
}

// leafProbeMutual resolves both dominance directions between the arrival
// and a leaf: items dominating p fold their non-occurrence factor into
// pold, items dominated by p take the Pnew multiplier and join domI.
func (e *Engine) leafProbeMutual(n *aggrtree.Node, band int, p geom.Point, om, pold prob.Factor, domI *[]itemT) (prob.Factor, bool) {
	items := n.Items()
	lanes, stride := n.Block()
	pDom, domP := e.bkern.MutualBlock(p, lanes, stride, len(items))
	for u := pDom | domP; u != 0; {
		i := bits.TrailingZeros64(u)
		u &= u - 1
		x := items[i]
		if domP&(1<<uint(i)) != 0 {
			pold = pold.Times(x.OneMinusP())
		} else {
			x.Pnew = x.Pnew.Times(om)
			*domI = append(*domI, itemT{x, band})
		}
	}
	return pold, pDom != 0
}

// foldLeafDominators multiplies into pold the non-occurrence factor of every
// leaf item dominating p — the read-only arm of the probes.
func (e *Engine) foldLeafDominators(n *aggrtree.Node, p geom.Point, pold prob.Factor) prob.Factor {
	items := n.Items()
	e.counters.ItemsTouched += uint64(len(items))
	lanes, stride := n.Block()
	mask := e.bkern.BlockDominates(p, lanes, stride, len(items))
	for mask != 0 {
		i := bits.TrailingZeros64(mask)
		mask &= mask - 1
		pold = pold.Times(items[i].OneMinusP())
	}
	return pold
}

// leafExpireDominated divides Pold of every leaf item dominated by the
// expiring point, recording the hits in affI.
func (e *Engine) leafExpireDominated(n *aggrtree.Node, band int, pt geom.Point, om prob.Factor, affI *[]itemT) bool {
	items := n.Items()
	lanes, stride := n.Block()
	mask := e.bkern.DominatesBlock(pt, lanes, stride, len(items))
	hit := mask != 0
	for mask != 0 {
		i := bits.TrailingZeros64(mask)
		mask &= mask - 1
		x := items[i]
		x.Pold = x.Pold.Over(om)
		*affI = append(*affI, itemT{x, band})
	}
	return hit
}
