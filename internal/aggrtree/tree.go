package aggrtree

import (
	"fmt"

	"pskyline/internal/geom"
	"pskyline/internal/prob"
)

// DefaultMaxEntries is the default node fanout.
const DefaultMaxEntries = 12

// maxFanout is the largest MaxEntries a tree accepts: between an insertion
// and the split it triggers a leaf holds MaxEntries+1 items, and a leaf must
// fit one block-kernel mask of geom.BlockMaxItems bits.
const maxFanout = geom.BlockMaxItems - 1

// Config controls tree shape.
type Config struct {
	// MaxEntries is the maximum fanout of a node, in [4, maxFanout]; the
	// minimum fill is 40% of it. Zero selects DefaultMaxEntries.
	MaxEntries int
	// NodePool, when non-nil, recycles nodes the tree sheds instead of
	// leaving them to the GC. Trees that exchange entries (the engine's
	// band trees) must share one pool.
	NodePool *NodePool
}

// Tree is an aggregate R-tree over uncertain stream elements.
type Tree struct {
	dims int
	max  int
	min  int
	root *Node
	size int
	pool *NodePool

	// Reusable buffers for the non-reentrant structural operations
	// (pushPath, condense, splitNode); see treeScratch.
	scratch treeScratch
}

// treeScratch holds per-tree buffers for structural operations so the
// steady-state insert/delete churn stops allocating. Safe because none of
// the operations that use a given buffer re-enters itself: pushPath never
// nests, condense's reinsertions only ever split (insertEntryInto and
// insertItemInto never condense), and splits complete one at a time on the
// way up.
type treeScratch struct {
	chain       []*Node // pushPath root-to-leaf chain
	orphanItems []*Item // condense
	orphanNodes []*Node // condense
	entries     []*Node // splitNode staging
	items       []*Item // splitNode staging
	rects       []geom.Rect
	groupA      []int
	groupB      []int
	assigned    []bool
	mbbA, mbbB  geom.Rect // quadraticPartition group MBBs
}

// New returns an empty aggregate R-tree for dims-dimensional points.
func New(dims int, cfg Config) *Tree {
	if dims < 1 {
		panic("aggrtree: dims must be >= 1")
	}
	if cfg.NodePool != nil && cfg.NodePool.dims != dims {
		panic("aggrtree: NodePool dimensionality mismatch")
	}
	max := cfg.MaxEntries
	if max == 0 {
		max = DefaultMaxEntries
	}
	if max < 4 || max > maxFanout {
		panic(fmt.Sprintf("aggrtree: MaxEntries %d out of [4, %d]", max, maxFanout))
	}
	min := max * 2 / 5
	if min < 1 {
		min = 1
	}
	t := &Tree{dims: dims, max: max, min: min, pool: cfg.NodePool}
	t.root = t.newNode(0)
	t.scratch.mbbA = geom.EmptyRect(dims)
	t.scratch.mbbB = geom.EmptyRect(dims)
	return t
}

// newNode builds or recycles a node at the given level.
func (t *Tree) newNode(level int) *Node { return t.pool.get(t.dims, level) }

// freeNode recycles a node the tree no longer references. Without a pool
// the node still gets its freed flag set (catching stale pointers in
// validating tests) but is left to the GC.
func (t *Tree) freeNode(n *Node) { t.pool.put(n) }

// Dims returns the tree's dimensionality.
func (t *Tree) Dims() int { return t.dims }

// Size returns the number of items stored.
func (t *Tree) Size() int { return t.size }

// Root returns the root entry. It is never nil; an empty tree has an empty
// leaf root.
func (t *Tree) Root() *Node { return t.root }

// InsertItem adds an element to the tree.
func (t *Tree) InsertItem(it *Item) {
	t.insertItemInto(it)
	t.size++
}

func (t *Tree) insertItemInto(it *Item) {
	n := t.chooseNode(it.Rect(), 0)
	n.attachItem(it)
	if len(n.items) <= t.max {
		addItemUp(n, it)
		return
	}
	t.splitUpAndRefresh(n)
}

// addItemUp folds a single freshly attached item into the aggregates of its
// root path without refreshing each node from scratch. chooseNode pushed the
// whole path, so no lazy multipliers sit between the item and any ancestor:
// the item contributes exactly it.Psky() and it.Pnew to every stored
// aggregate above it. Rect extension, count and min/max merges therefore
// equal what a full refresh would compute; only pnoc accumulates in a
// different float association order, which stays within the tolerance
// CheckInvariants grants probability aggregates.
func addItemUp(n *Node, it *Item) {
	s := it.Psky()
	for m := n; m != nil; m = m.parent {
		m.rect.ExtendPoint(it.Point)
		m.pnoc = m.pnoc.Times(it.oneMin)
		if m.count == 0 {
			m.pskyMin, m.pskyMax = s, s
			m.pnewMin, m.pnewMax = it.Pnew, it.Pnew
		} else {
			m.pskyMin = prob.Min(m.pskyMin, s)
			m.pskyMax = prob.Max(m.pskyMax, s)
			m.pnewMin = prob.Min(m.pnewMin, it.Pnew)
			m.pnewMax = prob.Max(m.pnewMax, it.Pnew)
		}
		m.count++
	}
}

// DeleteItem removes an element located via its leaf back-pointer. The
// item's Pnew/Pold absorb any lazy multipliers pending on its path, so the
// returned state is exact.
func (t *Tree) DeleteItem(it *Item) {
	leaf := it.leaf
	if leaf == nil {
		panic("aggrtree: DeleteItem: item not in a tree")
	}
	t.pushPath(leaf)
	leaf.detachItem(it)
	t.size--
	t.condense(leaf)
}

// InsertEntry grafts a whole subtree (for example one removed from a sibling
// tree by RemoveEntry) into the tree at its natural level. The entry's own
// lazy multipliers travel with it. Empty entries are ignored.
func (t *Tree) InsertEntry(e *Node) {
	if e == nil || e.count == 0 {
		return
	}
	t.size += e.count
	t.insertEntryInto(e)
}

func (t *Tree) insertEntryInto(e *Node) {
	if t.root.count == 0 && e.level >= t.root.level {
		// Empty tree: adopt the subtree as the new root and recycle the
		// empty shell.
		t.freeNode(t.root)
		e.parent = nil
		t.root = e
		return
	}
	if e.level >= t.root.level {
		// The subtree is as tall as the tree itself; decompose it one
		// level and insert the pieces.
		e.Push()
		if e.level == 0 {
			for _, it := range e.items {
				it.leaf = nil
				t.insertItemInto(it)
			}
			t.freeNode(e)
			return
		}
		// e is unreachable from the tree, so iterating its children while
		// reinserting them is safe; the shell is recycled afterwards.
		for _, c := range e.children {
			c.parent = nil
			t.insertEntryInto(c)
		}
		t.freeNode(e)
		return
	}
	n := t.chooseNode(e.rect, e.level+1)
	n.attachChild(e)
	t.splitUpAndRefresh(n)
}

// RemoveEntry detaches the subtree rooted at e from the tree and returns it.
// Lazy multipliers of e's ancestors are pushed down first, so the subtree
// leaves carrying its exact pending state and can be grafted elsewhere.
func (t *Tree) RemoveEntry(e *Node) *Node {
	if e.parent == nil {
		if e != t.root {
			panic("aggrtree: RemoveEntry: detached entry")
		}
		t.root = t.newNode(0)
		t.size = 0
		return e
	}
	t.pushPath(e.parent)
	p := e.parent
	p.detachChild(e)
	t.size -= e.count
	t.condense(p)
	return e
}

// RefreshFrom recomputes aggregates from n upward after the caller mutated
// item probabilities inside n directly.
func (t *Tree) RefreshFrom(n *Node) { refreshUp(n) }

// ItemProbs returns the item's exact current (Pnew, Pold), accounting for
// lazy multipliers pending on its root-to-leaf path, without mutating the
// tree.
func (t *Tree) ItemProbs(it *Item) (pnew, pold prob.Factor) { return Probs(it) }

// ItemPsky returns the item's exact current skyline probability.
func (t *Tree) ItemPsky(it *Item) prob.Factor { return Psky(it) }

// Probs returns the item's exact current (Pnew, Pold), resolving lazy
// multipliers pending on its root-to-leaf path without mutating anything.
func Probs(it *Item) (pnew, pold prob.Factor) {
	pnew, pold = it.Pnew, it.Pold
	for n := it.leaf; n != nil; n = n.parent {
		pnew = pnew.Times(n.lazyNew)
		pold = pold.Over(n.lazyOld)
	}
	return pnew, pold
}

// Psky returns the item's exact current skyline probability, resolving
// pending lazy multipliers.
func Psky(it *Item) prob.Factor {
	pnew, pold := Probs(it)
	return it.pf.Times(pnew).Times(pold)
}

// RefreshPath recomputes aggregates from n to its root after the caller
// mutated item probabilities or lazy multipliers inside n directly.
func RefreshPath(n *Node) { refreshUp(n) }

// RefreshProbsPath recomputes only the probability aggregates from n to its
// root: the cheap path refresh after probability-only mutations.
func RefreshProbsPath(n *Node) {
	for ; n != nil; n = n.parent {
		n.RefreshProbs()
	}
}

// WalkItems visits every item with its exact (pnew, pold), accounting for
// pending lazy multipliers, without mutating the tree. The visit stops early
// if fn returns false; WalkItems reports whether the walk ran to completion.
func (t *Tree) WalkItems(fn func(it *Item, pnew, pold prob.Factor) bool) bool {
	return walk(t.root, prob.One(), prob.One(), fn)
}

func walk(n *Node, accNew, accOld prob.Factor, fn func(*Item, prob.Factor, prob.Factor) bool) bool {
	accNew = accNew.Times(n.lazyNew)
	accOld = accOld.Times(n.lazyOld)
	if n.level > 0 {
		for _, c := range n.children {
			if !walk(c, accNew, accOld, fn) {
				return false
			}
		}
		return true
	}
	for _, it := range n.items {
		if !fn(it, it.Pnew.Times(accNew), it.Pold.Over(accOld)) {
			return false
		}
	}
	return true
}

// pushPath pushes lazy multipliers top-down along the path from the root to
// n (inclusive).
func (t *Tree) pushPath(n *Node) {
	chain := t.scratch.chain[:0]
	for m := n; m != nil; m = m.parent {
		chain = append(chain, m)
	}
	for i := len(chain) - 1; i >= 0; i-- {
		chain[i].Push()
	}
	for i := range chain {
		chain[i] = nil
	}
	t.scratch.chain = chain[:0]
}

// chooseNode descends from the root to a node at attachLevel, choosing the
// child needing least MBB enlargement (ties: smaller area, then smaller
// fanout) and pushing lazy multipliers along the way.
func (t *Tree) chooseNode(r geom.Rect, attachLevel int) *Node {
	n := t.root
	n.Push()
	for n.level > attachLevel {
		var best *Node
		bestEnl, bestArea := 0.0, 0.0
		for _, c := range n.children {
			enl, area := geom.EnlargeArea(c.rect, r)
			if best == nil || enl < bestEnl || (enl == bestEnl && (area < bestArea ||
				(area == bestArea && c.fanout() < best.fanout()))) {
				best, bestEnl, bestArea = c, enl, area
			}
		}
		if best == nil {
			panic("aggrtree: chooseNode: internal node with no children")
		}
		n = best
		n.Push()
	}
	return n
}

// splitUpAndRefresh splits overflowing nodes from n upward and refreshes
// aggregates to the root.
func (t *Tree) splitUpAndRefresh(n *Node) {
	for n != nil {
		if n.fanout() <= t.max {
			n.refresh()
			n = n.parent
			continue
		}
		sib := t.splitNode(n)
		n.refresh()
		sib.refresh()
		if n.parent == nil {
			root := t.newNode(n.level + 1)
			root.attachChild(n)
			root.attachChild(sib)
			root.refresh()
			t.root = root
			return
		}
		n.parent.attachChild(sib)
		n = n.parent
	}
}

// condense walks from n to the root, removing underfull nodes and
// reinserting their entries, then collapses a single-child root. Lazy
// multipliers along the path must already be pushed (DeleteItem and
// RemoveEntry do so).
func (t *Tree) condense(n *Node) {
	orphanItems := t.scratch.orphanItems[:0]
	orphanNodes := t.scratch.orphanNodes[:0]
	for n.parent != nil {
		p := n.parent
		if n.fanout() < t.min {
			p.detachChild(n)
			if n.level == 0 {
				for _, it := range n.items {
					it.leaf = nil
					orphanItems = append(orphanItems, it)
				}
			} else {
				for _, c := range n.children {
					c.parent = nil
					orphanNodes = append(orphanNodes, c)
				}
			}
			t.freeNode(n)
		} else {
			n.refresh()
		}
		n = p
	}
	n.refresh()
	// An internal root emptied by the upward pass must become a leaf before
	// reinsertion tries to descend through it.
	if t.root.level > 0 && len(t.root.children) == 0 {
		t.freeNode(t.root)
		t.root = t.newNode(0)
	}
	// Reinsert orphans, highest levels first so the tree regains height
	// before lower entries need it. The scratch buffers are safe here:
	// reinsertion only ever splits, never condenses, so this function does
	// not re-enter while they are live.
	for i := len(orphanNodes) - 1; i >= 0; i-- {
		t.insertEntryInto(orphanNodes[i])
	}
	for _, it := range orphanItems {
		t.insertItemInto(it)
	}
	for i := range orphanItems {
		orphanItems[i] = nil
	}
	for i := range orphanNodes {
		orphanNodes[i] = nil
	}
	t.scratch.orphanItems = orphanItems[:0]
	t.scratch.orphanNodes = orphanNodes[:0]
	// Collapse trivial roots. Callers must not hold references to entries
	// across structural operations (the engine performs all its structural
	// changes at item granularity for exactly this reason).
	for t.root.level > 0 && len(t.root.children) == 1 {
		t.root.Push()
		c := t.root.children[0]
		c.parent = nil
		old := t.root
		t.root = c
		t.freeNode(old)
	}
}

// NumNodes returns the number of nodes in the tree (for diagnostics).
func (t *Tree) NumNodes() int {
	var count func(*Node) int
	count = func(n *Node) int {
		c := 1
		for _, ch := range n.children {
			c += count(ch)
		}
		return c
	}
	return count(t.root)
}

func (t *Tree) String() string {
	return fmt.Sprintf("aggrtree{dims=%d size=%d height=%d}", t.dims, t.size, t.root.level+1)
}
