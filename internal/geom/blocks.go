package geom

// Block dominance kernels.
//
// The leaf nodes of the aggregate R-tree store their coordinates in a packed
// structure-of-arrays block: one contiguous lane of float64 per dimension,
// item i's coordinate for dimension d at lanes[d*stride+i]. Scanning a whole
// leaf against one probe point then touches dims short, cache-line-sequential
// runs instead of chasing one *Item pointer (and one cache line) per element.
//
// Each kernel compares a probe point against every item of a block in one
// pass and returns the verdicts as a bitmask: bit i is set when item i
// satisfies the relation. Blocks are therefore limited to BlockMaxItems
// items, which is why the aggregate R-tree caps its fanout at one less: a
// leaf holding the overflow item of an insertion still fits.
//
// The per-item comparisons fold boolean comparison results with integer
// and/or instead of short-circuit chains, so the inner loops compile to
// branch-free SETcc/AND/OR sequences — no data-dependent branches for the
// predictor to miss on shuffled coordinates. Like the per-point kernels,
// block kernels are pure comparison networks (no floating-point arithmetic):
// the mask bit for item i is exactly the result of the corresponding
// per-point kernel on (p, item i), including ties, NaN-free by construction.
// The differential tests in blocks_test.go verify this bit-for-bit.

// BlockKernels bundles the block-scan primitives for one dimensionality, the
// block analogue of Kernels.
type BlockKernels struct {
	// Dims is the dimensionality the kernel set was built for.
	Dims int
	// DominatesBlock returns the mask of items dominated by p (p ≺ item i).
	DominatesBlock func(p Point, lanes []float64, stride, m int) uint64
	// BlockDominates returns the mask of items dominating p (item i ≺ p).
	BlockDominates func(p Point, lanes []float64, stride, m int) uint64
	// MutualBlock classifies both directions in one pass: pDom bit i means
	// p ≺ item i, domP bit i means item i ≺ p (never both for the same i).
	MutualBlock func(p Point, lanes []float64, stride, m int) (pDom, domP uint64)
}

// BlockKernelsFor returns the block kernel set for the given dimensionality:
// unrolled kernels for d = 2–5, generic loops otherwise.
func BlockKernelsFor(dims int) *BlockKernels {
	switch dims {
	case 2:
		return &BlockKernels{Dims: 2, DominatesBlock: DominatesBlock2,
			BlockDominates: BlockDominates2, MutualBlock: MutualBlock2}
	case 3:
		return &BlockKernels{Dims: 3, DominatesBlock: DominatesBlock3,
			BlockDominates: BlockDominates3, MutualBlock: MutualBlock3}
	case 4:
		return &BlockKernels{Dims: 4, DominatesBlock: DominatesBlock4,
			BlockDominates: BlockDominates4, MutualBlock: MutualBlock4}
	case 5:
		return &BlockKernels{Dims: 5, DominatesBlock: DominatesBlock5,
			BlockDominates: BlockDominates5, MutualBlock: MutualBlock5}
	default:
		return &BlockKernels{Dims: dims, DominatesBlock: dominatesBlockGeneric,
			BlockDominates: blockDominatesGeneric, MutualBlock: mutualBlockGeneric}
	}
}

// BlockMaxItems is the widest block a mask kernel can classify.
const BlockMaxItems = 64

// b2u converts a comparison result to 0/1 without a branch (compiles to
// SETcc on amd64, CSET on arm64).
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// DominatesBlock2 masks the items of a 2-d block that p dominates.
func DominatesBlock2(p Point, lanes []float64, stride, m int) uint64 {
	p0, p1 := p[0], p[1]
	l0 := lanes[:m]
	l1 := lanes[stride:][:m]
	var mask uint64
	for i := 0; i < m; i++ {
		x0, x1 := l0[i], l1[i]
		le := b2u(p0 <= x0) & b2u(p1 <= x1)
		lt := b2u(p0 < x0) | b2u(p1 < x1)
		mask |= (le & lt) << uint(i)
	}
	return mask
}

// DominatesBlock3 masks the items of a 3-d block that p dominates.
func DominatesBlock3(p Point, lanes []float64, stride, m int) uint64 {
	p0, p1, p2 := p[0], p[1], p[2]
	l0 := lanes[:m]
	l1 := lanes[stride:][:m]
	l2 := lanes[2*stride:][:m]
	var mask uint64
	for i := 0; i < m; i++ {
		x0, x1, x2 := l0[i], l1[i], l2[i]
		le := b2u(p0 <= x0) & b2u(p1 <= x1) & b2u(p2 <= x2)
		lt := b2u(p0 < x0) | b2u(p1 < x1) | b2u(p2 < x2)
		mask |= (le & lt) << uint(i)
	}
	return mask
}

// DominatesBlock4 masks the items of a 4-d block that p dominates.
func DominatesBlock4(p Point, lanes []float64, stride, m int) uint64 {
	p0, p1, p2, p3 := p[0], p[1], p[2], p[3]
	l0 := lanes[:m]
	l1 := lanes[stride:][:m]
	l2 := lanes[2*stride:][:m]
	l3 := lanes[3*stride:][:m]
	var mask uint64
	for i := 0; i < m; i++ {
		x0, x1, x2, x3 := l0[i], l1[i], l2[i], l3[i]
		le := b2u(p0 <= x0) & b2u(p1 <= x1) & b2u(p2 <= x2) & b2u(p3 <= x3)
		lt := b2u(p0 < x0) | b2u(p1 < x1) | b2u(p2 < x2) | b2u(p3 < x3)
		mask |= (le & lt) << uint(i)
	}
	return mask
}

// DominatesBlock5 masks the items of a 5-d block that p dominates.
func DominatesBlock5(p Point, lanes []float64, stride, m int) uint64 {
	p0, p1, p2, p3, p4 := p[0], p[1], p[2], p[3], p[4]
	l0 := lanes[:m]
	l1 := lanes[stride:][:m]
	l2 := lanes[2*stride:][:m]
	l3 := lanes[3*stride:][:m]
	l4 := lanes[4*stride:][:m]
	var mask uint64
	for i := 0; i < m; i++ {
		x0, x1, x2, x3, x4 := l0[i], l1[i], l2[i], l3[i], l4[i]
		le := b2u(p0 <= x0) & b2u(p1 <= x1) & b2u(p2 <= x2) & b2u(p3 <= x3) & b2u(p4 <= x4)
		lt := b2u(p0 < x0) | b2u(p1 < x1) | b2u(p2 < x2) | b2u(p3 < x3) | b2u(p4 < x4)
		mask |= (le & lt) << uint(i)
	}
	return mask
}

// BlockDominates2 masks the items of a 2-d block that dominate p.
func BlockDominates2(p Point, lanes []float64, stride, m int) uint64 {
	p0, p1 := p[0], p[1]
	l0 := lanes[:m]
	l1 := lanes[stride:][:m]
	var mask uint64
	for i := 0; i < m; i++ {
		x0, x1 := l0[i], l1[i]
		le := b2u(x0 <= p0) & b2u(x1 <= p1)
		lt := b2u(x0 < p0) | b2u(x1 < p1)
		mask |= (le & lt) << uint(i)
	}
	return mask
}

// BlockDominates3 masks the items of a 3-d block that dominate p.
func BlockDominates3(p Point, lanes []float64, stride, m int) uint64 {
	p0, p1, p2 := p[0], p[1], p[2]
	l0 := lanes[:m]
	l1 := lanes[stride:][:m]
	l2 := lanes[2*stride:][:m]
	var mask uint64
	for i := 0; i < m; i++ {
		x0, x1, x2 := l0[i], l1[i], l2[i]
		le := b2u(x0 <= p0) & b2u(x1 <= p1) & b2u(x2 <= p2)
		lt := b2u(x0 < p0) | b2u(x1 < p1) | b2u(x2 < p2)
		mask |= (le & lt) << uint(i)
	}
	return mask
}

// BlockDominates4 masks the items of a 4-d block that dominate p.
func BlockDominates4(p Point, lanes []float64, stride, m int) uint64 {
	p0, p1, p2, p3 := p[0], p[1], p[2], p[3]
	l0 := lanes[:m]
	l1 := lanes[stride:][:m]
	l2 := lanes[2*stride:][:m]
	l3 := lanes[3*stride:][:m]
	var mask uint64
	for i := 0; i < m; i++ {
		x0, x1, x2, x3 := l0[i], l1[i], l2[i], l3[i]
		le := b2u(x0 <= p0) & b2u(x1 <= p1) & b2u(x2 <= p2) & b2u(x3 <= p3)
		lt := b2u(x0 < p0) | b2u(x1 < p1) | b2u(x2 < p2) | b2u(x3 < p3)
		mask |= (le & lt) << uint(i)
	}
	return mask
}

// BlockDominates5 masks the items of a 5-d block that dominate p.
func BlockDominates5(p Point, lanes []float64, stride, m int) uint64 {
	p0, p1, p2, p3, p4 := p[0], p[1], p[2], p[3], p[4]
	l0 := lanes[:m]
	l1 := lanes[stride:][:m]
	l2 := lanes[2*stride:][:m]
	l3 := lanes[3*stride:][:m]
	l4 := lanes[4*stride:][:m]
	var mask uint64
	for i := 0; i < m; i++ {
		x0, x1, x2, x3, x4 := l0[i], l1[i], l2[i], l3[i], l4[i]
		le := b2u(x0 <= p0) & b2u(x1 <= p1) & b2u(x2 <= p2) & b2u(x3 <= p3) & b2u(x4 <= p4)
		lt := b2u(x0 < p0) | b2u(x1 < p1) | b2u(x2 < p2) | b2u(x3 < p3) | b2u(x4 < p4)
		mask |= (le & lt) << uint(i)
	}
	return mask
}

// The mutual block kernels mirror mutual2..5: pDom_i = pLE && !xLE and
// domP_i = xLE && !pLE, where pLE means p ⪯ item i on every dimension.

// MutualBlock2 classifies both dominance directions over a 2-d block.
func MutualBlock2(p Point, lanes []float64, stride, m int) (pDom, domP uint64) {
	p0, p1 := p[0], p[1]
	l0 := lanes[:m]
	l1 := lanes[stride:][:m]
	for i := 0; i < m; i++ {
		x0, x1 := l0[i], l1[i]
		pLE := b2u(p0 <= x0) & b2u(p1 <= x1)
		xLE := b2u(x0 <= p0) & b2u(x1 <= p1)
		pDom |= (pLE &^ xLE) << uint(i)
		domP |= (xLE &^ pLE) << uint(i)
	}
	return pDom, domP
}

// MutualBlock3 classifies both dominance directions over a 3-d block.
func MutualBlock3(p Point, lanes []float64, stride, m int) (pDom, domP uint64) {
	p0, p1, p2 := p[0], p[1], p[2]
	l0 := lanes[:m]
	l1 := lanes[stride:][:m]
	l2 := lanes[2*stride:][:m]
	for i := 0; i < m; i++ {
		x0, x1, x2 := l0[i], l1[i], l2[i]
		pLE := b2u(p0 <= x0) & b2u(p1 <= x1) & b2u(p2 <= x2)
		xLE := b2u(x0 <= p0) & b2u(x1 <= p1) & b2u(x2 <= p2)
		pDom |= (pLE &^ xLE) << uint(i)
		domP |= (xLE &^ pLE) << uint(i)
	}
	return pDom, domP
}

// MutualBlock4 classifies both dominance directions over a 4-d block.
func MutualBlock4(p Point, lanes []float64, stride, m int) (pDom, domP uint64) {
	p0, p1, p2, p3 := p[0], p[1], p[2], p[3]
	l0 := lanes[:m]
	l1 := lanes[stride:][:m]
	l2 := lanes[2*stride:][:m]
	l3 := lanes[3*stride:][:m]
	for i := 0; i < m; i++ {
		x0, x1, x2, x3 := l0[i], l1[i], l2[i], l3[i]
		pLE := b2u(p0 <= x0) & b2u(p1 <= x1) & b2u(p2 <= x2) & b2u(p3 <= x3)
		xLE := b2u(x0 <= p0) & b2u(x1 <= p1) & b2u(x2 <= p2) & b2u(x3 <= p3)
		pDom |= (pLE &^ xLE) << uint(i)
		domP |= (xLE &^ pLE) << uint(i)
	}
	return pDom, domP
}

// MutualBlock5 classifies both dominance directions over a 5-d block.
func MutualBlock5(p Point, lanes []float64, stride, m int) (pDom, domP uint64) {
	p0, p1, p2, p3, p4 := p[0], p[1], p[2], p[3], p[4]
	l0 := lanes[:m]
	l1 := lanes[stride:][:m]
	l2 := lanes[2*stride:][:m]
	l3 := lanes[3*stride:][:m]
	l4 := lanes[4*stride:][:m]
	for i := 0; i < m; i++ {
		x0, x1, x2, x3, x4 := l0[i], l1[i], l2[i], l3[i], l4[i]
		pLE := b2u(p0 <= x0) & b2u(p1 <= x1) & b2u(p2 <= x2) & b2u(p3 <= x3) & b2u(p4 <= x4)
		xLE := b2u(x0 <= p0) & b2u(x1 <= p1) & b2u(x2 <= p2) & b2u(x3 <= p3) & b2u(x4 <= p4)
		pDom |= (pLE &^ xLE) << uint(i)
		domP |= (xLE &^ pLE) << uint(i)
	}
	return pDom, domP
}

func dominatesBlockGeneric(p Point, lanes []float64, stride, m int) uint64 {
	var mask uint64
	for i := 0; i < m; i++ {
		le, lt := uint64(1), uint64(0)
		for d := range p {
			x := lanes[d*stride+i]
			le &= b2u(p[d] <= x)
			lt |= b2u(p[d] < x)
		}
		mask |= (le & lt) << uint(i)
	}
	return mask
}

func blockDominatesGeneric(p Point, lanes []float64, stride, m int) uint64 {
	var mask uint64
	for i := 0; i < m; i++ {
		le, lt := uint64(1), uint64(0)
		for d := range p {
			x := lanes[d*stride+i]
			le &= b2u(x <= p[d])
			lt |= b2u(x < p[d])
		}
		mask |= (le & lt) << uint(i)
	}
	return mask
}

func mutualBlockGeneric(p Point, lanes []float64, stride, m int) (pDom, domP uint64) {
	for i := 0; i < m; i++ {
		pLE, xLE := uint64(1), uint64(1)
		for d := range p {
			x := lanes[d*stride+i]
			pLE &= b2u(p[d] <= x)
			xLE &= b2u(x <= p[d])
		}
		pDom |= (pLE &^ xLE) << uint(i)
		domP |= (xLE &^ pLE) << uint(i)
	}
	return pDom, domP
}
