package aggrtree

import "math"

// Leaf coordinate blocks.
//
// Each leaf mirrors its items' coordinates into a packed structure-of-arrays
// block: one contiguous float64 lane per dimension, item i's coordinate for
// dimension d at blk[d*blkStride+i]. The probe hot loops of the engine scan
// the block with the geom block kernels — dims short sequential runs per
// leaf — instead of dereferencing one *Item (one cache line) per element.
// Items keep their Point slices untouched; the block is a maintained copy,
// valid because coordinates are immutable while an item is attached.
//
// The block is maintained on the same two mutations that maintain the items
// slice: attachItem writes item i's lanes at index len(items) before the
// append, and detachItem copies each lane down over the removed slot,
// exactly mirroring the order-preserving item removal. splitNode's restage
// (truncate + re-attach) and pool recycling (truncate) therefore need no
// extra work: lane slots past len(items) are dead and overwritten by the
// next attach. Lane storage is retained across pool recycling, so the
// steady-state churn of the sliding window allocates nothing here.

// blkInitialStride is the first lane capacity a leaf allocates: enough for
// DefaultMaxEntries plus the transient overflow entry held between an
// insertion and the split it triggers.
const blkInitialStride = 16

// blockEnsure makes room for one more item's coordinates, growing (and
// re-packing) the lanes when the stride is exhausted.
func (n *Node) blockEnsure(dims int) {
	m := len(n.items)
	if n.blk != nil && m < n.blkStride && len(n.blk) == dims*n.blkStride {
		return
	}
	stride := n.blkStride * 2
	if stride < blkInitialStride {
		stride = blkInitialStride
	}
	for stride <= m {
		stride *= 2
	}
	blk := make([]float64, dims*stride)
	for d := 0; d < dims; d++ {
		copy(blk[d*stride:], n.blk[d*n.blkStride:d*n.blkStride+min(m, n.blkStride)])
	}
	n.blk = blk
	n.blkStride = stride
}

// blockAppend writes it's coordinates into lane slot len(n.items); the
// caller appends the item right after.
func (n *Node) blockAppend(it *Item) {
	dims := len(it.Point)
	n.blockEnsure(dims)
	i := len(n.items)
	for d, v := range it.Point {
		n.blk[d*n.blkStride+i] = v
	}
}

// blockRemove deletes lane slot i, shifting later slots down to mirror the
// items slice removal. m is the item count before the removal.
func (n *Node) blockRemove(i, m int) {
	if n.blk == nil {
		return
	}
	dims := len(n.blk) / n.blkStride
	for d := 0; d < dims; d++ {
		lane := n.blk[d*n.blkStride:]
		copy(lane[i:], lane[i+1:m])
	}
}

// Block exposes the leaf's coordinate lanes for block-kernel scans: lane d
// covers lanes[d*stride : d*stride+len(Items())]. The caller must not
// mutate the slice. A leaf that never held an item has nil lanes and stride
// 0, which scan as an empty block. New caps the fanout so that a leaf,
// overflow item included, never outgrows one kernel mask.
func (n *Node) Block() (lanes []float64, stride int) {
	return n.blk, n.blkStride
}

// blockPoison clobbers the lane storage of a freed node so a stale scan
// through a recycled leaf reads NaNs instead of plausible coordinates.
func (n *Node) blockPoison() {
	for i := range n.blk {
		n.blk[i] = math.NaN()
	}
}
