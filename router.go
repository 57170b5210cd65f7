package pskyline

import (
	"math"
)

// Router partitions the data space across the shards of a ShardedMonitor.
//
// A Router must be TOTAL (return a shard in [0, shards) for every finite
// point and probability) and DETERMINISTIC (a pure function of its
// arguments). It does NOT have to be stable across shard counts or runs:
// the sharded design is routing-agnostic — every shard expires by global
// watermarks and the merge recomputes exact probabilities over the union —
// so changing the router or the shard count between restarts only moves
// elements between engines; answers are unchanged. The built-in routers are
// additionally rendezvous-stable: growing from n to n+1 shards only moves
// cells onto the new shard.
type Router interface {
	Route(pt []float64, prob float64, shards int) int
}

// splitmix64 is the SplitMix64 finalizer — a cheap, well-distributed
// 64-bit mixer used to fold cell coordinates into rendezvous keys.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rendezvous picks the shard with the highest hash of (key, shard) — HRW
// (highest-random-weight) placement. Growing the shard count can only move
// a key to the NEW shard (the old maxima are unchanged), which is the
// stability property FuzzShardRoute locks in.
func rendezvous(key uint64, shards int) int {
	if shards <= 1 {
		return 0
	}
	best, bestH := 0, uint64(0)
	for i := 0; i < shards; i++ {
		h := splitmix64(key ^ splitmix64(uint64(i)))
		if h > bestH {
			best, bestH = i, h
		}
	}
	return best
}

// gridCellMask keeps a float64's sign, exponent and top 6 mantissa bits:
// GridRouter's cell is one 2^-6 slice of a binade.
const gridCellMask = math.MaxUint64 &^ (1<<(52-6) - 1)

// GridRouter is the default Router: it quantizes each coordinate into a
// scale-free cell (sign, exponent and the top 6 mantissa bits of the
// float64 — so cell size adapts to the data's magnitude without any
// configuration), folds the cells into one key and places the key with
// rendezvous hashing. Nearby points tend to share cells, which keeps a
// shard's dominator factors shard-local and its candidate set small.
type GridRouter struct{}

// Route implements Router.
func (GridRouter) Route(pt []float64, prob float64, shards int) int {
	var key uint64
	for _, c := range pt {
		bits := math.Float64bits(c)
		if c == 0 {
			bits = 0 // -0 and +0 share a cell
		}
		if math.IsNaN(c) {
			bits = math.Float64bits(math.NaN()) // canonical NaN payload
		}
		bits &= gridCellMask
		key = splitmix64(key ^ splitmix64(bits))
	}
	return rendezvous(key, shards)
}

// probBands is the number of equal-width probability bins BandRouter places.
const probBands = 64

// BandRouter partitions by occurrence probability instead of location:
// element probabilities are quantized into 64 equal-width bins and each bin
// is placed with rendezvous hashing. Useful when locations are adversarial
// for grid cells but the probability mix is diverse.
type BandRouter struct{}

// Route implements Router.
func (BandRouter) Route(pt []float64, prob float64, shards int) int {
	cell := int(prob * probBands)
	if cell >= probBands {
		cell = probBands - 1
	}
	if cell < 0 || prob != prob {
		cell = 0
	}
	return rendezvous(splitmix64(uint64(cell)+1), shards)
}
