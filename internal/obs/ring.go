package obs

import "sync/atomic"

// Ring is a bounded lock-free ring of fixed-size records: one writer
// records, any number of readers collect without ever blocking it.
//
// Each slot is a seqlock of uint64 words: a version word followed by the
// record's payload words. The writer bumps the version to odd, stores the
// payload, bumps the version to the next even value, and only then advances
// the ring's record count. A reader accepts a slot only when it observes the
// same even version before and after loading the payload, so a record
// overwritten mid-read is skipped rather than returned torn. Every word is
// an atomic, so concurrent access is well-defined for the race detector too
// — the versions add cross-word consistency on top.
//
// Recording is allocation-free: the record is encoded into a writer-owned
// scratch and stored as a fixed run of atomic stores into preallocated
// slots. The record type supplies only its word encoding; it is passed by
// value, so recording never makes the caller's record escape.
type Ring[T any] struct {
	mask   uint64
	stride int           // words per slot: version + payload
	n      atomic.Uint64 // total records ever written
	words  []atomic.Uint64
	buf    []uint64 // the writer's encode scratch
	encode func(T, []uint64)
	decode func([]uint64) T
}

// NewRing returns a ring holding the last depth records (rounded up to a
// power of two, minimum 1) of `words` payload words each. encode fills a
// record's words; decode rebuilds the record from them.
func NewRing[T any](depth, words int, encode func(T, []uint64), decode func([]uint64) T) *Ring[T] {
	slots := 1
	for slots < depth {
		slots <<= 1
	}
	return &Ring[T]{
		mask:   uint64(slots - 1),
		stride: 1 + words,
		words:  make([]atomic.Uint64, slots*(1+words)),
		buf:    make([]uint64, words),
		encode: encode,
		decode: decode,
	}
}

func (r *Ring[T]) slot(pos uint64) []atomic.Uint64 {
	i := int(pos&r.mask) * r.stride
	return r.words[i : i+r.stride]
}

// Record appends one record. Single writer only; never allocates.
func (r *Ring[T]) Record(v T) {
	r.encode(v, r.buf)
	pos := r.n.Load()
	s := r.slot(pos)
	ver := s[0].Load()
	s[0].Store(ver + 1)
	for i, w := range r.buf {
		s[1+i].Store(w)
	}
	s[0].Store(ver + 2)
	r.n.Store(pos + 1)
}

// Collect decodes the ring's current contents, oldest first. Records being
// overwritten concurrently are skipped; everything returned is complete and
// untorn.
func (r *Ring[T]) Collect() []T {
	n := r.n.Load()
	start := uint64(0)
	if depth := r.mask + 1; n > depth {
		start = n - depth
	}
	out := make([]T, 0, n-start)
	w := make([]uint64, r.stride-1)
	for pos := start; pos < n; pos++ {
		s := r.slot(pos)
		ver := s[0].Load()
		if ver&1 == 1 {
			continue
		}
		for i := range w {
			w[i] = s[1+i].Load()
		}
		if s[0].Load() != ver {
			continue // overwritten while loading
		}
		out = append(out, r.decode(w))
	}
	return out
}
