package geom

// Dimension-specialized dominance kernels.
//
// The probe descents of the skyline engine classify entries with three
// primitives: entry-vs-point, point-vs-entry and entry-vs-entry. (Leaf items
// are scanned by the block kernels in blocks.go.) The generic
// implementations loop over the dimensions with bounds checks and flag
// updates; for the low dimensionalities the paper evaluates (d = 2–5) a
// fully unrolled form with hoisted loads is substantially faster. A Kernels
// value bundles the three primitives for one dimensionality; KernelsFor
// selects the unrolled set for d = 2–5 and falls back to the generic loops
// otherwise.
//
// All kernels are pure comparison networks — no floating-point arithmetic —
// so the specialized and generic forms return identical results on every
// input, including ties and shared corners (verified exhaustively by the
// differential tests in kernels_test.go). Callers must pass points of
// exactly Dims coordinates and rectangles of Dims dimensions; unlike the
// generic Point.Dominates, the kernels do not tolerate mismatched lengths.
type Kernels struct {
	// Dims is the dimensionality the kernel set was built for.
	Dims int
	// ClassifyPoint computes Dominance(r, {p}) and Dominance({p}, r) in one
	// pass (the specialized ClassifyPoint).
	ClassifyPoint func(r Rect, p Point) (dom, sub Relation)
	// PointRect computes Dominance({p}, r) alone — the expiry-probe
	// classification.
	PointRect func(p Point, r Rect) Relation
	// RectRect computes Dominance(a, b).
	RectRect func(a, b Rect) Relation
}

// KernelsFor returns the dominance kernel set for the given dimensionality:
// unrolled kernels for d = 2–5, the generic loops otherwise.
func KernelsFor(dims int) *Kernels {
	switch dims {
	case 2:
		return &Kernels{Dims: 2, ClassifyPoint: classifyPoint2, PointRect: pointRect2, RectRect: rectRect2}
	case 3:
		return &Kernels{Dims: 3, ClassifyPoint: classifyPoint3, PointRect: pointRect3, RectRect: rectRect3}
	case 4:
		return &Kernels{Dims: 4, ClassifyPoint: classifyPoint4, PointRect: pointRect4, RectRect: rectRect4}
	case 5:
		return &Kernels{Dims: 5, ClassifyPoint: classifyPoint5, PointRect: pointRect5, RectRect: rectRect5}
	default:
		return &Kernels{Dims: dims, ClassifyPoint: ClassifyPoint,
			PointRect: PointRectRelation, RectRect: Dominance}
	}
}

// PointRectRelation computes Dominance(PointRect(p), r) in a single pass:
// DomFull when p dominates r.Min, DomPartial when p only dominates r.Max,
// DomNone otherwise. It is the generic form of the expiry-probe kernel.
func PointRectRelation(p Point, r Rect) Relation {
	minLE, minLT := true, false // p ⪯ r.Min, strictly on some dim
	maxLE, maxLT := true, false // p ⪯ r.Max
	for i := range p {
		v, lo, hi := p[i], r.Min[i], r.Max[i]
		if v > lo {
			minLE = false
		} else if v < lo {
			minLT = true
		}
		if v > hi {
			maxLE = false
		} else if v < hi {
			maxLT = true
		}
		if !minLE && !maxLE {
			return DomNone
		}
	}
	if minLE && minLT {
		return DomFull
	}
	if maxLE && maxLT {
		return DomPartial
	}
	return DomNone
}

// Dominates2..Dominates5 are the dimension-specialized dominance tests: the
// building blocks of the unrolled entry-vs-entry kernels (rectRect2..5).

// Dominates2 reports p ≺ q for 2-dimensional points.
func Dominates2(p, q Point) bool {
	_, _ = p[1], q[1] // bounds-check hint
	p0, p1 := p[0], p[1]
	q0, q1 := q[0], q[1]
	return p0 <= q0 && p1 <= q1 && (p0 < q0 || p1 < q1)
}

// Dominates3 reports p ≺ q for 3-dimensional points.
func Dominates3(p, q Point) bool {
	_, _ = p[2], q[2] // bounds-check hint
	p0, p1, p2 := p[0], p[1], p[2]
	q0, q1, q2 := q[0], q[1], q[2]
	return p0 <= q0 && p1 <= q1 && p2 <= q2 && (p0 < q0 || p1 < q1 || p2 < q2)
}

// Dominates4 reports p ≺ q for 4-dimensional points.
func Dominates4(p, q Point) bool {
	p0, p1, p2, p3 := p[0], p[1], p[2], p[3]
	q0, q1, q2, q3 := q[0], q[1], q[2], q[3]
	return p0 <= q0 && p1 <= q1 && p2 <= q2 && p3 <= q3 &&
		(p0 < q0 || p1 < q1 || p2 < q2 || p3 < q3)
}

// Dominates5 reports p ≺ q for 5-dimensional points.
func Dominates5(p, q Point) bool {
	p0, p1, p2, p3, p4 := p[0], p[1], p[2], p[3], p[4]
	q0, q1, q2, q3, q4 := q[0], q[1], q[2], q[3], q[4]
	return p0 <= q0 && p1 <= q1 && p2 <= q2 && p3 <= q3 && p4 <= q4 &&
		(p0 < q0 || p1 < q1 || p2 < q2 || p3 < q3 || p4 < q4)
}

// The unrolled classifiers compare p against each rect corner only twice per
// dimension. With gLo = "p above r.Min somewhere", lLo = "p below r.Min
// somewhere" (and gHi/lHi against r.Max), the four corner relations reduce
// to:
//
//	r.Max ⪯ p (dom full):     !lHi, strict iff gHi
//	r.Min ⪯ p (dom partial):  !lLo, strict iff gLo
//	p ⪯ r.Min (sub full):     !gLo, strict iff lLo
//	p ⪯ r.Max (sub partial):  !gHi, strict iff lHi
//
// relFromAny folds them into the two Relations. The per-dimension flags are
// folded with integer or (b2u compiles to SETcc) instead of short-circuit
// chains: on shuffled stream data each comparison is close to a coin flip,
// so branch-free folding beats the predictor.
func relFromAny(gFull, lFull, gPart, lPart uint64) Relation {
	if gFull&^lFull != 0 {
		return DomFull
	}
	if gPart&^lPart != 0 {
		return DomPartial
	}
	return DomNone
}

// ClassifyPoint2 computes both dominance relations between a 2-d entry and a
// point in one pass — the unrolled ClassifyPoint, exported so descent loops
// that know their dimensionality avoid the indirect call through Kernels.
func ClassifyPoint2(r Rect, p Point) (dom, sub Relation) {
	_, _, _ = p[1], r.Min[1], r.Max[1] // bounds-check hint
	p0, p1 := p[0], p[1]
	lo0, lo1 := r.Min[0], r.Min[1]
	hi0, hi1 := r.Max[0], r.Max[1]
	gLo := b2u(p0 > lo0) | b2u(p1 > lo1)
	lLo := b2u(p0 < lo0) | b2u(p1 < lo1)
	gHi := b2u(p0 > hi0) | b2u(p1 > hi1)
	lHi := b2u(p0 < hi0) | b2u(p1 < hi1)
	return relFromAny(gHi, lHi, gLo, lLo), relFromAny(lLo, gLo, lHi, gHi)
}

// ClassifyPoint3 is the 3-d ClassifyPoint2.
func ClassifyPoint3(r Rect, p Point) (dom, sub Relation) {
	_, _, _ = p[2], r.Min[2], r.Max[2] // bounds-check hint
	p0, p1, p2 := p[0], p[1], p[2]
	lo0, lo1, lo2 := r.Min[0], r.Min[1], r.Min[2]
	hi0, hi1, hi2 := r.Max[0], r.Max[1], r.Max[2]
	gLo := b2u(p0 > lo0) | b2u(p1 > lo1) | b2u(p2 > lo2)
	lLo := b2u(p0 < lo0) | b2u(p1 < lo1) | b2u(p2 < lo2)
	gHi := b2u(p0 > hi0) | b2u(p1 > hi1) | b2u(p2 > hi2)
	lHi := b2u(p0 < hi0) | b2u(p1 < hi1) | b2u(p2 < hi2)
	return relFromAny(gHi, lHi, gLo, lLo), relFromAny(lLo, gLo, lHi, gHi)
}

func classifyPoint2(r Rect, p Point) (dom, sub Relation) { return ClassifyPoint2(r, p) }
func classifyPoint3(r Rect, p Point) (dom, sub Relation) { return ClassifyPoint3(r, p) }

func classifyPoint4(r Rect, p Point) (dom, sub Relation) {
	p0, p1, p2, p3 := p[0], p[1], p[2], p[3]
	lo0, lo1, lo2, lo3 := r.Min[0], r.Min[1], r.Min[2], r.Min[3]
	hi0, hi1, hi2, hi3 := r.Max[0], r.Max[1], r.Max[2], r.Max[3]
	gLo := b2u(p0 > lo0) | b2u(p1 > lo1) | b2u(p2 > lo2) | b2u(p3 > lo3)
	lLo := b2u(p0 < lo0) | b2u(p1 < lo1) | b2u(p2 < lo2) | b2u(p3 < lo3)
	gHi := b2u(p0 > hi0) | b2u(p1 > hi1) | b2u(p2 > hi2) | b2u(p3 > hi3)
	lHi := b2u(p0 < hi0) | b2u(p1 < hi1) | b2u(p2 < hi2) | b2u(p3 < hi3)
	return relFromAny(gHi, lHi, gLo, lLo), relFromAny(lLo, gLo, lHi, gHi)
}

func classifyPoint5(r Rect, p Point) (dom, sub Relation) {
	p0, p1, p2, p3, p4 := p[0], p[1], p[2], p[3], p[4]
	lo0, lo1, lo2, lo3, lo4 := r.Min[0], r.Min[1], r.Min[2], r.Min[3], r.Min[4]
	hi0, hi1, hi2, hi3, hi4 := r.Max[0], r.Max[1], r.Max[2], r.Max[3], r.Max[4]
	gLo := b2u(p0 > lo0) | b2u(p1 > lo1) | b2u(p2 > lo2) | b2u(p3 > lo3) | b2u(p4 > lo4)
	lLo := b2u(p0 < lo0) | b2u(p1 < lo1) | b2u(p2 < lo2) | b2u(p3 < lo3) | b2u(p4 < lo4)
	gHi := b2u(p0 > hi0) | b2u(p1 > hi1) | b2u(p2 > hi2) | b2u(p3 > hi3) | b2u(p4 > hi4)
	lHi := b2u(p0 < hi0) | b2u(p1 < hi1) | b2u(p2 < hi2) | b2u(p3 < hi3) | b2u(p4 < hi4)
	return relFromAny(gHi, lHi, gLo, lLo), relFromAny(lLo, gLo, lHi, gHi)
}

func pointRect2(p Point, r Rect) Relation {
	p0, p1 := p[0], p[1]
	lo0, lo1 := r.Min[0], r.Min[1]
	if p0 <= lo0 && p1 <= lo1 && (p0 < lo0 || p1 < lo1) {
		return DomFull
	}
	hi0, hi1 := r.Max[0], r.Max[1]
	if p0 <= hi0 && p1 <= hi1 && (p0 < hi0 || p1 < hi1) {
		return DomPartial
	}
	return DomNone
}

func pointRect3(p Point, r Rect) Relation {
	p0, p1, p2 := p[0], p[1], p[2]
	lo0, lo1, lo2 := r.Min[0], r.Min[1], r.Min[2]
	if p0 <= lo0 && p1 <= lo1 && p2 <= lo2 && (p0 < lo0 || p1 < lo1 || p2 < lo2) {
		return DomFull
	}
	hi0, hi1, hi2 := r.Max[0], r.Max[1], r.Max[2]
	if p0 <= hi0 && p1 <= hi1 && p2 <= hi2 && (p0 < hi0 || p1 < hi1 || p2 < hi2) {
		return DomPartial
	}
	return DomNone
}

func pointRect4(p Point, r Rect) Relation {
	p0, p1, p2, p3 := p[0], p[1], p[2], p[3]
	lo0, lo1, lo2, lo3 := r.Min[0], r.Min[1], r.Min[2], r.Min[3]
	if p0 <= lo0 && p1 <= lo1 && p2 <= lo2 && p3 <= lo3 &&
		(p0 < lo0 || p1 < lo1 || p2 < lo2 || p3 < lo3) {
		return DomFull
	}
	hi0, hi1, hi2, hi3 := r.Max[0], r.Max[1], r.Max[2], r.Max[3]
	if p0 <= hi0 && p1 <= hi1 && p2 <= hi2 && p3 <= hi3 &&
		(p0 < hi0 || p1 < hi1 || p2 < hi2 || p3 < hi3) {
		return DomPartial
	}
	return DomNone
}

func pointRect5(p Point, r Rect) Relation {
	p0, p1, p2, p3, p4 := p[0], p[1], p[2], p[3], p[4]
	lo0, lo1, lo2, lo3, lo4 := r.Min[0], r.Min[1], r.Min[2], r.Min[3], r.Min[4]
	if p0 <= lo0 && p1 <= lo1 && p2 <= lo2 && p3 <= lo3 && p4 <= lo4 &&
		(p0 < lo0 || p1 < lo1 || p2 < lo2 || p3 < lo3 || p4 < lo4) {
		return DomFull
	}
	hi0, hi1, hi2, hi3, hi4 := r.Max[0], r.Max[1], r.Max[2], r.Max[3], r.Max[4]
	if p0 <= hi0 && p1 <= hi1 && p2 <= hi2 && p3 <= hi3 && p4 <= hi4 &&
		(p0 < hi0 || p1 < hi1 || p2 < hi2 || p3 < hi3 || p4 < hi4) {
		return DomPartial
	}
	return DomNone
}

func rectRect2(a, b Rect) Relation {
	if Dominates2(a.Max, b.Min) {
		return DomFull
	}
	if Dominates2(a.Min, b.Max) {
		return DomPartial
	}
	return DomNone
}

func rectRect3(a, b Rect) Relation {
	if Dominates3(a.Max, b.Min) {
		return DomFull
	}
	if Dominates3(a.Min, b.Max) {
		return DomPartial
	}
	return DomNone
}

func rectRect4(a, b Rect) Relation {
	if Dominates4(a.Max, b.Min) {
		return DomFull
	}
	if Dominates4(a.Min, b.Max) {
		return DomPartial
	}
	return DomNone
}

func rectRect5(a, b Rect) Relation {
	if Dominates5(a.Max, b.Min) {
		return DomFull
	}
	if Dominates5(a.Min, b.Max) {
		return DomPartial
	}
	return DomNone
}
