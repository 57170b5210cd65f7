package geom

import (
	"math/rand"
	"testing"
)

// tiePoint draws coordinates from a tiny alphabet so ties, shared corners
// and exact equality occur constantly — the cases where a sloppy kernel
// would diverge from the generic loops.
func tiePoint(rng *rand.Rand, dims int) Point {
	p := make(Point, dims)
	for i := range p {
		p[i] = float64(rng.Intn(3))
	}
	return p
}

func densePoint(rng *rand.Rand, dims int) Point {
	p := make(Point, dims)
	for i := range p {
		p[i] = rng.Float64()
	}
	return p
}

// randRect builds a valid rectangle (Min ⪯ Max on every dimension) from two
// sampled corners.
func randRect(rng *rand.Rand, dims int, sample func(*rand.Rand, int) Point) Rect {
	a, b := sample(rng, dims), sample(rng, dims)
	r := Rect{Min: make(Point, dims), Max: make(Point, dims)}
	for i := 0; i < dims; i++ {
		r.Min[i], r.Max[i] = a[i], b[i]
		if r.Min[i] > r.Max[i] {
			r.Min[i], r.Max[i] = r.Max[i], r.Min[i]
		}
	}
	return r
}

// dominatesFor returns the unrolled point-dominance test for d = 2–5 (the
// building blocks of the unrolled RectRect kernels), nil otherwise.
func dominatesFor(dims int) func(p, q Point) bool {
	switch dims {
	case 2:
		return Dominates2
	case 3:
		return Dominates3
	case 4:
		return Dominates4
	case 5:
		return Dominates5
	}
	return nil
}

func TestKernelsMatchGeneric(t *testing.T) {
	for dims := 1; dims <= 7; dims++ {
		k := KernelsFor(dims)
		if k.Dims != dims {
			t.Fatalf("KernelsFor(%d).Dims = %d", dims, k.Dims)
		}
		dominates := dominatesFor(dims)
		rng := rand.New(rand.NewSource(int64(100 + dims)))
		for iter := 0; iter < 20_000; iter++ {
			sample := densePoint
			if iter%2 == 1 {
				sample = tiePoint
			}
			p, q := sample(rng, dims), sample(rng, dims)
			if iter%7 == 0 {
				q = p.Clone() // force exact equality
			}
			if dominates != nil {
				if got, want := dominates(p, q), p.Dominates(q); got != want {
					t.Fatalf("d=%d Dominates%d(%v, %v) = %v, want %v", dims, dims, p, q, got, want)
				}
			}

			r := randRect(rng, dims, sample)
			if iter%11 == 0 {
				r = PointRect(p).Clone() // degenerate rect sharing p's corner
			}
			gotDom, gotSub := k.ClassifyPoint(r, p)
			wantDom, wantSub := ClassifyPoint(r, p)
			if gotDom != wantDom || gotSub != wantSub {
				t.Fatalf("d=%d ClassifyPoint(%v, %v) = %v,%v want %v,%v",
					dims, r, p, gotDom, gotSub, wantDom, wantSub)
			}
			if got, want := k.PointRect(p, r), Dominance(PointRect(p), r); got != want {
				t.Fatalf("d=%d PointRect(%v, %v) = %v, want %v", dims, p, r, got, want)
			}
			if got, want := PointRectRelation(p, r), Dominance(PointRect(p), r); got != want {
				t.Fatalf("d=%d PointRectRelation(%v, %v) = %v, want %v", dims, p, r, got, want)
			}

			s := randRect(rng, dims, sample)
			if got, want := k.RectRect(r, s), Dominance(r, s); got != want {
				t.Fatalf("d=%d RectRect(%v, %v) = %v, want %v", dims, r, s, got, want)
			}
		}
	}
}

// TestKernelsExhaustive2D sweeps every 2-d point/rect combination over a
// small grid: complete coverage of the tie structure for the smallest
// specialized dimensionality.
func TestKernelsExhaustive2D(t *testing.T) {
	k := KernelsFor(2)
	vals := []float64{0, 1, 2}
	var pts []Point
	for _, x := range vals {
		for _, y := range vals {
			pts = append(pts, Point{x, y})
		}
	}
	var rects []Rect
	for _, lo := range pts {
		for _, hi := range pts {
			if lo[0] <= hi[0] && lo[1] <= hi[1] {
				rects = append(rects, Rect{Min: lo, Max: hi})
			}
		}
	}
	for _, p := range pts {
		for _, q := range pts {
			if got, want := Dominates2(p, q), p.Dominates(q); got != want {
				t.Fatalf("Dominates2(%v, %v) = %v, want %v", p, q, got, want)
			}
		}
		for _, r := range rects {
			gotDom, gotSub := k.ClassifyPoint(r, p)
			wantDom, wantSub := ClassifyPoint(r, p)
			if gotDom != wantDom || gotSub != wantSub {
				t.Fatalf("ClassifyPoint(%v, %v) = %v,%v want %v,%v", r, p, gotDom, gotSub, wantDom, wantSub)
			}
			if got, want := k.PointRect(p, r), Dominance(PointRect(p), r); got != want {
				t.Fatalf("PointRect(%v, %v) = %v, want %v", p, r, got, want)
			}
		}
	}
	for _, a := range rects {
		for _, b := range rects {
			if got, want := k.RectRect(a, b), Dominance(a, b); got != want {
				t.Fatalf("RectRect(%v, %v) = %v, want %v", a, b, got, want)
			}
		}
	}
}

func benchPoints(dims, n int) []Point {
	rng := rand.New(rand.NewSource(7))
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = densePoint(rng, dims)
	}
	return pts
}

func BenchmarkMutualGeneric(b *testing.B) {
	pts := benchPoints(3, 1024)
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		a, c := pts[i%1024], pts[(i*31+7)%1024]
		x, y := MutualDominance(a, c)
		if x {
			sink++
		}
		if y {
			sink--
		}
	}
	if sink > b.N {
		b.Fatal("impossible")
	}
}

func BenchmarkClassifyPointGeneric(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	rects := make([]Rect, 256)
	for i := range rects {
		rects[i] = randRect(rng, 3, densePoint)
	}
	pts := benchPoints(3, 1024)
	b.ResetTimer()
	sink := Relation(0)
	for i := 0; i < b.N; i++ {
		d, s := ClassifyPoint(rects[i%256], pts[i%1024])
		sink += d + s
	}
	_ = sink
}

func BenchmarkClassifyPointKernel3(b *testing.B) {
	k := KernelsFor(3)
	rng := rand.New(rand.NewSource(9))
	rects := make([]Rect, 256)
	for i := range rects {
		rects[i] = randRect(rng, 3, densePoint)
	}
	pts := benchPoints(3, 1024)
	b.ResetTimer()
	sink := Relation(0)
	for i := 0; i < b.N; i++ {
		d, s := k.ClassifyPoint(rects[i%256], pts[i%1024])
		sink += d + s
	}
	_ = sink
}
