package pskyline_test

import (
	"math"
	"testing"

	"pskyline"
)

// FuzzShardRoute locks in the Router contract for both built-in routers:
// total (always in range, for any float input including NaN/Inf/-0),
// deterministic (same input, same shard), and rendezvous-stable (growing the
// shard count from n to n+1 either keeps an element in place or moves it to
// the NEW shard — never shuffles it between existing shards).
func FuzzShardRoute(f *testing.F) {
	f.Add(1.0, 2.0, 3.0, 0.5, uint8(4))
	f.Add(0.0, math.Copysign(0, -1), 1e300, 1.0, uint8(1))
	f.Add(math.NaN(), math.Inf(1), math.Inf(-1), math.NaN(), uint8(16))
	f.Add(-1e-308, 5e-324, -0.0, 0.0, uint8(7))
	f.Fuzz(func(t *testing.T, x, y, z, p float64, n uint8) {
		shards := int(n%16) + 1
		pt := []float64{x, y, z}
		routers := []pskyline.Router{
			pskyline.GridRouter{},
			pskyline.BandRouter{},
		}
		for _, r := range routers {
			got := r.Route(pt, p, shards)
			if got < 0 || got >= shards {
				t.Fatalf("%T.Route(%v, %v, %d) = %d, out of range", r, pt, p, shards, got)
			}
			if again := r.Route(pt, p, shards); again != got {
				t.Fatalf("%T not deterministic: %d then %d", r, got, again)
			}
			grown := r.Route(pt, p, shards+1)
			if grown != got && grown != shards {
				t.Fatalf("%T unstable: route(%d shards)=%d but route(%d)=%d", r, shards, got, shards+1, grown)
			}
		}
	})
}

// TestRouterSignedZeroAndNaN: -0 and +0 must share a cell (they compare
// equal, so they must dominate identically and should co-locate), and every
// NaN payload must canonicalize to one cell rather than scattering.
func TestRouterSignedZeroAndNaN(t *testing.T) {
	g := pskyline.GridRouter{}
	for shards := 1; shards <= 9; shards++ {
		if a, b := g.Route([]float64{0, 1}, 0.5, shards), g.Route([]float64{math.Copysign(0, -1), 1}, 0.5, shards); a != b {
			t.Errorf("shards=%d: +0 -> %d, -0 -> %d", shards, a, b)
		}
		n1 := math.NaN()
		n2 := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1) // different payload
		if a, b := g.Route([]float64{n1, 2}, 0.5, shards), g.Route([]float64{n2, 2}, 0.5, shards); a != b {
			t.Errorf("shards=%d: NaN payloads route to %d and %d", shards, a, b)
		}
	}
}

// TestRouterSpreads: on a diverse stream the default routers must actually
// use every shard (a constant router would be correct but useless).
func TestRouterSpreads(t *testing.T) {
	els := genShardElements(123, 2000, 3)
	for _, r := range []pskyline.Router{pskyline.GridRouter{}, pskyline.BandRouter{}} {
		const shards = 8
		var hits [shards]int
		for i := range els {
			hits[r.Route(els[i].Point, els[i].Prob, shards)]++
		}
		for i, h := range hits {
			if h == 0 {
				t.Errorf("%T: shard %d received nothing over 2000 diverse elements", r, i)
			}
		}
	}
}
