package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"pskyline/internal/geom"
	"pskyline/internal/naive"
)

// diffConfig describes one differential-testing scenario: the aggregate
// R-tree engine, the paper's trivial baseline and the exact full-window
// oracle process the same stream and must agree.
type diffConfig struct {
	name       string
	dims       int
	window     int
	thresholds []float64
	n          int
	checkEvery int
	genPoint   func(r *rand.Rand, dims int) geom.Point
	genProb    func(r *rand.Rand) float64
	fanout     int
}

func uniformPoint(r *rand.Rand, dims int) geom.Point {
	p := make(geom.Point, dims)
	for i := range p {
		p[i] = r.Float64()
	}
	return p
}

// gridPoint draws coordinates from a tiny integer grid, forcing massive
// duplication and per-dimension ties.
func gridPoint(r *rand.Rand, dims int) geom.Point {
	p := make(geom.Point, dims)
	for i := range p {
		p[i] = float64(r.Intn(4))
	}
	return p
}

// antiPoint places points near the anti-diagonal hyperplane Σx = 1, the
// skyline-hostile distribution of the evaluation section.
func antiPoint(r *rand.Rand, dims int) geom.Point {
	p := make(geom.Point, dims)
	c := r.NormFloat64()*0.12 + 1.0/float64(dims)
	for i := range p {
		p[i] = c + r.NormFloat64()*0.05
	}
	// Redistribute mass between dimensions, keeping the sum roughly fixed.
	for i := 0; i < dims-1; i++ {
		d := (r.Float64() - 0.5) * 0.4
		p[i] += d
		p[i+1] -= d
	}
	return p
}

func uniformProb(r *rand.Rand) float64 { return 1 - r.Float64() } // (0, 1]

// lowProb keeps occurrence probabilities small, inflating the candidate set
// (many weak dominators are needed before Pnew crosses the threshold).
func lowProb(r *rand.Rand) float64 { return 0.02 + 0.2*r.Float64() }

// clusterPoint draws from three fixed Gaussian clusters, stressing MBB
// overlap.
func clusterPoint(r *rand.Rand, dims int) geom.Point {
	centers := [][]float64{{0.2, 0.7, 0.4, 0.1, 0.9}, {0.8, 0.3, 0.6, 0.5, 0.2}, {0.5, 0.5, 0.1, 0.8, 0.6}}
	c := centers[r.Intn(3)]
	p := make(geom.Point, dims)
	for i := range p {
		p[i] = c[i] + r.NormFloat64()*0.06
	}
	return p
}

// spikyProb mixes exact ones (zero factors) with small probabilities.
func spikyProb(r *rand.Rand) float64 {
	switch r.Intn(4) {
	case 0:
		return 1.0
	case 1:
		return 0.05 + 0.1*r.Float64()
	default:
		return 1 - r.Float64()
	}
}

func TestDifferential(t *testing.T) {
	configs := []diffConfig{
		{name: "2d-uniform", dims: 2, window: 64, thresholds: []float64{0.3}, n: 700, checkEvery: 7, genPoint: uniformPoint, genProb: uniformProb},
		{name: "3d-uniform-q5", dims: 3, window: 100, thresholds: []float64{0.5}, n: 800, checkEvery: 11, genPoint: uniformPoint, genProb: uniformProb},
		{name: "4d-uniform", dims: 4, window: 48, thresholds: []float64{0.3}, n: 500, checkEvery: 9, genPoint: uniformPoint, genProb: uniformProb},
		{name: "2d-anti", dims: 2, window: 80, thresholds: []float64{0.3}, n: 700, checkEvery: 10, genPoint: antiPoint, genProb: uniformProb},
		{name: "3d-anti-small-fanout", dims: 3, window: 60, thresholds: []float64{0.25}, n: 600, checkEvery: 8, genPoint: antiPoint, genProb: uniformProb, fanout: 4},
		{name: "2d-multi-threshold", dims: 2, window: 40, thresholds: []float64{0.9, 0.6, 0.3}, n: 650, checkEvery: 7, genPoint: uniformPoint, genProb: uniformProb},
		{name: "2d-grid-ties-spiky", dims: 2, window: 32, thresholds: []float64{0.4}, n: 600, checkEvery: 5, genPoint: gridPoint, genProb: spikyProb},
		{name: "3d-grid-ties", dims: 3, window: 40, thresholds: []float64{0.35, 0.2}, n: 600, checkEvery: 6, genPoint: gridPoint, genProb: spikyProb},
		{name: "1d-degenerate", dims: 1, window: 50, thresholds: []float64{0.3}, n: 400, checkEvery: 5, genPoint: uniformPoint, genProb: uniformProb},
		{name: "5d-uniform", dims: 5, window: 40, thresholds: []float64{0.3}, n: 400, checkEvery: 9, genPoint: uniformPoint, genProb: uniformProb},
		{name: "2d-churn-tiny-fanout", dims: 2, window: 90, thresholds: []float64{0.7, 0.4, 0.2}, n: 1200, checkEvery: 13, genPoint: gridPoint, genProb: spikyProb, fanout: 4},
		{name: "3d-certain-heavy", dims: 3, window: 70, thresholds: []float64{0.5, 0.25}, n: 900, checkEvery: 11, genPoint: antiPoint, genProb: spikyProb, fanout: 4},
		{name: "2d-low-prob", dims: 2, window: 60, thresholds: []float64{0.05}, n: 700, checkEvery: 9, genPoint: uniformPoint, genProb: lowProb},
		{name: "3d-clustered", dims: 3, window: 70, thresholds: []float64{0.3}, n: 700, checkEvery: 9, genPoint: clusterPoint, genProb: uniformProb},
		// d = 6 runs the generic block kernels; the unrolled ones stop at 5.
		{name: "6d-anti", dims: 6, window: 60, thresholds: []float64{0.3}, n: 500, checkEvery: 9, genPoint: antiPoint, genProb: uniformProb},
		// The widest fanout NewEngine accepts: full leaves of 63 items scan
		// with every mask bit but the top one live, and an insertion's
		// overflow item grows a leaf to 64 before its split.
		{name: "2d-anti-fanout-63", dims: 2, window: 400, thresholds: []float64{0.5, 0.02}, n: 1600, checkEvery: 40, genPoint: antiPoint, genProb: lowProb, fanout: 63},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			t.Parallel()
			runDifferential(t, cfg, 42)
		})
	}
}

func runDifferential(t *testing.T, cfg diffConfig, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	eng, err := NewEngine(Options{
		Dims: cfg.dims, Window: cfg.window,
		Thresholds: cfg.thresholds, MaxEntries: cfg.fanout,
	})
	if err != nil {
		t.Fatal(err)
	}
	qMin := cfg.thresholds[len(cfg.thresholds)-1]
	for i, q := range cfg.thresholds {
		for j := i + 1; j < len(cfg.thresholds); j++ {
			if cfg.thresholds[j] < q {
				q = cfg.thresholds[j]
			}
		}
		qMin = math.Min(qMin, q)
	}
	triv := naive.NewTrivial(cfg.window, qMin)
	exact := naive.NewExact(cfg.window)

	for i := 0; i < cfg.n; i++ {
		pt := cfg.genPoint(r, cfg.dims)
		p := cfg.genProb(r)
		if _, err := eng.Push(pt, p, int64(i)); err != nil {
			t.Fatalf("step %d: push: %v", i, err)
		}
		triv.Push(pt, p)
		exact.Push(pt, p)
		if (i+1)%cfg.checkEvery == 0 || i == cfg.n-1 {
			if err := compareAll(eng, triv, exact, cfg.thresholds, qMin, r); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}
}

// compareAll cross-checks the three implementations.
func compareAll(eng *Engine, triv *naive.Trivial, exact *naive.Exact, thresholds []float64, qMin float64, r *rand.Rand) error {
	if err := eng.CheckInvariants(); err != nil {
		return fmt.Errorf("engine invariants: %w", err)
	}

	// Candidate sets must be identical across all three.
	engCands := eng.Candidates()
	engSeqs := make([]uint64, len(engCands))
	for i, c := range engCands {
		engSeqs[i] = c.Seq
	}
	trivSeqs := make([]uint64, 0, triv.Size())
	for _, e := range triv.Elems() {
		trivSeqs = append(trivSeqs, e.Seq)
	}
	sort.Slice(trivSeqs, func(a, b int) bool { return trivSeqs[a] < trivSeqs[b] })
	if err := equalSeqs("engine vs trivial candidates", engSeqs, trivSeqs); err != nil {
		return err
	}
	if err := equalSeqs("engine vs exact candidates", engSeqs, exact.Candidates(qMin)); err != nil {
		return err
	}

	// Probabilities per candidate: engine vs trivial (identical restricted
	// semantics) and engine Pnew vs the exact unrestricted Pnew (Theorem 2).
	trivBySeq := map[uint64]*naive.TrivialElem{}
	for _, e := range triv.Elems() {
		trivBySeq[e.Seq] = e
	}
	exactBySeq := map[uint64]naive.Probs{}
	for _, p := range exact.All() {
		exactBySeq[p.Seq] = p
	}
	restrBySeq := map[uint64]naive.Probs{}
	for _, p := range exact.RestrictedAll(qMin) {
		restrBySeq[p.Seq] = p
	}
	for _, c := range engCands {
		te := trivBySeq[c.Seq]
		if !feq(c.Pnew, te.Pnew.Float()) || !feq(c.Pold, te.Pold.Float()) {
			return fmt.Errorf("seq %d: engine (pnew=%g pold=%g) vs trivial (pnew=%g pold=%g)",
				c.Seq, c.Pnew, c.Pold, te.Pnew.Float(), te.Pold.Float())
		}
		xe := exactBySeq[c.Seq]
		if !feq(c.Pnew, xe.Pnew.Float()) {
			return fmt.Errorf("seq %d: engine pnew %g vs exact unrestricted %g (Theorem 2)",
				c.Seq, c.Pnew, xe.Pnew.Float())
		}
		re := restrBySeq[c.Seq]
		if !feq(c.Pold, re.Pold.Float()) {
			return fmt.Errorf("seq %d: engine pold %g vs exact restricted %g",
				c.Seq, c.Pold, re.Pold.Float())
		}
	}

	// Skylines: for each maintained threshold and a couple of ad-hoc
	// thresholds, the engine must agree with the exact oracle's
	// unrestricted classification (Corollaries 1 and 2).
	queryQs := append([]float64(nil), thresholds...)
	queryQs = append(queryQs, qMin+(1-qMin)*r.Float64(), qMin+(1-qMin)*r.Float64())
	for _, q := range queryQs {
		res, err := eng.Query(q)
		if err != nil {
			return err
		}
		got := make([]uint64, len(res))
		for i, re := range res {
			got[i] = re.Seq
		}
		sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
		if err := equalSeqs(fmt.Sprintf("skyline q=%v", q), got, exact.Skyline(q)); err != nil {
			return err
		}
		// Reported Psky of skyline members equals the unrestricted value
		// (Corollary 1).
		for _, re := range res {
			if !feq(re.Psky, exactBySeq[re.Seq].Psky.Float()) {
				return fmt.Errorf("skyline q=%v seq %d: psky %g vs exact %g",
					q, re.Seq, re.Psky, exactBySeq[re.Seq].Psky.Float())
			}
		}
	}

	// TopK must equal the head of the sorted threshold-q skyline.
	full, err := eng.Query(qMin)
	if err != nil {
		return err
	}
	for _, k := range []int{1, 3, 10} {
		top, err := eng.TopK(k, qMin)
		if err != nil {
			return err
		}
		want := full
		if len(want) > k {
			want = want[:k]
		}
		if len(top) != len(want) {
			return fmt.Errorf("topk(%d): %d results, want %d", k, len(top), len(want))
		}
		for i := range top {
			if !feq(top[i].Psky, want[i].Psky) {
				return fmt.Errorf("topk(%d)[%d]: psky %g, want %g", k, i, top[i].Psky, want[i].Psky)
			}
		}
	}
	return nil
}

func equalSeqs(what string, got, want []uint64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d vs %d elements\n got %v\nwant %v", what, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s: position %d: %d vs %d\n got %v\nwant %v", what, i, got[i], want[i], got, want)
		}
	}
	return nil
}

func feq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-7*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestDifferentialTimeWindow drives the engine with a time-based window
// (Section VI) against an exact oracle whose expiry is replayed manually.
func TestDifferentialTimeWindow(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const period = 40 // time units
	eng, err := NewEngine(Options{Dims: 2, Window: 0, Thresholds: []float64{0.3}})
	if err != nil {
		t.Fatal(err)
	}
	exact := naive.NewExact(0)
	ts := int64(0)
	live := 0
	var tss []int64
	for i := 0; i < 600; i++ {
		ts += int64(r.Intn(3))
		pt := uniformPoint(r, 2)
		p := uniformProb(r)
		eng.ExpireOlderThan(ts - period)
		for live > 0 && tss[len(tss)-live] < ts-period {
			exact.ExpireOldest()
			live--
		}
		if _, err := eng.Push(pt, p, ts); err != nil {
			t.Fatal(err)
		}
		exact.Push(pt, p)
		tss = append(tss, ts)
		live++
		if (i+1)%9 == 0 {
			if err := eng.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			engCands := eng.Candidates()
			seqs := make([]uint64, len(engCands))
			for j, c := range engCands {
				seqs[j] = c.Seq
			}
			if err := equalSeqs("time-window candidates", seqs, exact.Candidates(0.3)); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			res, err := eng.Query(0.3)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]uint64, len(res))
			for j, re := range res {
				got[j] = re.Seq
			}
			sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
			if err := equalSeqs("time-window skyline", got, exact.Skyline(0.3)); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}
}
