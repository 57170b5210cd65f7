package aggrtree

import (
	"math"
	"math/rand"
	"testing"

	"pskyline/internal/geom"
	"pskyline/internal/prob"
)

func randItem(r *rand.Rand, dims int, seq uint64) *Item {
	pt := make(geom.Point, dims)
	for i := range pt {
		pt[i] = r.Float64()
	}
	it := NewItem(pt, 1-r.Float64(), seq)
	// Random restricted probabilities, occasionally with exact zeros.
	for i, n := 0, r.Intn(4); i < n; i++ {
		it.Pnew = it.Pnew.Times(prob.OneMinus(r.Float64()))
	}
	for i, n := 0, r.Intn(4); i < n; i++ {
		it.Pold = it.Pold.Times(prob.OneMinus(r.Float64()))
	}
	return it
}

func TestEmptyTree(t *testing.T) {
	tr := New(2, Config{})
	if tr.Size() != 0 || tr.Root() == nil || !tr.Root().IsLeaf() {
		t.Fatal("empty tree malformed")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	visited := 0
	tr.WalkItems(func(*Item, prob.Factor, prob.Factor) bool { visited++; return true })
	if visited != 0 {
		t.Fatal("walk of empty tree visited items")
	}
}

func TestInsertDeleteFuzz(t *testing.T) {
	for _, dims := range []int{1, 2, 3, 5} {
		r := rand.New(rand.NewSource(int64(dims)))
		tr := New(dims, Config{MaxEntries: 5})
		var live []*Item
		seq := uint64(0)
		for step := 0; step < 3000; step++ {
			if len(live) == 0 || r.Float64() < 0.6 {
				it := randItem(r, dims, seq)
				seq++
				tr.InsertItem(it)
				live = append(live, it)
			} else {
				i := r.Intn(len(live))
				tr.DeleteItem(live[i])
				live = append(live[:i], live[i+1:]...)
			}
			if step%101 == 0 {
				if err := tr.CheckInvariants(); err != nil {
					t.Fatalf("dims=%d step %d: %v", dims, step, err)
				}
				if tr.Size() != len(live) {
					t.Fatalf("dims=%d step %d: size %d != %d", dims, step, tr.Size(), len(live))
				}
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		// Every live item must be reachable with its exact values.
		seen := map[uint64]bool{}
		tr.WalkItems(func(it *Item, pnew, pold prob.Factor) bool {
			seen[it.Seq] = true
			return true
		})
		for _, it := range live {
			if !seen[it.Seq] {
				t.Fatalf("item %d lost", it.Seq)
			}
		}
	}
}

// TestLazySemantics — lazy multipliers applied at entries must be exactly
// equivalent to mutating every item below: Walk, Probs and Push must all
// agree.
func TestLazySemantics(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	tr := New(2, Config{MaxEntries: 4})
	items := make([]*Item, 60)
	for i := range items {
		items[i] = randItem(r, 2, uint64(i))
		tr.InsertItem(items[i])
	}
	// Record current exact values.
	type pv struct{ pnew, pold prob.Factor }
	want := map[uint64]pv{}
	for _, it := range items {
		pnew, pold := Probs(it)
		want[it.Seq] = pv{pnew, pold}
	}
	// Apply lazies at an internal entry covering several items.
	root := tr.Root()
	if root.IsLeaf() {
		t.Fatal("tree too small for the test")
	}
	target := root.Children()[0]
	fNew := prob.OneMinus(0.25)
	fOld := prob.OneMinus(0.5)
	target.MulLazyNew(fNew)
	target.MulLazyOld(fOld)
	RefreshProbsPath(target.Parent())
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Collect the affected seqs.
	affected := map[uint64]bool{}
	var collect func(n *Node)
	collect = func(n *Node) {
		for _, it := range n.Items() {
			affected[it.Seq] = true
		}
		for _, c := range n.Children() {
			collect(c)
		}
	}
	collect(target)
	if len(affected) == 0 {
		t.Fatal("no items under target")
	}
	check := func(stage string) {
		tr.WalkItems(func(it *Item, pnew, pold prob.Factor) bool {
			w := want[it.Seq]
			if affected[it.Seq] {
				w.pnew = w.pnew.Times(fNew)
				w.pold = w.pold.Over(fOld)
			}
			if !pnew.ApproxEqual(w.pnew, 1e-9) || !pold.ApproxEqual(w.pold, 1e-9) {
				t.Fatalf("%s: item %d: got (%v,%v), want (%v,%v)",
					stage, it.Seq, pnew, pold, w.pnew, w.pold)
			}
			return true
		})
	}
	check("lazy pending")
	// Push must not change the observable values.
	target.Push()
	RefreshProbsPath(target)
	check("after push")
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Probs on a specific item agrees with Walk.
	for _, it := range items[:10] {
		pnew, pold := Probs(it)
		w := want[it.Seq]
		if affected[it.Seq] {
			w.pnew = w.pnew.Times(fNew)
			w.pold = w.pold.Over(fOld)
		}
		if !pnew.ApproxEqual(w.pnew, 1e-9) || !pold.ApproxEqual(w.pold, 1e-9) {
			t.Fatalf("Probs(%d) mismatch", it.Seq)
		}
	}
}

// TestRemoveInsertEntry — grafting a subtree between trees preserves every
// item with its exact values, including pending lazies on the path.
func TestRemoveInsertEntry(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	a := New(3, Config{MaxEntries: 4})
	b := New(3, Config{MaxEntries: 4})
	items := make([]*Item, 120)
	for i := range items {
		items[i] = randItem(r, 3, uint64(i))
		a.InsertItem(items[i])
	}
	// Put a lazy on the root so the graft has to carry it.
	f := prob.OneMinus(0.3)
	a.Root().MulLazyNew(f)
	want := map[uint64][2]prob.Factor{}
	a.WalkItems(func(it *Item, pnew, pold prob.Factor) bool {
		want[it.Seq] = [2]prob.Factor{pnew, pold}
		return true
	})

	// Move random subtrees from a to b until a drains.
	moved := 0
	for a.Size() > 0 {
		n := a.Root()
		for !n.IsLeaf() && r.Float64() < 0.7 {
			n = n.Children()[r.Intn(len(n.Children()))]
		}
		cnt := n.Count()
		e := a.RemoveEntry(n)
		b.InsertEntry(e)
		moved += cnt
		if err := a.CheckInvariants(); err != nil {
			t.Fatalf("a after move: %v", err)
		}
		if err := b.CheckInvariants(); err != nil {
			t.Fatalf("b after move: %v", err)
		}
	}
	if b.Size() != len(items) || moved != len(items) {
		t.Fatalf("b has %d items, moved %d, want %d", b.Size(), moved, len(items))
	}
	b.WalkItems(func(it *Item, pnew, pold prob.Factor) bool {
		w := want[it.Seq]
		if !pnew.ApproxEqual(w[0], 1e-9) || !pold.ApproxEqual(w[1], 1e-9) {
			t.Fatalf("item %d changed during graft: got (%v,%v) want (%v,%v)",
				it.Seq, pnew, pold, w[0], w[1])
		}
		return true
	})
}

func TestItemValidation(t *testing.T) {
	for _, p := range []float64{0, -0.5, 1.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewItem(p=%v) did not panic", p)
				}
			}()
			NewItem(geom.Point{1, 2}, p, 0)
		}()
	}
}

func TestQuadraticPartitionRespectsMinFill(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for iter := 0; iter < 500; iter++ {
		n := 5 + r.Intn(20)
		minFill := 1 + r.Intn(n/2)
		rects := make([]geom.Rect, n)
		for i := range rects {
			pt := geom.Point{r.Float64(), r.Float64()}
			rects[i] = geom.PointRect(pt)
		}
		tr := New(2, Config{})
		ga, gb := tr.quadraticPartition(rects, minFill)
		if len(ga)+len(gb) != n {
			t.Fatalf("partition lost entries: %d + %d != %d", len(ga), len(gb), n)
		}
		if len(ga) < minFill || len(gb) < minFill {
			t.Fatalf("min fill violated: %d / %d (min %d)", len(ga), len(gb), minFill)
		}
		seen := map[int]bool{}
		for _, i := range append(append([]int{}, ga...), gb...) {
			if seen[i] {
				t.Fatalf("entry %d assigned twice", i)
			}
			seen[i] = true
		}
	}
}

func TestRefreshProbsMatchesRefresh(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	tr := New(2, Config{MaxEntries: 6})
	for i := 0; i < 200; i++ {
		tr.InsertItem(randItem(r, 2, uint64(i)))
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		full := *n
		full.refresh()
		var light Node
		light = *n
		light.RefreshProbs()
		if !full.pskyMin.ApproxEqual(light.pskyMin, 1e-12) ||
			!full.pskyMax.ApproxEqual(light.pskyMax, 1e-12) ||
			!full.pnewMin.ApproxEqual(light.pnewMin, 1e-12) ||
			!full.pnewMax.ApproxEqual(light.pnewMax, 1e-12) {
			t.Fatalf("RefreshProbs diverges from refresh at level %d", n.level)
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(tr.Root())
}

func TestConfigValidation(t *testing.T) {
	for _, f := range []func(){
		func() { New(0, Config{}) },
		func() { New(2, Config{MaxEntries: 2}) },
		func() { New(2, Config{MaxEntries: 64}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestTreeString(t *testing.T) {
	tr := New(2, Config{})
	if tr.String() == "" || tr.NumNodes() != 1 || tr.Dims() != 2 {
		t.Fatal("diagnostics broken")
	}
	it := NewItem(geom.Point{1, 2}, 0.5, 0)
	if it.String() == "" || tr.Root().String() == "" {
		t.Fatal("String methods broken")
	}
}

// TestApplyDeepMatchesLazy — the eager deep application must be
// observationally identical to a lazy multiplier followed by full pushes.
func TestApplyDeepMatchesLazy(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	mk := func() (*Tree, []*Item) {
		tr := New(2, Config{MaxEntries: 4})
		items := make([]*Item, 80)
		for i := range items {
			items[i] = randItem(r, 2, uint64(i))
		}
		return tr, items
	}
	trA, itemsA := mk()
	r = rand.New(rand.NewSource(23))
	trB, itemsB := mk()
	for i := range itemsA {
		trA.InsertItem(itemsA[i])
		trB.InsertItem(itemsB[i])
	}
	fNew := prob.OneMinus(0.4)
	fOld := prob.OneMinus(0.7)
	a := trA.Root()
	b := trB.Root()
	a.MulLazyNew(fNew)
	a.MulLazyOld(fOld)
	b.ApplyDeepNew(fNew)
	b.ApplyDeepOld(fOld)
	if err := trB.CheckInvariants(); err != nil {
		t.Fatalf("deep-applied tree: %v", err)
	}
	for i := range itemsA {
		pnA, poA := Probs(itemsA[i])
		pnB, poB := Probs(itemsB[i])
		if !pnA.ApproxEqual(pnB, 1e-9) || !poA.ApproxEqual(poB, 1e-9) {
			t.Fatalf("item %d: lazy (%v,%v) vs deep (%v,%v)", i, pnA, poA, pnB, poB)
		}
		if !trA.ItemPsky(itemsA[i]).ApproxEqual(trB.ItemPsky(itemsB[i]), 1e-9) {
			t.Fatalf("item %d: psky mismatch", i)
		}
		pn, po := trA.ItemProbs(itemsA[i])
		if !pn.ApproxEqual(pnA, 1e-12) || !po.ApproxEqual(poA, 1e-12) {
			t.Fatal("Tree.ItemProbs disagrees with Probs")
		}
	}
	// Effective bounds must agree between the two representations.
	if !a.EffPskyMin().ApproxEqual(b.EffPskyMin(), 1e-9) ||
		!a.EffPskyMax().ApproxEqual(b.EffPskyMax(), 1e-9) ||
		!a.EffPnewMin().ApproxEqual(b.EffPnewMin(), 1e-9) ||
		!a.EffPnewMax().ApproxEqual(b.EffPnewMax(), 1e-9) {
		t.Fatal("effective aggregate bounds diverge")
	}
}

func TestWalkEarlyStop(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	tr := New(2, Config{MaxEntries: 4})
	for i := 0; i < 60; i++ {
		tr.InsertItem(randItem(r, 2, uint64(i)))
	}
	n := 0
	completed := tr.WalkItems(func(*Item, prob.Factor, prob.Factor) bool {
		n++
		return n < 5
	})
	if completed || n != 5 {
		t.Fatalf("early stop: completed=%v n=%d", completed, n)
	}
}

func TestRefreshFromAfterDirectMutation(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	tr := New(2, Config{MaxEntries: 4})
	var items []*Item
	for i := 0; i < 40; i++ {
		it := randItem(r, 2, uint64(i))
		items = append(items, it)
		tr.InsertItem(it)
	}
	it := items[7]
	it.Pnew = it.Pnew.Times(prob.OneMinus(0.9))
	tr.RefreshFrom(it.Leaf())
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("after RefreshFrom: %v", err)
	}
}
