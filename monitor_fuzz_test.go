package pskyline_test

import (
	"math"
	"reflect"
	"testing"

	"pskyline"
	"pskyline/internal/geom"
	"pskyline/internal/naive"
)

// Input layout of FuzzMonitor. Three header bytes pick the dimensionality
// (1–3), the count window (1–64) and the threshold q; every op then starts
// with one byte:
//
//	0–3  Push of one element
//	4–5  PushBatch of 1 + next%8 elements
//	6    Checkpoint
//	7    Crash, then Open of the same directory
//
// An element is d coordinate bytes and one probability byte. A coordinate
// byte is a value on a grid of 8 (ties provoke the dominance corner cases)
// except fzNaN, fzPosInf and fzNegInf; a probability byte maps into (0, 1]
// except fzProbZero, fzProbNaN and fzProbOver, which the monitor must reject.
const (
	fzNaN      = 0xFF
	fzPosInf   = 0xFE
	fzNegInf   = 0xFD
	fzProbZero = 0x00
	fzProbNaN  = 0xFF
	fzProbOver = 0xFE

	fzPush       = 0
	fzBatch      = 4
	fzCheckpoint = 6
	fzCrashOpen  = 7
)

// FuzzMonitor is the Monitor-level differential fuzzer: it decodes its input
// into Push, PushBatch, Checkpoint and Crash+Open ops on a durable monitor
// and, after every op, checks the view against the naive O(W²) oracle. The
// candidate seqs must equal the oracle's S_{N,q} and each candidate's Psky
// must be within 1e-9 of the oracle's restricted value; the q-skyline must
// be the oracle's. A checkpoint restore bulk-loads the trees, which reshapes
// the order the probability products are summed in, so an element whose
// oracle value sits within 1e-9 of the threshold may fall on either side.
// A rejected op (a non-finite coordinate, a probability outside (0, 1])
// must leave Stats().Processed and the view unchanged.
func FuzzMonitor(f *testing.F) {
	for _, seed := range []struct {
		name string
		data []byte
	}{
		{"pushes across a crash", []byte{1, 7, 25,
			fzPush, 3, 4, 50, fzPush, 1, 2, 60, fzCrashOpen, fzPush, 5, 1, 30, fzPush, 2, 2, 90}},
		{"checkpoint then crash", []byte{1, 3, 25,
			fzPush, 3, 4, 50, fzPush, 1, 2, 60, fzPush, 0, 7, 10, fzCheckpoint,
			fzPush, 5, 1, 30, fzPush, 2, 2, 90, fzCrashOpen, fzPush, 1, 1, 99}},
		{"batch with a NaN coordinate", []byte{1, 7, 25,
			fzBatch, 2, 1, 1, 50, fzNaN, 2, 50, 3, 3, 50, fzPush, 1, 1, 40}},
		{"infinite coordinates", []byte{2, 15, 45,
			fzPush, 1, 2, 3, 50, fzPush, fzPosInf, 1, 1, 50, fzPush, 1, fzNegInf, 1, 50, fzCrashOpen}},
		{"probabilities outside (0, 1]", []byte{1, 7, 25,
			fzPush, 1, 1, fzProbZero, fzPush, 1, 1, fzProbNaN, fzPush, 1, 1, fzProbOver,
			fzBatch, 1, 2, 2, 50, 3, 3, fzProbOver, fzPush, 2, 2, 50}},
		{"window overflow between checkpoints", []byte{0, 3, 5,
			fzPush, 1, 10, fzPush, 2, 20, fzPush, 0, 30, fzCheckpoint, fzPush, 3, 40, fzPush, 1, 50,
			fzPush, 4, 60, fzCrashOpen, fzBatch, 3, 5, 70, 0, 80, 6, 90, 1, 99, fzCheckpoint, fzCrashOpen}},
	} {
		f.Add(seed.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		dims := 1 + int(data[0]%3)
		window := 1 + int(data[1]%64)
		q := 0.05 + float64(data[2]%90)/100
		data = data[3:]
		opt := pskyline.Options{
			Dims: dims, Window: window, Thresholds: []float64{q},
			Durability: pskyline.Durability{
				Dir: t.TempDir(), Fsync: "never", SegmentBytes: 512, CheckpointEvery: -1,
			},
		}
		m, err := pskyline.Open(opt)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { m.Close() }()
		exact := naive.NewExact(window)
		ts, accepted := int64(0), uint64(0)

		// element decodes one element from the front of data.
		element := func() (pskyline.Element, bool) {
			if len(data) < dims+1 {
				return pskyline.Element{}, false
			}
			pt := make([]float64, dims)
			for i, b := range data[:dims] {
				switch b {
				case fzNaN:
					pt[i] = math.NaN()
				case fzPosInf:
					pt[i] = math.Inf(1)
				case fzNegInf:
					pt[i] = math.Inf(-1)
				default:
					pt[i] = float64(b % 8)
				}
			}
			var p float64
			switch b := data[dims]; b {
			case fzProbZero:
				p = 0
			case fzProbNaN:
				p = math.NaN()
			case fzProbOver:
				p = 1.5
			default:
				p = float64(1+int(b%100)) / 100
			}
			data = data[dims+1:]
			ts++
			return pskyline.Element{Point: pt, Prob: p, TS: ts}, true
		}
		valid := func(e pskyline.Element) bool {
			for _, x := range e.Point {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					return false
				}
			}
			return e.Prob > 0 && e.Prob <= 1
		}

		for ops := 0; ops < 200 && len(data) > 0; ops++ {
			code := data[0] % 8
			data = data[1:]
			var batch []pskyline.Element
			switch {
			case code < fzBatch:
				e, ok := element()
				if !ok {
					return
				}
				batch = append(batch, e)
			case code < fzCheckpoint:
				if len(data) == 0 {
					return
				}
				n := 1 + int(data[0]%8)
				data = data[1:]
				for i := 0; i < n; i++ {
					e, ok := element()
					if !ok {
						return
					}
					batch = append(batch, e)
				}
			case code == fzCheckpoint:
				if err := m.Checkpoint(); err != nil {
					t.Fatalf("op %d: checkpoint: %v", ops, err)
				}
			default:
				m.Crash()
				if m, err = pskyline.Open(opt); err != nil {
					t.Fatalf("op %d: reopen after crash: %v", ops, err)
				}
			}
			if batch != nil {
				before, beforeView := m.Stats().Processed, m.View().Candidates()
				allValid := true
				for _, e := range batch {
					allValid = allValid && valid(e)
				}
				var err error
				if len(batch) == 1 && code < fzBatch {
					_, err = m.Push(batch[0])
				} else {
					_, err = m.PushBatch(batch)
				}
				switch {
				case allValid && err != nil:
					t.Fatalf("op %d: valid write rejected: %v", ops, err)
				case !allValid && err == nil:
					t.Fatalf("op %d: invalid write %+v accepted", ops, batch)
				case err != nil:
					if got := m.Stats().Processed; got != before {
						t.Fatalf("op %d: rejected write moved Processed %d → %d", ops, before, got)
					}
					if !reflect.DeepEqual(beforeView, m.View().Candidates()) {
						t.Fatalf("op %d: rejected write changed the view", ops)
					}
				default:
					for _, e := range batch {
						exact.Push(geom.Point(e.Point), e.Prob)
					}
					accepted += uint64(len(batch))
				}
			}
			v := m.View()
			if v.Processed() != accepted {
				t.Fatalf("op %d: view processed %d of %d accepted elements", ops, v.Processed(), accepted)
			}
			checkFuzzOracle(t, ops, v, exact, q)
		}
	})
}

// checkFuzzOracle checks v against the oracle holding the same window. The
// candidate set is S_{N,q} (unrestricted Pnew ≥ q) and each candidate's Psky
// is its Psky restricted to the candidate set, as Section III-A maintains
// it; both are recomputed from the oracle's elements. Elements within tol
// of q on the deciding quantity may land on either side.
func checkFuzzOracle(t *testing.T, op int, v *pskyline.View, exact *naive.Exact, q float64) {
	t.Helper()
	const tol = 1e-9
	near := func(x float64) bool { return math.Abs(x-q) <= tol }
	elems := map[uint64]naive.Elem{}
	for _, e := range exact.Elems() {
		elems[e.Seq] = e
	}
	pnew, psky := map[uint64]float64{}, map[uint64]float64{}
	for _, p := range exact.All() {
		pnew[p.Seq], psky[p.Seq] = p.Pnew.Float(), p.Psky.Float()
	}
	cands := v.Candidates()
	inView := make(map[uint64]bool, len(cands))
	for _, c := range cands {
		e, ok := elems[c.Seq]
		if !ok {
			t.Fatalf("op %d: candidate seq %d is not in the oracle's window", op, c.Seq)
		}
		if c.Prob != e.P || !geom.Point(c.Point).Equal(e.Point) {
			t.Fatalf("op %d: candidate seq %d is %v@%v, oracle %v@%v", op, c.Seq, c.Point, c.Prob, e.Point, e.P)
		}
		inView[c.Seq] = true
		if pnew[c.Seq] < q && !near(pnew[c.Seq]) {
			t.Fatalf("op %d: candidate seq %d has oracle Pnew %v < q %v", op, c.Seq, pnew[c.Seq], q)
		}
	}
	for s, p := range pnew {
		if p >= q && !near(p) && !inView[s] {
			t.Fatalf("op %d: oracle candidate seq %d (Pnew %v) missing from the view", op, s, p)
		}
	}
	for _, c := range cands {
		want := c.Prob
		for _, f := range cands {
			if f.Seq != c.Seq && geom.Point(f.Point).Dominates(c.Point) {
				want *= 1 - f.Prob
			}
		}
		if math.Abs(c.Psky-want) > tol {
			t.Fatalf("op %d: candidate seq %d Psky %v, oracle %v", op, c.Seq, c.Psky, want)
		}
	}
	sky := map[uint64]bool{}
	for _, s := range v.Skyline() {
		sky[s.Seq] = true
		if psky[s.Seq] < q && !near(psky[s.Seq]) {
			t.Fatalf("op %d: skyline seq %d has oracle Psky %v < q %v", op, s.Seq, psky[s.Seq], q)
		}
	}
	for s, p := range psky {
		if p >= q && !near(p) && !sky[s] {
			t.Fatalf("op %d: oracle skyline seq %d (Psky %v) missing from the view", op, s, p)
		}
	}
}
