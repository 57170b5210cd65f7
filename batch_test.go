package pskyline_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pskyline"
	"pskyline/internal/geom"
	"pskyline/internal/naive"
)

// genElements produces a deterministic pseudo-random stream. With anti set,
// points concentrate around the anti-correlated diagonal so skylines stay
// large and band churn is high.
func genElements(seed int64, n, dims int, anti bool) []pskyline.Element {
	r := rand.New(rand.NewSource(seed))
	out := make([]pskyline.Element, n)
	for i := range out {
		pt := make([]float64, dims)
		s := 0.0
		for d := range pt {
			pt[d] = r.Float64()
			s += pt[d]
		}
		if anti {
			shift := (float64(dims)/2 - s) / float64(dims) * 0.8
			for d := range pt {
				pt[d] += shift
			}
		}
		out[i] = pskyline.Element{
			Point: pt,
			Prob:  1 - r.Float64(), // (0, 1]
			TS:    int64(i),
			Data:  i,
		}
	}
	return out
}

// sameView asserts that two published views are byte-identical: same stream
// position, same thresholds, same band partition and the same candidates
// with bit-for-bit equal floating point values. This is the guarantee that
// batched and async ingestion are pure re-groupings of sequential Push.
func sameView(t *testing.T, label string, want, got *pskyline.View) {
	t.Helper()
	if want.Processed() != got.Processed() {
		t.Fatalf("%s: processed %d != %d", label, got.Processed(), want.Processed())
	}
	wt, gt := want.Thresholds(), got.Thresholds()
	if len(wt) != len(gt) {
		t.Fatalf("%s: threshold count %d != %d", label, len(gt), len(wt))
	}
	for i := range wt {
		if wt[i] != gt[i] {
			t.Fatalf("%s: threshold %d: %v != %v", label, i, gt[i], wt[i])
		}
	}
	wb, gb := want.BandSizes(), got.BandSizes()
	for i := range wb {
		if wb[i] != gb[i] {
			t.Fatalf("%s: band %d size %d != %d (bands want=%v got=%v)", label, i, gb[i], wb[i], wb, gb)
		}
	}
	wc, gc := want.Candidates(), got.Candidates()
	if len(wc) != len(gc) {
		t.Fatalf("%s: candidate count %d != %d", label, len(gc), len(wc))
	}
	for i := range wc {
		w, g := wc[i], gc[i]
		if w.Seq != g.Seq || w.TS != g.TS ||
			math.Float64bits(w.Prob) != math.Float64bits(g.Prob) ||
			math.Float64bits(w.Psky) != math.Float64bits(g.Psky) {
			t.Fatalf("%s: candidate %d differs:\nwant %+v\ngot  %+v", label, i, w, g)
		}
		if len(w.Point) != len(g.Point) {
			t.Fatalf("%s: candidate %d point dims differ", label, i)
		}
		for d := range w.Point {
			if math.Float64bits(w.Point[d]) != math.Float64bits(g.Point[d]) {
				t.Fatalf("%s: candidate %d point[%d] %v != %v", label, i, d, g.Point[d], w.Point[d])
			}
		}
		if w.Data != g.Data {
			t.Fatalf("%s: candidate %d data %v != %v", label, i, g.Data, w.Data)
		}
	}
}

// TestPushBatchDifferential proves that the same stream produces
// byte-identical final skyline state whether it is ingested element-wise
// with Push, in random-size PushBatch chunks, or through the bounded async
// queue — under a count window, where the final state must also agree with
// the exact full-window oracle, and under a time window (Period), where
// every write interleaves timestamp expiry with insertion.
func TestPushBatchDifferential(t *testing.T) {
	const (
		dims   = 3
		window = 400
		n      = 2500
	)
	thresholds := []float64{0.5, 0.3}
	stream := genElements(11, n, dims, true)
	// The time-window input carries the same points with timestamps that
	// advance by 0–2 per element, so expiry runs in bursts and across ties.
	timed := append([]pskyline.Element(nil), stream...)
	tr := rand.New(rand.NewSource(29))
	for i := 1; i < n; i++ {
		timed[i].TS = timed[i-1].TS + int64(tr.Intn(3))
	}

	for _, tc := range []struct {
		name   string
		opt    pskyline.Options
		stream []pskyline.Element
	}{
		{"count", pskyline.Options{Dims: dims, Window: window, Thresholds: thresholds}, stream},
		{"period", pskyline.Options{Dims: dims, Period: window / 2, Thresholds: thresholds}, timed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stream, opt := tc.stream, tc.opt

			// (a) Sequential element-wise Push: the reference.
			seq := mustMonitor(t, opt)
			for i, e := range stream {
				s, err := seq.Push(e)
				if err != nil {
					t.Fatalf("push %d: %v", i, err)
				}
				if s != uint64(i) {
					t.Fatalf("push %d: got seq %d", i, s)
				}
			}

			// (b) PushBatch in random-size chunks.
			batched := mustMonitor(t, opt)
			r := rand.New(rand.NewSource(23))
			for i := 0; i < n; {
				sz := 1 + r.Intn(97)
				if i+sz > n {
					sz = n - i
				}
				first, err := batched.PushBatch(stream[i : i+sz])
				if err != nil {
					t.Fatalf("batch at %d: %v", i, err)
				}
				if first != uint64(i) {
					t.Fatalf("batch at %d: got first seq %d", i, first)
				}
				i += sz
			}

			// (c) Async queue, mixing Push and PushBatch, drained at the end.
			aopt := opt
			aopt.AsyncQueue = 64
			async := mustMonitor(t, aopt)
			for i := 0; i < n; {
				if r.Intn(2) == 0 {
					s, err := async.Push(stream[i])
					if err != nil {
						t.Fatalf("async push %d: %v", i, err)
					}
					if s != uint64(i) {
						t.Fatalf("async push %d: got seq %d", i, s)
					}
					i++
					continue
				}
				sz := 1 + r.Intn(97)
				if i+sz > n {
					sz = n - i
				}
				first, err := async.PushBatch(stream[i : i+sz])
				if err != nil {
					t.Fatalf("async batch at %d: %v", i, err)
				}
				if first != uint64(i) {
					t.Fatalf("async batch at %d: got first seq %d", i, first)
				}
				i += sz
			}
			async.Drain()

			want := seq.View()
			sameView(t, "batched vs sequential", want, batched.View())
			sameView(t, "async vs sequential", want, async.View())

			// After Close the queue rejects writes but the final view keeps serving.
			if err := async.Close(); err != nil {
				t.Fatal(err)
			}
			if err := async.Close(); err != nil {
				t.Fatalf("second close: %v", err)
			}
			if _, err := async.Push(stream[0]); err != pskyline.ErrClosed {
				t.Fatalf("push after close: %v", err)
			}
			if _, err := async.PushBatch(stream[:3]); err != pskyline.ErrClosed {
				t.Fatalf("batch after close: %v", err)
			}
			sameView(t, "async after close", want, async.View())

			if opt.Window > 0 {
				checkAgainstOracle(t, want, stream, window, thresholds)
			}
		})
	}
}

// checkAgainstOracle validates a final view against the O(W²) full-window
// oracle: every candidate's reported skyline probability must match the
// exact restricted value the streaming algorithm maintains (Section III-A),
// and the q_1-query answer must contain exactly the oracle's unrestricted
// q_1-skyline (up to ULP-level boundary ties, tolerated at 1e-9).
func checkAgainstOracle(t *testing.T, v *pskyline.View, stream []pskyline.Element, window int, thresholds []float64) {
	t.Helper()
	exact := naive.NewExact(window)
	for _, e := range stream {
		exact.Push(geom.Point(e.Point), e.Prob)
	}
	qk := thresholds[len(thresholds)-1]
	oracle := make(map[uint64]float64) // unrestricted Psky, whole window
	for _, p := range exact.All() {
		oracle[p.Seq] = p.Psky.Float()
	}
	restricted := make(map[uint64]float64) // Psky restricted to S_{N,q_k}
	for _, p := range exact.RestrictedAll(qk) {
		restricted[p.Seq] = p.Psky.Float()
	}
	const tol = 1e-9
	feq := func(a, b float64) bool {
		return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
	}
	cands := v.Candidates()
	if len(cands) != len(restricted) {
		t.Fatalf("candidate count %d, oracle S_{N,q} size %d", len(cands), len(restricted))
	}
	for _, c := range cands {
		want, ok := restricted[c.Seq]
		if !ok {
			t.Fatalf("candidate seq %d not in the oracle candidate set", c.Seq)
		}
		if !feq(c.Psky, want) {
			t.Fatalf("candidate seq %d: psky %v, oracle %v", c.Seq, c.Psky, want)
		}
	}
	q1 := thresholds[0]
	res, err := v.Query(q1)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[uint64]bool, len(res))
	for _, p := range res {
		got[p.Seq] = true
		if o := oracle[p.Seq]; o < q1-tol {
			t.Fatalf("query(%v) reported seq %d with oracle psky %v", q1, p.Seq, o)
		}
	}
	for s, psky := range oracle {
		if psky >= q1+tol && !got[s] {
			t.Fatalf("query(%v) missed seq %d with oracle psky %v", q1, s, psky)
		}
	}
}

// TestPushBatchValidation checks that an invalid element anywhere in a batch
// fails the whole batch before anything is ingested.
func TestPushBatchValidation(t *testing.T) {
	m := mustMonitor(t, pskyline.Options{Dims: 2, Window: 100, Thresholds: []float64{0.3}})
	good := pskyline.Element{Point: []float64{1, 2}, Prob: 0.5}
	for _, bad := range []pskyline.Element{
		{Point: []float64{1}, Prob: 0.5},     // wrong dimensionality
		{Point: []float64{1, 2}, Prob: 0},    // probability out of range
		{Point: []float64{1, 2}, Prob: 1.01}, // probability out of range
		{Point: []float64{1, 2}, Prob: math.NaN()},
		{Point: []float64{math.NaN(), 2}, Prob: 0.5}, // non-finite coordinates
		{Point: []float64{1, math.Inf(1)}, Prob: 0.5},
		{Point: []float64{math.Inf(-1), 2}, Prob: 0.5},
	} {
		if _, err := m.PushBatch([]pskyline.Element{good, bad}); err == nil {
			t.Fatalf("batch with %+v accepted", bad)
		}
	}
	if got := m.View().Processed(); got != 0 {
		t.Fatalf("failed batches ingested %d elements", got)
	}
	if first, err := m.PushBatch(nil); err != nil || first != 0 {
		t.Fatalf("empty batch: first=%d err=%v", first, err)
	}
}

// TestAsyncSeqReservation checks that with an async queue, Push returns the
// exact sequence numbers the background goroutine later assigns.
func TestAsyncSeqReservation(t *testing.T) {
	m := mustMonitor(t, pskyline.Options{
		Dims: 2, Window: 50, Thresholds: []float64{0.3}, AsyncQueue: 8,
	})
	defer m.Close()
	stream := genElements(5, 300, 2, false)
	for i, e := range stream {
		e.Data = fmt.Sprintf("payload-%d", i)
		s, err := m.Push(e)
		if err != nil {
			t.Fatal(err)
		}
		if s != uint64(i) {
			t.Fatalf("push %d reserved seq %d", i, s)
		}
	}
	m.Drain()
	v := m.View()
	if v.Processed() != uint64(len(stream)) {
		t.Fatalf("processed %d after drain", v.Processed())
	}
	for _, c := range v.Candidates() {
		if want := fmt.Sprintf("payload-%d", c.Seq); c.Data != want {
			t.Fatalf("seq %d carries payload %v, want %s", c.Seq, c.Data, want)
		}
	}
}
