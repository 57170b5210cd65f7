package pskyline_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"pskyline"
)

func mustMonitor(t *testing.T, opt pskyline.Options) *pskyline.Monitor {
	t.Helper()
	m, err := pskyline.NewMonitor(opt)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestOptionsValidation(t *testing.T) {
	bad := []pskyline.Options{
		{},                                    // no window at all
		{Dims: 2, Thresholds: []float64{0.3}}, // neither window nor period
		{Dims: 2, Window: 10, Period: 5, Thresholds: []float64{0.3}}, // both
		{Dims: 0, Window: 10, Thresholds: []float64{0.3}},
		{Dims: 2, Window: 10}, // no thresholds
		{Dims: 2, Window: 10, Thresholds: []float64{0}},
		{Dims: 2, Window: 10, Thresholds: []float64{1.5}},
		{Dims: 2, Window: 10, Thresholds: []float64{math.NaN()}},
		{Dims: 2, Window: 10, Thresholds: []float64{0.3}, TopK: 3, TopKMinQ: math.NaN()},
	}
	for i, opt := range bad {
		if _, err := pskyline.NewMonitor(opt); err == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
}

func TestPushValidation(t *testing.T) {
	m := mustMonitor(t, pskyline.Options{Dims: 2, Window: 4, Thresholds: []float64{0.3}})
	if _, err := m.Push(pskyline.Element{Point: []float64{1}, Prob: 0.5}); err == nil {
		t.Error("wrong dimensionality accepted")
	}
	if _, err := m.Push(pskyline.Element{Point: []float64{1, 2}, Prob: 0}); err == nil {
		t.Error("zero probability accepted")
	}
	if _, err := m.Push(pskyline.Element{Point: []float64{1, 2}, Prob: 1.2}); err == nil {
		t.Error("probability > 1 accepted")
	}
	if _, err := m.Push(pskyline.Element{Point: []float64{1, 2}, Prob: math.NaN()}); err == nil {
		t.Error("NaN probability accepted")
	}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := m.Push(pskyline.Element{Point: []float64{1, x}, Prob: 0.5}); err == nil {
			t.Errorf("coordinate %v accepted", x)
		}
	}
}

func TestMonitorBasics(t *testing.T) {
	m := mustMonitor(t, pskyline.Options{Dims: 2, Window: 10, Thresholds: []float64{0.3}})
	seq, err := m.Push(pskyline.Element{Point: []float64{1, 1}, Prob: 0.9, Data: "best"})
	if err != nil {
		t.Fatal(err)
	}
	if seq != 0 {
		t.Fatalf("first seq = %d", seq)
	}
	m.Push(pskyline.Element{Point: []float64{2, 2}, Prob: 0.8, Data: "dominated"})
	m.Push(pskyline.Element{Point: []float64{0.5, 3}, Prob: 0.7, Data: "corner"})

	sky := m.Skyline()
	if len(sky) != 2 {
		t.Fatalf("skyline = %v", sky)
	}
	if sky[0].Data != "best" || sky[0].Psky != 0.9 {
		t.Fatalf("head = %+v", sky[0])
	}
	if sky[1].Data != "corner" {
		t.Fatalf("second = %+v", sky[1])
	}

	// Ad-hoc query below the maintained threshold must fail.
	if _, err := m.Query(0.1); err == nil {
		t.Error("query below q accepted")
	}
	got, err := m.Query(0.8)
	if err != nil || len(got) != 1 || got[0].Data != "best" {
		t.Fatalf("query(0.8) = %v, %v", got, err)
	}

	top, err := m.TopK(2, 0.3)
	if err != nil || len(top) != 2 || top[0].Data != "best" {
		t.Fatalf("topk = %v, %v", top, err)
	}
	// A NaN threshold is out of range, not a match for every candidate.
	if got, err := m.Query(math.NaN()); err == nil {
		t.Errorf("query(NaN) accepted: %v", got)
	}
	if got, err := m.TopK(2, math.NaN()); err == nil {
		t.Errorf("topk(NaN) accepted: %v", got)
	}

	st := m.Stats()
	if st.Processed != 3 || st.Candidates != 3 || st.Skyline != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if got := m.Thresholds(); len(got) != 1 || got[0] != 0.3 {
		t.Fatalf("thresholds = %v", got)
	}
}

// TestEventsMatchSkylineMembership — replaying OnEnter/OnLeave must always
// reconstruct exactly the queried skyline.
func TestEventsMatchSkylineMembership(t *testing.T) {
	members := map[uint64]bool{}
	m := mustMonitor(t, pskyline.Options{
		Dims: 2, Window: 30, Thresholds: []float64{0.4},
		OnEnter: func(p pskyline.SkyPoint) {
			if members[p.Seq] {
				t.Fatalf("double enter for %d", p.Seq)
			}
			members[p.Seq] = true
		},
		OnLeave: func(p pskyline.SkyPoint) {
			if !members[p.Seq] {
				t.Fatalf("leave without enter for %d", p.Seq)
			}
			delete(members, p.Seq)
		},
	})
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 500; i++ {
		_, err := m.Push(pskyline.Element{
			Point: []float64{r.Float64(), r.Float64()},
			Prob:  1 - r.Float64(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if i%13 == 0 {
			sky := m.Skyline()
			if len(sky) != len(members) {
				t.Fatalf("step %d: %d members via events, %d via query", i, len(members), len(sky))
			}
			for _, p := range sky {
				if !members[p.Seq] {
					t.Fatalf("step %d: %d in query but not via events", i, p.Seq)
				}
			}
		}
	}
}

func TestTimeWindowMonitor(t *testing.T) {
	m := mustMonitor(t, pskyline.Options{Dims: 1, Period: 10, Thresholds: []float64{0.5}})
	m.Push(pskyline.Element{Point: []float64{1}, Prob: 1, TS: 0, Data: "old"})
	m.Push(pskyline.Element{Point: []float64{2}, Prob: 1, TS: 5, Data: "mid"})
	sky := m.Skyline()
	if len(sky) != 1 || sky[0].Data != "old" {
		t.Fatalf("skyline = %v", sky)
	}
	// TS 11 expires "old" (TS 0 < 11−10); "mid" remains and wins.
	m.Push(pskyline.Element{Point: []float64{3}, Prob: 1, TS: 11, Data: "new"})
	sky = m.Skyline()
	if len(sky) != 1 || sky[0].Data != "mid" {
		t.Fatalf("after expiry skyline = %v", sky)
	}
}

// TestDataCleanup — payloads of departed elements must not accumulate; the
// public surface proxy is that departed elements never resurface with stale
// data and live ones keep theirs.
func TestDataCleanup(t *testing.T) {
	m := mustMonitor(t, pskyline.Options{Dims: 2, Window: 8, Thresholds: []float64{0.3}})
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		m.Push(pskyline.Element{
			Point: []float64{r.Float64(), r.Float64()},
			Prob:  1 - r.Float64(),
			Data:  i,
		})
		for _, p := range m.Skyline() {
			if p.Data.(int) != int(p.Seq) {
				t.Fatalf("payload mismatch: seq %d carries %v", p.Seq, p.Data)
			}
		}
	}
}

func TestConcurrentUse(t *testing.T) {
	m := mustMonitor(t, pskyline.Options{Dims: 2, Window: 100, Thresholds: []float64{0.3}})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				_, err := m.Push(pskyline.Element{
					Point: []float64{r.Float64(), r.Float64()},
					Prob:  1 - r.Float64(),
				})
				if err != nil {
					t.Error(err)
					return
				}
				if i%10 == 0 {
					m.Skyline()
					m.TopK(3, 0.3)
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if st := m.Stats(); st.Processed != 800 {
		t.Fatalf("processed = %d", st.Processed)
	}
}

// TestContinuousTopK — the OnTopK callback must fire exactly when the
// ranked top-k membership changes, and its last delivery must equal an
// ad-hoc TopK query.
func TestContinuousTopK(t *testing.T) {
	var last []pskyline.SkyPoint
	fired := 0
	m := mustMonitor(t, pskyline.Options{
		Dims: 2, Window: 50, Thresholds: []float64{0.3},
		TopK: 3,
		OnTopK: func(top []pskyline.SkyPoint) {
			fired++
			last = append(last[:0], top...)
		},
	})
	r := rand.New(rand.NewSource(15))
	for i := 0; i < 400; i++ {
		if _, err := m.Push(pskyline.Element{
			Point: []float64{r.Float64(), r.Float64()},
			Prob:  1 - r.Float64(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if fired == 0 {
		t.Fatal("OnTopK never fired")
	}
	want, err := m.TopK(3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(last) != len(want) {
		t.Fatalf("last delivery %d vs query %d", len(last), len(want))
	}
	for i := range want {
		if last[i].Seq != want[i].Seq {
			t.Fatalf("rank %d: %d vs %d", i, last[i].Seq, want[i].Seq)
		}
	}
}

// TestDynamicThresholdsAndCounters exercises the runtime MSKY registration
// surface and the work counters.
func TestDynamicThresholdsAndCounters(t *testing.T) {
	m := mustMonitor(t, pskyline.Options{Dims: 2, Window: 40, Thresholds: []float64{0.3}})
	r := rand.New(rand.NewSource(21))
	for i := 0; i < 200; i++ {
		if _, err := m.Push(pskyline.Element{
			Point: []float64{r.Float64(), r.Float64()},
			Prob:  1 - r.Float64(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.AddThreshold(0.6); err != nil {
		t.Fatal(err)
	}
	if got := m.Thresholds(); len(got) != 2 || got[0] != 0.6 || got[1] != 0.3 {
		t.Fatalf("thresholds = %v", got)
	}
	if err := m.AddThreshold(0.1); err == nil {
		t.Fatal("threshold below minimum accepted")
	}
	if err := m.AddThreshold(math.NaN()); err == nil {
		t.Fatal("NaN threshold accepted")
	}
	strict, err := m.Query(0.6)
	if err != nil {
		t.Fatal(err)
	}
	loose, err := m.Query(0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(strict) > len(loose) {
		t.Fatalf("0.6-skyline (%d) larger than 0.3-skyline (%d)", len(strict), len(loose))
	}
	if err := m.RemoveThreshold(0.6); err != nil {
		t.Fatal(err)
	}
	if err := m.RemoveThreshold(0.3); err == nil {
		t.Fatal("smallest threshold removal accepted")
	}
	c := m.Counters()
	if c.Pushes != 200 || c.NodesVisited == 0 {
		t.Fatalf("counters = %+v", c)
	}
}

// TestRestoreWithTopK re-enables continuous top-k tracking at restore.
func TestRestoreWithTopK(t *testing.T) {
	m := mustMonitor(t, pskyline.Options{Dims: 2, Window: 30, Thresholds: []float64{0.3}})
	r := rand.New(rand.NewSource(25))
	for i := 0; i < 120; i++ {
		m.Push(pskyline.Element{Point: []float64{r.Float64(), r.Float64()}, Prob: 1 - r.Float64()})
	}
	var buf bytes.Buffer
	if err := m.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	fired := 0
	restored, err := pskyline.RestoreMonitor(&buf, pskyline.RestoreOptions{
		TopK:   3,
		OnTopK: func([]pskyline.SkyPoint) { fired++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		restored.Push(pskyline.Element{Point: []float64{r.Float64(), r.Float64()}, Prob: 1 - r.Float64()})
	}
	if fired == 0 {
		t.Fatal("restored top-k tracking never fired")
	}
}

func ExampleMonitor() {
	m, _ := pskyline.NewMonitor(pskyline.Options{
		Dims:       2,
		Window:     100,
		Thresholds: []float64{0.4},
	})
	m.Push(pskyline.Element{Point: []float64{550, 1}, Prob: 0.80, Data: "L1"})
	m.Push(pskyline.Element{Point: []float64{680, 1}, Prob: 0.90, Data: "L2"})
	m.Push(pskyline.Element{Point: []float64{530, 2}, Prob: 1.00, Data: "L3"})
	m.Push(pskyline.Element{Point: []float64{200, 2}, Prob: 0.48, Data: "L4"})
	for _, p := range m.Skyline() {
		fmt.Printf("%s Psky=%.2f\n", p.Data, p.Psky)
	}
	// Output:
	// L1 Psky=0.80
	// L3 Psky=0.52
	// L4 Psky=0.48
}
