package pskyline_test

import (
	"bytes"
	"math/rand"
	"testing"

	"pskyline"
)

// TestMonitorSnapshotRoundTrip checkpoints a monitor with payloads mid-
// stream and verifies the restored monitor continues identically, payloads
// included.
func TestMonitorSnapshotRoundTrip(t *testing.T) {
	opt := pskyline.Options{Dims: 2, Window: 60, Thresholds: []float64{0.3}}
	m := mustMonitor(t, opt)
	r := rand.New(rand.NewSource(9))
	push := func(mm *pskyline.Monitor, i int) {
		_, err := mm.Push(pskyline.Element{
			Point: []float64{r.Float64(), r.Float64()},
			Prob:  1 - r.Float64(),
			Data:  i,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		push(m, i)
	}

	var buf bytes.Buffer
	if err := m.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	entered := 0
	opt.OnEnter = func(pskyline.SkyPoint) { entered++ }
	restored, err := pskyline.RestoreMonitor(&buf, opt)
	if err != nil {
		t.Fatal(err)
	}

	check := func() {
		a, b := m.Skyline(), restored.Skyline()
		if len(a) != len(b) {
			t.Fatalf("skylines %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i].Seq != b[i].Seq || a[i].Data != b[i].Data {
				t.Fatalf("member %d: %+v vs %+v", i, a[i], b[i])
			}
		}
		sa, sb := m.Stats(), restored.Stats()
		if sa != sb {
			t.Fatalf("stats %+v vs %+v", sa, sb)
		}
	}
	check()

	// Continue both in lockstep on identical elements; the restored
	// monitor's callback must fire.
	for i := 200; i < 400; i++ {
		el := pskyline.Element{
			Point: []float64{r.Float64(), r.Float64()},
			Prob:  1 - r.Float64(),
			Data:  i,
		}
		if _, err := m.Push(el); err != nil {
			t.Fatal(err)
		}
		if _, err := restored.Push(el); err != nil {
			t.Fatal(err)
		}
	}
	check()
	if entered == 0 {
		t.Fatal("restored OnEnter callback never fired")
	}
}

func TestRestoreMonitorGarbage(t *testing.T) {
	opt := pskyline.Options{Dims: 2, Window: 60, Thresholds: []float64{0.3}}
	if _, err := pskyline.RestoreMonitor(bytes.NewReader(nil), opt); err == nil {
		t.Fatal("empty restore accepted")
	}
}
