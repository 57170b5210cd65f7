package pskyline

import (
	"testing"

	"pskyline/internal/obs"
)

// TestSteadyStatePushAllocsWithLatencyTracking pins the cost of the latency
// instrumentation at its source: the span bookkeeping every write runs —
// beginOpLocked, applyDone and endOpLocked over a stamped op, under the lock
// — records two windowed-histogram samples and one flight span, all
// fixed-size stores into preallocated storage, so it must not allocate.
func TestSteadyStatePushAllocsWithLatencyTracking(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	m, err := NewMonitor(Options{Dims: 3, Window: 1024, Thresholds: []float64{0.3}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ops := []writeOp{{el: Element{Point: []float64{1, 2, 3}, Prob: 0.5}, admitNs: obs.NowNs()}}
	const runs = 2000
	m.mu.Lock()
	allocs := testing.AllocsPerRun(runs, func() {
		var sp opSpan
		m.beginOpLocked(&sp, ops, -1)
		sp.applyDone()
		m.endOpLocked(&sp, 0, 1, ops)
	})
	m.mu.Unlock()
	if allocs != 0 {
		t.Fatalf("latency span bookkeeping allocates: %.3f allocs/op", allocs)
	}
	// AllocsPerRun adds one warm-up call: every call must have armed the
	// span and filed a flight record, or the measurement skipped the work.
	if got := m.Flight().Recorded; got != runs+1 {
		t.Fatalf("flight recorder holds %d spans, want %d", got, runs+1)
	}
}
