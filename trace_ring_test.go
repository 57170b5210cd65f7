package pskyline

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"pskyline/internal/obs"
)

// traceEventOf derives every field of record k from k alone, so a reader can
// verify a collected event's internal consistency from its Seq: any mixture
// of two generations that slipped through the seqlock shows up as a field
// that disagrees with the derivation.
func traceEventOf(k uint64) TraceEvent {
	return TraceEvent{
		Seq:       k,
		Processed: 3*k + 1,
		At:        obs.WallAt(int64(5*k + 7)),
		Prob:      float64(k%97+1) / 100,
		Psky:      float64(k%89+1) / 200,
		FromBand:  int(k%5) - 1,
		ToBand:    int(k%4) - 1,
		Entered:   k%4 == 1,
		Point:     []float64{float64(k), float64(k + 1), float64(k + 2)},
	}
}

// TestTraceRingWrapTornReads is the seqlock torture test of obs.Ring with
// the skyline trace payload: a depth-4 ring wraps every four records while
// four readers collect continuously; every record they accept must be
// internally consistent (all fields from one write), even though the writer
// laps the ring thousands of times mid-collect. Run under -race this also
// certifies the seqlock's atomics are data-race free. The flight-span payload
// gets the same test in internal/obs.
func TestTraceRingWrapTornReads(t *testing.T) {
	const depth = 4
	const writes = 200_000
	r := newTraceRing(depth)

	var stop atomic.Bool
	var wg sync.WaitGroup
	var accepted atomic.Uint64
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				for _, ev := range r.Collect() {
					if want := traceEventOf(ev.Seq); !reflect.DeepEqual(ev, want) {
						t.Errorf("torn record: got %+v, want %+v", ev, want)
						return
					}
					accepted.Add(1)
				}
			}
		}()
	}
	for k := uint64(1); k <= writes; k++ {
		r.Record(traceEventOf(k))
	}
	stop.Store(true)
	wg.Wait()
	if accepted.Load() == 0 {
		t.Fatal("readers accepted no records at all")
	}

	// Quiescent: Collect returns exactly the last `depth` records, in order.
	evs := r.Collect()
	if len(evs) != depth {
		t.Fatalf("quiescent collect returned %d records, want %d", len(evs), depth)
	}
	for i, ev := range evs {
		if want := traceEventOf(writes - depth + 1 + uint64(i)); !reflect.DeepEqual(ev, want) {
			t.Fatalf("quiescent record %d: got %+v, want %+v", i, ev, want)
		}
	}
}
