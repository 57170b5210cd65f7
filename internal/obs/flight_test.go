package obs

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// spanOf builds a span whose every field is derived from k.
func spanOf(k uint64) Span {
	sp := Span{
		Seq:       k,
		Batch:     int32(k%1000 + 1),
		Shard:     int32(k % 7),
		Queue:     int32(k % 11),
		AdmitNs:   int64(k * 3),
		WaitNs:    int64(k * 5),
		ApplyNs:   int64(k * 7),
		PublishNs: int64(k * 11),
		TotalNs:   int64(k*5 + k*7 + k*11),
	}
	for i := range sp.StageNs {
		sp.StageNs[i] = int64(k + uint64(i))
	}
	return sp
}

// TestSpanRingWrapTornReads is the seqlock torture test of Ring with the
// flight-span payload: a depth-4 ring wraps every four records while four
// readers collect continuously. Every span they accept must be one record's
// consistent field set — a reader that sees a torn (odd or changed) version
// must skip, never return a mix. Run under -race this also proves the
// atomics discipline. The skyline trace payload gets the same test in the
// root package.
func TestSpanRingWrapTornReads(t *testing.T) {
	const depth = 4
	const writes = 200_000
	r := NewRing(depth, spanWords, encodeSpan, decodeSpan)

	var stop atomic.Bool
	var wg sync.WaitGroup
	var accepted atomic.Uint64
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				for _, sp := range r.Collect() {
					if want := spanOf(sp.Seq); sp != want {
						t.Errorf("torn span: got %+v, want %+v", sp, want)
						return
					}
					accepted.Add(1)
				}
			}
		}()
	}
	for k := uint64(1); k <= writes; k++ {
		r.Record(spanOf(k))
	}
	stop.Store(true)
	wg.Wait()
	if accepted.Load() == 0 {
		t.Fatal("readers accepted no spans at all")
	}

	// Quiescent: Collect returns exactly the last `depth` spans, in order.
	got := r.Collect()
	if len(got) != depth {
		t.Fatalf("quiescent collect returned %d spans, want %d", len(got), depth)
	}
	for i, sp := range got {
		if want := spanOf(writes - depth + 1 + uint64(i)); sp != want {
			t.Fatalf("quiescent span %d: got %+v, want %+v", i, sp, want)
		}
	}
}

func TestRingDepthRounding(t *testing.T) {
	for _, c := range []struct{ depth, want int }{
		{0, 1}, {1, 1}, {3, 4}, {4, 4}, {100, 128},
	} {
		r := NewRing(c.depth, spanWords, encodeSpan, decodeSpan)
		if got := int(r.mask + 1); got != c.want || len(r.words) != c.want*r.stride {
			t.Errorf("NewRing(%d): %d slots in %d words, want %d slots", c.depth, got, len(r.words), c.want)
		}
	}
	// A flight slot is the version word plus the span's payload: 18 words.
	if stride := NewRing(1, spanWords, encodeSpan, decodeSpan).stride; stride != 18 {
		t.Errorf("flight slot = %d words, want 18", stride)
	}
}

func TestFlightRecorderSlowLatch(t *testing.T) {
	f := NewFlightRecorder(8, 4, time.Millisecond)
	if f.Threshold() != time.Millisecond {
		t.Fatalf("threshold %v", f.Threshold())
	}
	// 20 fast spans cycle the recent ring; 2 slow ones latch.
	for k := uint64(1); k <= 20; k++ {
		sp := spanOf(k)
		sp.TotalNs = int64(50 * time.Microsecond)
		f.Record(&sp)
	}
	for _, k := range []uint64{100, 200} {
		sp := spanOf(k)
		sp.TotalNs = int64(3 * time.Millisecond)
		f.Record(&sp)
	}
	if f.Recorded() != 22 || f.SlowLatched() != 2 {
		t.Fatalf("recorded=%d slow=%d", f.Recorded(), f.SlowLatched())
	}
	slow := f.Slow()
	if len(slow) != 2 || slow[0].Seq != 100 || slow[1].Seq != 200 {
		t.Fatalf("slow ring: %+v", slow)
	}
	recent := f.Recent()
	if len(recent) != 8 {
		t.Fatalf("recent ring holds %d", len(recent))
	}
	// The slow spans are also the most recent ones.
	if recent[len(recent)-1].Seq != 200 {
		t.Fatalf("recent tail: %+v", recent[len(recent)-1])
	}

	// Defaults kick in for zeroed config.
	d := NewFlightRecorder(0, 0, 0)
	if d.Threshold() != DefaultSlowThreshold || d.recent.mask+1 != DefaultFlightDepth || d.slow.mask+1 != DefaultSlowDepth {
		t.Fatalf("defaults: %v %d %d", d.Threshold(), d.recent.mask+1, d.slow.mask+1)
	}
}

// TestFlightRecordAllocs pins the flight-recording hot path (including a
// slow latch) at zero allocations.
func TestFlightRecordAllocs(t *testing.T) {
	f := NewFlightRecorder(16, 8, time.Microsecond)
	k := uint64(0)
	if avg := testing.AllocsPerRun(2000, func() {
		k++
		sp := spanOf(k)
		sp.TotalNs = int64(time.Millisecond) // always latches
		f.Record(&sp)
	}); avg != 0 {
		t.Fatalf("flight Record allocated %.2f allocs/op, want 0", avg)
	}
}
