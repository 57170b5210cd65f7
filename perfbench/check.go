package main

import (
	"fmt"
	"math"

	"pskyline"
	"pskyline/internal/core"
	"pskyline/internal/geom"
)

// answer is one reported candidate: its sequence number and the exact
// bits of its skyline probability.
type answer struct {
	Seq  uint64
	Psky uint64
}

// newEngine returns a bare engine configured like the workload's operator.
func newEngine(w workload) (*core.Engine, error) {
	return core.NewEngine(core.Options{Dims: w.dims, Window: w.window, Thresholds: w.qs})
}

// engineBatch converts elements to the engine's batch form.
func engineBatch(es []pskyline.Element, buf []core.BatchElem) []core.BatchElem {
	buf = buf[:0]
	for _, e := range es {
		buf = append(buf, core.BatchElem{Point: geom.Point(e.Point), P: e.Prob, TS: e.TS})
	}
	return buf
}

// reference feeds a bare engine the prefill and the first n timed-stream
// elements: exactly what a system that consumed n elements was fed.
func reference(w workload, in *inputs, n int) (*core.Engine, error) {
	eng, err := newEngine(w)
	if err != nil {
		return nil, err
	}
	var buf []core.BatchElem
	var scratch []pskyline.Element
	feed := func(es []pskyline.Element) (uint64, error) {
		buf = engineBatch(es, buf)
		return eng.PushBatch(buf)
	}
	if err := in.fill(feed); err != nil {
		return nil, err
	}
	for off := 0; off < n; off += prefillChunk {
		scratch = in.slice(off, min(prefillChunk, n-off), scratch)
		if _, err := feed(scratch); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

// engineAnswers lists the engine's first bands in the order a View
// publishes them: band by band, each by descending Psky then Seq.
func engineAnswers(eng *core.Engine, bands int) []answer {
	var out []answer
	for i := 0; i < bands; i++ {
		for _, r := range eng.BandResults(i) {
			out = append(out, answer{r.Seq, math.Float64bits(r.Psky)})
		}
	}
	return out
}

func viewAnswers(v *pskyline.View) []answer {
	cs := v.Candidates()
	out := make([]answer, len(cs))
	for i, p := range cs {
		out[i] = answer{p.Seq, math.Float64bits(p.Psky)}
	}
	return out
}

// compareView checks that a published view holds exactly the reference
// engine's candidate set, with bit-equal skyline probabilities.
func compareView(what string, v *pskyline.View, ref *core.Engine) error {
	if v.Processed() != ref.Processed() {
		return fmt.Errorf("%s: processed %d, reference %d", what, v.Processed(), ref.Processed())
	}
	return compareAnswers(what, viewAnswers(v), engineAnswers(ref, len(ref.Thresholds())+1))
}

// compareViews checks that a follower's view equals the primary's.
func compareViews(follower, primary *pskyline.View) error {
	if follower.Processed() != primary.Processed() {
		return fmt.Errorf("follower: processed %d, primary %d", follower.Processed(), primary.Processed())
	}
	return compareAnswers("follower", viewAnswers(follower), viewAnswers(primary))
}

func compareAnswers(what string, got, want []answer) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d candidates, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s: candidate %d is seq %d psky %v, reference seq %d psky %v", what, i,
				got[i].Seq, math.Float64frombits(got[i].Psky), want[i].Seq, math.Float64frombits(want[i].Psky))
		}
	}
	return nil
}
