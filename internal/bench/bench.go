// Package bench is the experiment harness that regenerates every figure of
// the paper's evaluation (Section V). Each FigN function runs the paper's
// parameter sweep and writes the corresponding series as aligned text rows;
// cmd/pskybench exposes them on the command line and the repository-root
// benchmarks reuse the same runners.
//
// The default scale is reduced from the paper's n = 2M, N = 1M to keep a
// full reproduction in the minutes range; pass a larger Scale to approach
// the paper's sizes. Shapes (who wins, growth directions, crossovers), not
// absolute timings, are the reproduction target.
package bench

import (
	"fmt"
	"io"
	"time"

	"pskyline/internal/core"
	"pskyline/internal/naive"
	"pskyline/internal/stats"
	"pskyline/internal/streamgen"
)

// Scale sets the stream length and window size of every experiment.
type Scale struct {
	N      int // stream length (paper: 2,000,000)
	Window int // sliding window size (paper: 1,000,000)
}

// DefaultScale finishes the full suite in a few minutes.
var DefaultScale = Scale{N: 200_000, Window: 100_000}

// PaperScale matches the paper's Table II defaults.
var PaperScale = Scale{N: 2_000_000, Window: 1_000_000}

// Dataset names a spatial distribution + probability model combination used
// in the figures.
type Dataset struct {
	Name  string
	Dims  int
	Dist  streamgen.Distribution
	Prob  streamgen.ProbModel
	Stock bool
}

func (d Dataset) stream(seed int64) streamgen.Stream {
	if d.Stock {
		return streamgen.NewStock(d.Prob, seed)
	}
	return streamgen.New(d.Dims, d.Dist, d.Prob, seed)
}

// Config is one experiment run.
type Config struct {
	Dataset    Dataset
	N          int
	Window     int
	Thresholds []float64
	Seed       int64
}

// batchSize is the measurement granularity: like the paper, per-element
// delay is estimated from batches of 1K elements (a single push is too
// short to time).
const batchSize = 1000

// Outcome reports one run's measurements.
type Outcome struct {
	Elems       int
	MaxCand     int
	MaxSky      int
	Duration    time.Duration
	NsPerElem   float64
	ElemsPerSec float64
	// P50NsPerElem and P99NsPerElem are per-element delays of the median
	// and 99th-percentile 1K-element batches: tail behaviour matters for
	// the paper's "real time" claim.
	P50NsPerElem float64
	P99NsPerElem float64
	// Counters are the engine's work counters over the run.
	Counters core.Counters
}

// Run streams cfg.N elements through a fresh engine and measures wall time
// of the push loop, batch by batch.
func Run(cfg Config) Outcome {
	if cfg.Thresholds == nil {
		cfg.Thresholds = []float64{0.3}
	}
	eng, err := core.NewEngine(core.Options{
		Dims:       cfg.Dataset.Dims,
		Window:     cfg.Window,
		Thresholds: cfg.Thresholds,
	})
	if err != nil {
		panic(err)
	}
	src := cfg.Dataset.stream(cfg.Seed)
	// Pre-generate so the generator cost stays out of the timed loop.
	elems := make([]streamgen.Element, cfg.N)
	for i := range elems {
		elems[i] = src.Next()
	}
	var batches []float64
	var total time.Duration
	for off := 0; off < len(elems); off += batchSize {
		end := off + batchSize
		if end > len(elems) {
			end = len(elems)
		}
		start := time.Now()
		for _, el := range elems[off:end] {
			if _, err := eng.Push(el.Point, el.P, el.TS); err != nil {
				panic(err)
			}
		}
		d := time.Since(start)
		total += d
		batches = append(batches, float64(d.Nanoseconds())/float64(end-off))
	}
	return Outcome{
		Elems:        cfg.N,
		MaxCand:      eng.MaxCandidateSize(),
		MaxSky:       eng.MaxSkylineSize(),
		Duration:     total,
		NsPerElem:    float64(total.Nanoseconds()) / float64(cfg.N),
		ElemsPerSec:  float64(cfg.N) / total.Seconds(),
		P50NsPerElem: stats.Quantile(batches, 0.5),
		P99NsPerElem: stats.Quantile(batches, 0.99),
		Counters:     eng.Counters(),
	}
}

// RunTrivial streams cfg.N elements through the paper's trivial baseline
// (single threshold only).
func RunTrivial(cfg Config) Outcome {
	q := 0.3
	if len(cfg.Thresholds) > 0 {
		q = cfg.Thresholds[len(cfg.Thresholds)-1]
	}
	tr := naive.NewTrivial(cfg.Window, q)
	src := cfg.Dataset.stream(cfg.Seed)
	elems := make([]streamgen.Element, cfg.N)
	for i := range elems {
		elems[i] = src.Next()
	}
	start := time.Now()
	maxCand, maxSky := 0, 0
	for _, el := range elems {
		tr.Push(el.Point, el.P)
		if s := tr.Size(); s > maxCand {
			maxCand = s
		}
	}
	d := time.Since(start)
	maxSky = tr.SkylineSize()
	return Outcome{
		Elems:       cfg.N,
		MaxCand:     maxCand,
		MaxSky:      maxSky,
		Duration:    d,
		NsPerElem:   float64(d.Nanoseconds()) / float64(cfg.N),
		ElemsPerSec: float64(cfg.N) / d.Seconds(),
	}
}

// standardDatasets are the four dataset families of Figure 4/8. The stock
// stream is 2-dimensional by construction and is only reported at d = 2.
func standardDatasets(dims int) []Dataset {
	out := []Dataset{
		{Name: "Inde-Uniform", Dims: dims, Dist: streamgen.Independent, Prob: streamgen.UniformProb{}},
		{Name: "Anti-Uniform", Dims: dims, Dist: streamgen.Anticorrelated, Prob: streamgen.UniformProb{}},
		{Name: "Anti-Normal", Dims: dims, Dist: streamgen.Anticorrelated, Prob: streamgen.NormalProb{Mu: 0.5, Sd: 0.3}},
	}
	if dims == 2 {
		out = append(out, Dataset{Name: "Stock-Uniform", Dims: 2, Prob: streamgen.UniformProb{}, Stock: true})
	}
	return out
}

func anti(dims int) Dataset {
	return Dataset{Name: "Anti-Uniform", Dims: dims, Dist: streamgen.Anticorrelated, Prob: streamgen.UniformProb{}}
}

func header(w io.Writer, title string, cols ...string) {
	fmt.Fprintf(w, "\n# %s\n", title)
	for _, c := range cols {
		fmt.Fprintf(w, "%-16s", c)
	}
	fmt.Fprintln(w)
}
