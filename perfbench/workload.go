package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"pskyline"
	"pskyline/internal/streamgen"
)

// sutKind selects the system under test a workload drives.
type sutKind int

const (
	// inProc is an in-memory Monitor in this process.
	inProc sutKind = iota
	// semiSync is a durable primary with one loopback follower acking
	// every push (SemiSyncK=1), both in this process.
	semiSync
	// httpServe is a `pskyline -http -streams` subprocess with one durable
	// stream, driven over loopback HTTP.
	httpServe
)

// workload is one traffic mix: the data family, the operator
// configuration, the writer's call shape and the reader's think time.
// Every workload runs one closed-loop writer and one closed-loop reader.
type workload struct {
	name string
	kind sutKind
	dims int
	dist streamgen.Distribution
	// window is the count window N; the system is prefilled to a full
	// window before any clock starts.
	window int
	// qs are the maintained thresholds, descending.
	qs []float64
	// batch is the number of elements per write call; 1 selects
	// element-wise Push.
	batch int
	// mixRead makes each read View → Query(0.6) → TopK(10, q_k) →
	// Skyline instead of a single Skyline.
	mixRead bool
	// think is the reader's sleep between reads.
	think time.Duration
	// pool is how many timed-phase elements are generated per system. A
	// writer that outruns the pool cycles through it again in order.
	pool int
}

// workloads is the benchmark's workload table; BENCHMARK.json lists the
// same names with the reason each one exists.
var workloads = []workload{
	{
		// Publication is nearly all of an element-wise Push here.
		name: "point-writes", kind: inProc, dims: 3, dist: streamgen.Anticorrelated,
		window: 100_000, qs: []float64{0.3}, batch: 1,
		think: 500 * time.Microsecond, pool: 1 << 15,
	},
	{
		// Batching amortizes publication: the engine and the read path
		// dominate.
		name: "batch-read-mix", kind: inProc, dims: 3, dist: streamgen.Anticorrelated,
		window: 100_000, qs: []float64{0.7, 0.5, 0.3}, batch: 64, mixRead: true,
		think: 500 * time.Microsecond, pool: 1 << 18,
	},
	{
		// The semi-sync commit wait dominates: WAL and replication.
		name: "semisync-writes", kind: semiSync, dims: 3, dist: streamgen.Anticorrelated,
		window: 100_000, qs: []float64{0.3}, batch: 16,
		think: 500 * time.Microsecond, pool: 1 << 15,
	},
	{
		// The only path through NDJSON decode and JSON encode; small
		// independent-data skylines leave HTTP as the dominant cost.
		name: "http-ingest", kind: httpServe, dims: 2, dist: streamgen.Independent,
		window: 100_000, qs: []float64{0.3}, batch: 64,
		think: 2 * time.Millisecond, pool: 1 << 19,
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// minQ is the smallest maintained threshold q_k.
func (w workload) minQ() float64 { return w.qs[len(w.qs)-1] }

// inputs is one system's generated stream: window prefill elements that
// fill the window during set-up, then pool elements the timed phase (or
// the traced ladder) feeds, in order. The stream is kept in flat,
// pointer-free arrays so the garbage collector never scans it; element
// values are assembled on demand.
type inputs struct {
	dims, window, pool int
	coords             []float64
	probs              []float64
	ts                 []int64
}

// genInputs generates the workload's input from seed. The same seed
// always gives the same elements; nothing else feeds the systems.
func genInputs(w workload, seed int64) *inputs {
	g := streamgen.New(w.dims, w.dist, streamgen.UniformProb{}, seed)
	n := w.window + w.pool
	in := &inputs{dims: w.dims, window: w.window, pool: w.pool,
		coords: make([]float64, 0, n*w.dims), probs: make([]float64, n), ts: make([]int64, n)}
	for i := 0; i < n; i++ {
		e := g.Next()
		in.coords = append(in.coords, e.Point...)
		in.probs[i], in.ts[i] = e.P, e.TS
	}
	return in
}

// elem assembles stream element i; its Point aliases the flat array.
func (in *inputs) elem(i int) pskyline.Element {
	d := in.dims
	return pskyline.Element{Point: in.coords[i*d : (i+1)*d : (i+1)*d], Prob: in.probs[i], TS: in.ts[i]}
}

// prefill returns prefill elements [off, off+n) in buf.
func (in *inputs) prefill(off, n int, buf []pskyline.Element) []pskyline.Element {
	buf = buf[:0]
	for i := off; i < off+n; i++ {
		buf = append(buf, in.elem(i))
	}
	return buf
}

// slice returns timed-stream elements [off, off+n) in buf, cycling
// through the pool.
func (in *inputs) slice(off, n int, buf []pskyline.Element) []pskyline.Element {
	buf = buf[:0]
	for i := off; i < off+n; i++ {
		buf = append(buf, in.elem(in.window+i%in.pool))
	}
	return buf
}

// prefillChunk is the write size used to fill the window during set-up.
const prefillChunk = 1024

// fill feeds the whole prefill through push in prefillChunk-sized calls.
func (in *inputs) fill(push func([]pskyline.Element) (uint64, error)) error {
	var buf []pskyline.Element
	for off := 0; off < in.window; off += prefillChunk {
		buf = in.prefill(off, min(prefillChunk, in.window-off), buf)
		if _, err := push(buf); err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
	}
	return nil
}

// digest hashes the prefill and the first n timed-stream elements, so two
// runs can show they consumed the same input.
func (in *inputs) digest(n int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(b uint64) {
		for i := range buf {
			buf[i] = byte(b >> (8 * i))
		}
		h.Write(buf[:])
	}
	add := func(e pskyline.Element) {
		for _, x := range e.Point {
			put(math.Float64bits(x))
		}
		put(math.Float64bits(e.Prob))
		put(uint64(e.TS))
	}
	for i := 0; i < in.window; i++ {
		add(in.elem(i))
	}
	for i := 0; i < n; i++ {
		add(in.elem(in.window + i%in.pool))
	}
	return h.Sum64()
}
