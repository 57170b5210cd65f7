// Package obs is the operator's allocation-free observability core: atomic
// counters and gauges, fixed-bucket log2 latency histograms, and a metric
// registry that renders the Prometheus text format.
//
// Everything on the recording side — Counter.Add, Gauge.Set,
// Histogram.Record — is a handful of atomic operations into fixed storage:
// no allocation, no locks, no map lookups. That is what lets the skyline
// engine's steady-state ingestion path stay at 0 allocs/op with metrics
// enabled (the pinned TestSteadyStatePushAllocs budget). The reading side
// (Snapshot, the exporter) allocates freely; it runs on scrape requests,
// not in the hot path.
//
// Concurrency model: SINGLE WRITER, lock-free readers — the same contract
// as the engine these metrics instrument. At most one goroutine may record
// into a given Counter/Histogram at a time (successive writers must be
// serialized externally, e.g. by the Monitor's ingestion mutex, which
// establishes the required happens-before). This allows recording to use
// plain atomic load/store pairs instead of LOCK-prefixed read-modify-write
// instructions, roughly halving the hot-path cost; concurrent writers
// would lose increments, never corrupt memory. Readers may run from any
// goroutine at any time: they observe each atomic individually, so a
// snapshot taken concurrently with recording is not a point-in-time cut
// across fields (a histogram's count may be one ahead of its sum); every
// individual value is consistent and monotone.
package obs

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing counter: one writer at a time,
// lock-free readers (see the package comment).
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n. Single writer only.
func (c *Counter) Add(n uint64) { c.v.Store(c.v.Load() + n) }

// Inc increments the counter by one. Single writer only.
func (c *Counter) Inc() { c.v.Store(c.v.Load() + 1) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an atomically settable float64 value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// SetInt stores an integer value.
func (g *Gauge) SetInt(v int) { g.Set(float64(v)) }

// Load returns the current value.
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }
