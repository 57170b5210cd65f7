package core

import (
	"encoding/gob"
	"fmt"
	"io"

	"pskyline/internal/aggrtree"
	"pskyline/internal/geom"
	"pskyline/internal/prob"
)

// snapshotVersion guards the checkpoint format.
const snapshotVersion = 1

// snapshotItem is one candidate element in a checkpoint, with its exact
// (lazy-resolved) probabilities.
type snapshotItem struct {
	Seq   uint64
	Point []float64
	P     float64
	TS    int64
	Band  int
	Pnew  prob.Factor
	Pold  prob.Factor
}

// snapshot is the engine's full persistent state.
type snapshot struct {
	Version    int
	Dims       int
	Window     int
	Thresholds []float64
	MaxEntries int
	Eager      bool

	Next      uint64
	Processed uint64
	MaxCand   int
	MaxSky    int
	Counters  Counters

	TrackArrivals bool
	Arrivals      []arrival

	Items []snapshotItem
}

// Snapshot writes a checkpoint of the engine to w. The checkpoint captures
// the full candidate set with exact probabilities, the stream position, the
// time-window arrival queue and all statistics; restoring it and continuing
// the stream is indistinguishable from never having stopped. OnChange
// callbacks are configuration, not state, and must be re-supplied at
// restore.
func (e *Engine) Snapshot(w io.Writer) error {
	return e.SnapshotTo(gob.NewEncoder(w))
}

// SnapshotTo writes the checkpoint through an existing gob encoder, so a
// caller can prepend its own state on the same stream (a gob decoder reads
// ahead, so a stream must be decoded by a single decoder).
func (e *Engine) SnapshotTo(enc *gob.Encoder) error {
	s := snapshot{
		Version:       snapshotVersion,
		Dims:          e.dims,
		Window:        e.window,
		Thresholds:    e.Thresholds(),
		MaxEntries:    e.maxEntries,
		Eager:         e.eager,
		Next:          e.next,
		Processed:     e.processed,
		MaxCand:       e.maxCand,
		MaxSky:        e.maxSky,
		Counters:      e.counters,
		TrackArrivals: e.trackArrivals,
		Arrivals:      e.arrivals,
	}
	for band, tr := range e.trees {
		band := band
		tr.WalkItems(func(it *aggrtree.Item, pnew, pold prob.Factor) bool {
			s.Items = append(s.Items, snapshotItem{
				Seq:   it.Seq,
				Point: it.Point,
				P:     it.P,
				TS:    it.TS,
				Band:  band,
				Pnew:  pnew,
				Pold:  pold,
			})
			return true
		})
	}
	if err := enc.Encode(&s); err != nil {
		return fmt.Errorf("core: snapshot: %w", err)
	}
	return nil
}

// RestoreOptions carries the configuration that is not part of a
// checkpoint's state.
type RestoreOptions struct {
	// OnChange re-attaches a band-transition callback.
	OnChange func(Event)
	// Metrics re-attaches a per-stage latency instrumentation block
	// (instrumentation is configuration, not state: histograms restart
	// empty in the restored process).
	Metrics *Metrics
	// IncrementalRestore rebuilds the band trees by inserting the
	// checkpointed elements one at a time through the regular insertion
	// path instead of STR bulk-loading — the reference the bulk-load
	// differential tests compare against. The resulting engines answer
	// every query identically; only the tree shape (and restore time)
	// differs.
	IncrementalRestore bool
}

// Restore reads a checkpoint written by Snapshot and returns an engine that
// continues exactly where the snapshotted one stopped.
func Restore(r io.Reader, ro RestoreOptions) (*Engine, error) {
	return RestoreFrom(gob.NewDecoder(r), ro)
}

// RestoreFrom reads a checkpoint through an existing gob decoder (the
// counterpart of SnapshotTo).
func RestoreFrom(dec *gob.Decoder, ro RestoreOptions) (*Engine, error) {
	var s snapshot
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	if s.Version != snapshotVersion {
		return nil, fmt.Errorf("core: restore: snapshot version %d, want %d", s.Version, snapshotVersion)
	}
	e, err := NewEngine(Options{
		Dims:             s.Dims,
		Window:           s.Window,
		Thresholds:       s.Thresholds,
		MaxEntries:       s.MaxEntries,
		TrackArrivals:    s.TrackArrivals,
		EagerPropagation: s.Eager,
		OnChange:         ro.OnChange,
		Metrics:          ro.Metrics,
	})
	if err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	var bandItems [][]*aggrtree.Item
	if !ro.IncrementalRestore {
		bandItems = make([][]*aggrtree.Item, len(e.trees))
	}
	for _, si := range s.Items {
		if si.Band < 0 || si.Band >= len(e.trees) {
			return nil, fmt.Errorf("core: restore: item %d has band %d of %d", si.Seq, si.Band, len(e.trees))
		}
		if len(si.Point) != s.Dims {
			return nil, fmt.Errorf("core: restore: item %d has %d dims, want %d", si.Seq, len(si.Point), s.Dims)
		}
		if _, dup := e.inS[si.Seq]; dup {
			return nil, fmt.Errorf("core: restore: duplicate item %d", si.Seq)
		}
		it := e.newItem(geom.Point(si.Point), si.P, si.Seq)
		it.TS = si.TS
		it.Pnew = si.Pnew
		it.Pold = si.Pold
		if ro.IncrementalRestore {
			e.trees[si.Band].InsertItem(it)
		} else {
			bandItems[si.Band] = append(bandItems[si.Band], it)
		}
		e.inS[si.Seq] = it
	}
	for b, its := range bandItems {
		if len(its) > 0 {
			e.trees[b].BulkLoad(its)
		}
	}
	e.next = s.Next
	e.processed = s.Processed
	e.maxCand = s.MaxCand
	e.maxSky = s.MaxSky
	e.counters = s.Counters
	e.arrivals = s.Arrivals
	return e, nil
}
