package pskyline

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"pskyline/internal/core"
)

// Checkpoint files open with a magic string and a format version so that a
// restore can tell "not a checkpoint at all" from "a checkpoint this build
// cannot read" — both with a clear error instead of a gob decode failure
// deep in the stream.
var ckptMagic = []byte("PSKYCKPT")

// ckptVersion is the current checkpoint format version. Bump it whenever the
// encoded layout changes incompatibly; old builds then reject new files (and
// vice versa) up front.
const ckptVersion = 1

const ckptHdrLen = 12 // magic + uint32 version

// monitorSnapshot wraps the engine checkpoint with the monitor's own state.
// LastTS and ShardWindow were added for sharded monitors; gob tolerates the
// added fields in both directions (older checkpoints restore them as zero),
// so the format version is unchanged.
type monitorSnapshot struct {
	Period int64
	Data   map[uint64]any
	// ProbSum and ProbCount carry the occurrence-probability running sum
	// behind the mean-probability and theory-bound gauges across restarts.
	ProbSum   float64
	ProbCount uint64
	// LastTS is the highest ingested element timestamp — for shard members
	// it seeds the recovered global watermark.
	LastTS int64
	// ShardWindow is the logical count window of a shard member (0 for
	// standalone monitors and time windows): the shard engine itself runs
	// windowless, so the Open-time configuration check needs it recorded
	// here.
	ShardWindow int
}

// Snapshot writes a checkpoint of the monitor to w: a versioned header, then
// the full candidate set with exact probabilities, stream position, window
// state, statistics and element payloads. Payload values are encoded with
// encoding/gob — custom payload types must be registered with gob.Register
// before snapshotting and restoring. Callbacks are configuration, not state;
// re-supply them to RestoreMonitor.
//
// Snapshot captures the ingested state: with an async queue, elements still
// sitting in the queue are NOT part of the checkpoint even though their
// Push already returned. Call Drain first to checkpoint a deterministic
// cut of the stream.
func (m *Monitor) Snapshot(w io.Writer) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.snapshotLocked(w)
}

// snapshotLocked is the checkpoint writer shared by Snapshot and the
// durability subsystem's automatic checkpoints. Callers hold m.mu.
func (m *Monitor) snapshotLocked(w io.Writer) error {
	var hdr [ckptHdrLen]byte
	copy(hdr[:], ckptMagic)
	binary.LittleEndian.PutUint32(hdr[8:], ckptVersion)
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("pskyline: snapshot: %w", err)
	}
	shardWindow := 0
	if m.opts.shard != nil {
		shardWindow = m.opts.shard.window
	}
	enc := gob.NewEncoder(w)
	if err := enc.Encode(monitorSnapshot{
		Period:      m.period,
		Data:        m.data,
		ProbSum:     m.probSum,
		ProbCount:   m.probCount,
		LastTS:      m.lastTS,
		ShardWindow: shardWindow,
	}); err != nil {
		return fmt.Errorf("pskyline: snapshot: %w", err)
	}
	return m.eng.SnapshotTo(enc)
}

// readSnapshotHeader validates the checkpoint magic and format version.
func readSnapshotHeader(r io.Reader) error {
	var hdr [ckptHdrLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("pskyline: restore: reading checkpoint header: %w", err)
	}
	if !bytes.Equal(hdr[:8], ckptMagic) {
		return errors.New("pskyline: restore: not a pskyline checkpoint (bad magic)")
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != ckptVersion {
		return fmt.Errorf("pskyline: restore: checkpoint format version %d, this build reads version %d", v, ckptVersion)
	}
	return nil
}

// RestoreOptions re-attaches configuration that is not part of a
// checkpoint: callbacks and continuous top-k tracking.
type RestoreOptions struct {
	OnEnter func(SkyPoint)
	OnLeave func(SkyPoint)
	// TopK, TopKMinQ and OnTopK re-enable continuous top-k monitoring, as
	// in Options.
	TopK     int
	TopKMinQ float64
	OnTopK   func([]SkyPoint)
	// AsyncQueue re-enables the bounded async ingestion queue, as in
	// Options.
	AsyncQueue int
	// TraceDepth sizes the restored monitor's trace ring, as in Options.
	// The ring starts empty: transitions are recorded from the next Push.
	TraceDepth int
}

// RestoreMonitor reads a checkpoint written by Snapshot and returns a
// monitor that continues exactly where the snapshotted one stopped.
func RestoreMonitor(r io.Reader, ro RestoreOptions) (*Monitor, error) {
	m, err := restoreCore(r, Options{
		OnEnter: ro.OnEnter, OnLeave: ro.OnLeave,
		TopK: ro.TopK, TopKMinQ: ro.TopKMinQ, OnTopK: ro.OnTopK,
		AsyncQueue: ro.AsyncQueue, TraceDepth: ro.TraceDepth,
	})
	if err != nil {
		return nil, err
	}
	return m.finish(), nil
}

// restoreCore decodes a checkpoint into a monitor carrying opt's
// configuration, without publishing a view or starting background
// goroutines — the recovery path replays the WAL tail first.
func restoreCore(r io.Reader, opt Options) (*Monitor, error) {
	if err := readSnapshotHeader(r); err != nil {
		return nil, err
	}
	dec := gob.NewDecoder(r)
	var ms monitorSnapshot
	if err := dec.Decode(&ms); err != nil {
		return nil, fmt.Errorf("pskyline: restore: %w", err)
	}
	m := &Monitor{
		data:            ms.Data,
		period:          ms.Period,
		opts:            opt,
		probSum:         ms.ProbSum,
		probCount:       ms.ProbCount,
		lastTS:          ms.LastTS,
		snapShardWindow: ms.ShardWindow,
	}
	if m.data == nil {
		m.data = make(map[uint64]any)
	}
	m.trace = newTraceRing(opt.TraceDepth)
	eng, err := core.RestoreFrom(dec, core.RestoreOptions{
		OnChange: m.onChange,
		Metrics:  &m.met.eng,
	})
	if err != nil {
		return nil, fmt.Errorf("pskyline: restore: %w", err)
	}
	m.eng = eng
	if err := m.initTopK(); err != nil {
		return nil, fmt.Errorf("pskyline: restore: %w", err)
	}
	m.dims = eng.Dims()
	return m, nil
}
