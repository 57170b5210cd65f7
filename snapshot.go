package pskyline

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"slices"

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
// re-supply them in the Options passed to RestoreMonitor.
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

// RestoreMonitor reads a checkpoint written by Snapshot and returns a
// monitor that continues exactly where the snapshotted one stopped. opt is
// checked against the checkpoint exactly as Open checks it: Dims, Window or
// Period and the thresholds (as a set) must be those of the snapshotted
// monitor, and MaxEntries is taken from the checkpoint. The rest of opt —
// callbacks, continuous top-k, the async queue, latency tracking —
// configures the restored monitor. A durable monitor is reopened with Open,
// so opt.Durability.Dir must be empty.
func RestoreMonitor(r io.Reader, opt Options) (*Monitor, error) {
	if opt.Durability.Dir != "" {
		return nil, errors.New("pskyline: RestoreMonitor does not take Durability.Dir: reopen a durable directory with Open")
	}
	m, _, err := restoreChecked(r, opt)
	if err != nil {
		return nil, err
	}
	return m.finish(), nil
}

// restoreChecked is the checkpoint step Open and RestoreMonitor share: a
// monitor built from opt takes the state decoded from r, and opt is then
// checked against everything the checkpoint fixes. It neither publishes a
// view nor starts goroutines — Open replays the WAL tail first. undecodable
// reports that r did not decode, the one failure after which Open tries an
// older checkpoint; a bad option or a configuration mismatch is final.
func restoreChecked(r io.Reader, opt Options) (m *Monitor, undecodable bool, err error) {
	if m, err = newMonitorBase(opt); err != nil {
		return nil, false, err
	}
	if err = m.restoreCore(r); err != nil {
		return nil, true, err
	}
	if err = m.checkConfig(opt); err != nil {
		return nil, false, err
	}
	if err = m.initTopK(); err != nil {
		return nil, false, fmt.Errorf("pskyline: %w", err)
	}
	return m, false, nil
}

// restoreCore decodes a checkpoint into m, a monitor fresh from
// newMonitorBase.
func (m *Monitor) restoreCore(r io.Reader) error {
	if err := readSnapshotHeader(r); err != nil {
		return err
	}
	dec := gob.NewDecoder(r)
	var ms monitorSnapshot
	if err := dec.Decode(&ms); err != nil {
		return fmt.Errorf("pskyline: restore: %w", err)
	}
	if ms.Data != nil {
		m.data = ms.Data
	}
	m.period = ms.Period
	m.probSum, m.probCount = ms.ProbSum, ms.ProbCount
	m.lastTS = ms.LastTS
	m.snapShardWindow = ms.ShardWindow
	eng, err := core.RestoreFrom(dec, core.RestoreOptions{
		OnChange: m.onChange,
		Metrics:  &m.met.eng,
	})
	if err != nil {
		return fmt.Errorf("pskyline: restore: %w", err)
	}
	m.eng = eng
	m.dims = eng.Dims()
	return nil
}

// checkConfig verifies that opt agrees with the restored checkpoint on
// everything the checkpoint fixes: the dimensionality, the window and the
// threshold set.
func (m *Monitor) checkConfig(opt Options) error {
	if opt.Dims != m.eng.Dims() {
		return fmt.Errorf("pskyline: Options.Dims=%d but the checkpoint has %d dimensions", opt.Dims, m.eng.Dims())
	}
	if opt.shard != nil {
		// Shard engines run windowless; the logical count window is
		// recorded in the checkpoint instead.
		if opt.shard.window != m.snapShardWindow {
			return fmt.Errorf("pskyline: shard window %d but the checkpoint has window %d", opt.shard.window, m.snapShardWindow)
		}
	} else if opt.Window != m.eng.Window() {
		return fmt.Errorf("pskyline: Options.Window=%d but the checkpoint has window %d", opt.Window, m.eng.Window())
	}
	if opt.Period != m.period {
		return fmt.Errorf("pskyline: Options.Period=%d but the checkpoint has period %d", opt.Period, m.period)
	}
	// Compare thresholds as the engine normalizes them: sorted descending,
	// duplicates dropped.
	ths := slices.Clone(opt.Thresholds)
	slices.Sort(ths)
	slices.Reverse(ths)
	if got := m.eng.Thresholds(); !slices.Equal(slices.Compact(ths), got) {
		return fmt.Errorf("pskyline: Options.Thresholds=%v but the checkpoint maintains thresholds %v", opt.Thresholds, got)
	}
	return nil
}
