package pskyline_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"pskyline"
	"pskyline/internal/wal"
)

// durStream produces a deterministic payload-free stream (payloads are not
// WAL-logged, and byte-level snapshot comparison needs gob-stable input).
// Timestamps increase by tsStep per element so the same stream drives both
// count- and time-based windows.
func durStream(seed int64, n, dims int, tsStep int64) []pskyline.Element {
	r := rand.New(rand.NewSource(seed))
	out := make([]pskyline.Element, n)
	for i := range out {
		pt := make([]float64, dims)
		s := 0.0
		for d := range pt {
			pt[d] = r.Float64()
			s += pt[d]
		}
		shift := (float64(dims)/2 - s) / float64(dims) * 0.8
		for d := range pt {
			pt[d] += shift
		}
		out[i] = pskyline.Element{Point: pt, Prob: 1 - r.Float64(), TS: int64(i+1) * tsStep}
	}
	return out
}

func pushAll(t *testing.T, m *pskyline.Monitor, els []pskyline.Element) {
	t.Helper()
	for i := range els {
		if _, err := m.Push(els[i]); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
}

// walRecordLen mirrors the internal/wal on-disk record length for
// d-dimensional elements: 8-byte record header + 29-byte fixed payload +
// 8 bytes per coordinate.
func walRecordLen(dims int) int64 { return int64(37 + 8*dims) }

// walSegHdrLen mirrors the internal/wal segment file header (magic) length.
const walSegHdrLen = 8

// lastSegment returns the newest WAL segment in dir and the sequence number
// of its first record (encoded in the file name).
func lastSegment(t *testing.T, dir string) (string, uint64) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no WAL segments in %s (err=%v)", dir, err)
	}
	sort.Strings(names)
	last := names[len(names)-1]
	seqStr := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(last), "wal-"), ".seg")
	seq, err := strconv.ParseUint(seqStr, 10, 64)
	if err != nil {
		t.Fatalf("segment name %s: %v", last, err)
	}
	return last, seq
}

// cutTail simulates a torn write from a power failure: the newest segment is
// truncated at a randomized point — a record boundary when boundary is set,
// mid-record otherwise — and the number of records surviving in the whole
// log is returned, along with whether a torn partial record was left behind
// (a boundary cut leaves a clean-looking shorter file, so recovery has
// nothing to repair there). The cut never drops below minSurvive records (so
// tests that track an external oracle can forbid rolling back behind it).
func cutTail(t *testing.T, dir string, r *rand.Rand, dims int, boundary bool, minSurvive uint64) (uint64, bool) {
	t.Helper()
	path, first := lastSegment(t, dir)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	rl := walRecordLen(dims)
	nRec := (fi.Size() - walSegHdrLen) / rl
	kMin := int64(0)
	if minSurvive > first {
		kMin = int64(minSurvive - first)
	}
	if kMin > nRec {
		t.Fatalf("segment %s holds %d records, below the floor %d", path, nRec, kMin)
	}
	k := kMin + r.Int63n(nRec-kMin+1)
	cut := walSegHdrLen + k*rl
	torn := !boundary && k < nRec
	if torn {
		cut += 1 + r.Int63n(rl-1) // tear the middle of record k+1
	}
	if err := os.Truncate(path, cut); err != nil {
		t.Fatal(err)
	}
	return first + uint64(k), torn
}

// newestCheckpointFile reads the newest installed checkpoint in dir into
// memory (later checkpoints garbage-collect it on disk) and returns its
// stream position.
func newestCheckpointFile(t *testing.T, dir string) ([]byte, uint64) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no checkpoints in %s (err=%v)", dir, err)
	}
	sort.Strings(names)
	last := names[len(names)-1]
	seqStr := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(last), "ckpt-"), ".ckpt")
	seq, err := strconv.ParseUint(seqStr, 10, 64)
	if err != nil {
		t.Fatalf("checkpoint name %s: %v", last, err)
	}
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	return data, seq
}

// newestCheckpointSeq is newestCheckpointFile without the Fatal: it reports
// 0 when no checkpoint is installed.
func newestCheckpointSeq(dir string) uint64 {
	names, err := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt"))
	if err != nil || len(names) == 0 {
		return 0
	}
	sort.Strings(names)
	seqStr := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(names[len(names)-1]), "ckpt-"), ".ckpt")
	seq, _ := strconv.ParseUint(seqStr, 10, 64)
	return seq
}

func snapshotBytes(t *testing.T, m *pskyline.Monitor) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := m.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// semanticSkyline compares two skylines as sets keyed by sequence number:
// membership, points and input probabilities must match exactly, while
// skyline probabilities get an epsilon — a tree rebuilt from a checkpoint
// accumulates its ln-factors in a different order, so the last ULPs of
// P_sky are not preserved across restarts (DESIGN.md §11).
func semanticSkyline(t *testing.T, label string, want, got []pskyline.SkyPoint) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: skyline size %d != %d", label, len(got), len(want))
	}
	ws := append([]pskyline.SkyPoint(nil), want...)
	gs := append([]pskyline.SkyPoint(nil), got...)
	sort.Slice(ws, func(i, j int) bool { return ws[i].Seq < ws[j].Seq })
	sort.Slice(gs, func(i, j int) bool { return gs[i].Seq < gs[j].Seq })
	for i := range ws {
		w, g := ws[i], gs[i]
		if w.Seq != g.Seq || math.Float64bits(w.Prob) != math.Float64bits(g.Prob) {
			t.Fatalf("%s: member %d: want seq=%d p=%v, got seq=%d p=%v",
				label, i, w.Seq, w.Prob, g.Seq, g.Prob)
		}
		if math.Abs(w.Psky-g.Psky) > 1e-9 {
			t.Fatalf("%s: seq %d psky %v != %v", label, w.Seq, g.Psky, w.Psky)
		}
	}
}

func durOpt(dir, fsync string, ckptEvery int) pskyline.Options {
	return pskyline.Options{
		Dims: 3, Window: 64, Thresholds: []float64{0.3, 0.6},
		Durability: pskyline.Durability{
			Dir: dir, Fsync: fsync, SegmentBytes: 4096, CheckpointEvery: ckptEvery,
		},
	}
}

func mustOpen(t *testing.T, opt pskyline.Options) *pskyline.Monitor {
	t.Helper()
	m, err := pskyline.Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCrashRecoveryDifferential is the core recovery proof for the
// checkpoint-free path: after a crash — and, on even trials, a torn tail cut
// at a randomized offset (record boundary or mid-record) — Open must
// rebuild, by pure log replay, a state byte-identical to a monitor that
// ingested exactly the surviving prefix without ever crashing, and both must
// continue identically afterwards. Byte-identity is asserted at two levels:
// the published view (bit-for-bit candidate values) and the gob snapshot
// (which additionally covers the work counters and window bookkeeping).
func TestCrashRecoveryDifferential(t *testing.T) {
	policies := []string{"never", "interval", "always"}
	for trial := 0; trial < 6; trial++ {
		pol := policies[trial%3]
		t.Run(fmt.Sprintf("trial%d_fsync_%s", trial, pol), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(1000 + trial)))
			dir := t.TempDir()
			n := 80 + r.Intn(200)
			els := durStream(int64(31+trial), n+120, 3, 1)

			opt := durOpt(dir, pol, -1) // checkpoints off: recovery is pure replay
			m := mustOpen(t, opt)
			if m.Recovery().Recovered {
				t.Fatal("fresh directory reported recovered state")
			}
			pushAll(t, m, els[:n])
			m.Crash()

			surviving, torn := uint64(n), false
			if trial%2 == 0 {
				surviving, torn = cutTail(t, dir, r, 3, trial%4 == 0, 0)
			}

			m2 := mustOpen(t, opt)
			defer m2.Close()
			rec := m2.Recovery()
			if !rec.Recovered || rec.CheckpointSeq != 0 || rec.Replayed != surviving {
				t.Fatalf("recovery = %+v, want pure replay of %d records", rec, surviving)
			}
			if torn && rec.TruncatedBytes == 0 {
				t.Fatalf("mid-record tear at %d/%d records but recovery reports no repair: %+v", surviving, n, rec)
			}
			if got := m2.Stats().Processed; got != surviving {
				t.Fatalf("recovered position %d, want %d", got, surviving)
			}

			oracle := mustMonitor(t, pskyline.Options{
				Dims: 3, Window: 64, Thresholds: []float64{0.3, 0.6},
			})
			defer oracle.Close()
			pushAll(t, oracle, els[:surviving])
			sameView(t, "after recovery", oracle.View(), m2.View())
			if !bytes.Equal(snapshotBytes(t, oracle), snapshotBytes(t, m2)) {
				t.Fatal("recovered snapshot differs from uninterrupted oracle")
			}

			pushAll(t, m2, els[surviving:n+120])
			pushAll(t, oracle, els[surviving:n+120])
			sameView(t, "after continuation", oracle.View(), m2.View())
			if !bytes.Equal(snapshotBytes(t, oracle), snapshotBytes(t, m2)) {
				t.Fatal("post-recovery continuation diverged from uninterrupted oracle")
			}
		})
	}
}

// TestCheckpointCrashRecoveryDifferential covers the checkpointed path:
// recovery restores the newest checkpoint and replays only the log tail.
// A restored tree is rebuilt in walk order, so work counters and ln-factor
// accumulation order differ from the uninterrupted run; the byte-identity
// oracle is therefore a monitor restored from the very same checkpoint that
// recovery used, fed the surviving tail through plain pushes. Semantics
// against a truly uninterrupted run are asserted on top.
func TestCheckpointCrashRecoveryDifferential(t *testing.T) {
	const n = 260
	for trial := 0; trial < 4; trial++ {
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(4000 + trial)))
			dir := t.TempDir()
			els := durStream(int64(91+trial), n+100, 3, 1)

			opt := durOpt(dir, "never", 48)
			m := mustOpen(t, opt)
			pushAll(t, m, els[:n])
			m.Crash()

			surviving := uint64(n)
			if trial%2 == 0 {
				// The cut may land below the newest checkpoint: recovery then
				// starts ahead of the surviving tail and replays nothing.
				surviving, _ = cutTail(t, dir, r, 3, trial%4 == 0, 0)
			}
			ckptData, ckptSeq := newestCheckpointFile(t, dir)
			if ckptSeq == 0 {
				t.Fatal("no checkpoint was installed before the crash")
			}

			m2 := mustOpen(t, opt)
			defer m2.Close()
			rec := m2.Recovery()
			if !rec.Recovered || rec.CheckpointSeq != ckptSeq {
				t.Fatalf("recovery = %+v, want checkpoint seq %d", rec, ckptSeq)
			}
			var wantReplay uint64
			if surviving > ckptSeq {
				wantReplay = surviving - ckptSeq
			}
			if rec.Replayed != wantReplay {
				t.Fatalf("replayed %d, want %d (checkpoint %d, surviving %d)",
					rec.Replayed, wantReplay, ckptSeq, surviving)
			}
			pos := ckptSeq + wantReplay
			if got := m2.Stats().Processed; got != pos {
				t.Fatalf("recovered position %d, want %d", got, pos)
			}

			oracle, err := pskyline.RestoreMonitor(bytes.NewReader(ckptData), pskyline.RestoreOptions{})
			if err != nil {
				t.Fatalf("restore oracle: %v", err)
			}
			defer oracle.Close()
			pushAll(t, oracle, els[ckptSeq:pos])
			sameView(t, "after recovery", oracle.View(), m2.View())
			if !bytes.Equal(snapshotBytes(t, oracle), snapshotBytes(t, m2)) {
				t.Fatal("recovered snapshot differs from checkpoint-restored oracle")
			}

			pushAll(t, m2, els[pos:n+100])
			pushAll(t, oracle, els[pos:n+100])
			sameView(t, "after continuation", oracle.View(), m2.View())
			if !bytes.Equal(snapshotBytes(t, oracle), snapshotBytes(t, m2)) {
				t.Fatal("post-recovery continuation diverged from checkpoint-restored oracle")
			}

			// The recovered monitor logically processed els[:n+100] exactly;
			// its skyline must agree with an uninterrupted run of the same
			// stream up to float summation order.
			full := mustMonitor(t, pskyline.Options{
				Dims: 3, Window: 64, Thresholds: []float64{0.3, 0.6},
			})
			defer full.Close()
			pushAll(t, full, els[:n+100])
			semanticSkyline(t, "vs uninterrupted", full.Skyline(), m2.Skyline())
			fs, ms := full.Stats(), m2.Stats()
			if fs.Processed != ms.Processed || fs.Candidates != ms.Candidates || fs.Skyline != ms.Skyline {
				t.Fatalf("stats diverged: uninterrupted %+v, recovered %+v", fs, ms)
			}
		})
	}
}

// TestKillRecoverSoak runs repeated crash/recover (and occasional clean
// shutdown/restart) cycles over both window kinds, comparing the recovered
// monitor semantically against an uninterrupted oracle that is fed exactly
// the elements that survived each crash. For time-based windows this proves
// the expiry clock and the MSKY/top-k state survive a restart mid-stream:
// the continuation keeps expiring by timestamp as if the process had never
// died.
func TestKillRecoverSoak(t *testing.T) {
	kinds := []struct {
		name   string
		tsStep int64
		opt    func(dir string) pskyline.Options
	}{
		{"count", 1, func(dir string) pskyline.Options {
			return pskyline.Options{
				Dims: 2, Window: 48, Thresholds: []float64{0.3},
				Durability: pskyline.Durability{
					Dir: dir, Fsync: "interval", FsyncInterval: time.Millisecond,
					SegmentBytes: 2048, CheckpointEvery: 70,
				},
			}
		}},
		{"period", 3, func(dir string) pskyline.Options {
			return pskyline.Options{
				Dims: 2, Period: 150, Thresholds: []float64{0.3},
				Durability: pskyline.Durability{
					Dir: dir, Fsync: "never",
					SegmentBytes: 2048, CheckpointEvery: 70,
				},
			}
		}},
	}
	for _, k := range kinds {
		k := k
		t.Run(k.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(77))
			dir := t.TempDir()
			els := durStream(55, 1400, 2, k.tsStep)

			oopt := k.opt("")
			oopt.Durability = pskyline.Durability{}
			oracle := mustMonitor(t, oopt)
			defer oracle.Close()

			// pos is the durable monitor's recovered position; the oracle is
			// topped up to it at the start of every cycle (elements lost to a
			// crash are never fed to the oracle — it stays uninterrupted on
			// exactly the surviving stream).
			pos, oraclePos := 0, 0
			compare := func(m *pskyline.Monitor, label string) {
				t.Helper()
				pushAll(t, oracle, els[oraclePos:pos])
				oraclePos = pos
				semanticSkyline(t, label, oracle.Skyline(), m.Skyline())
				os1, ms := oracle.Stats(), m.Stats()
				if os1.Candidates != ms.Candidates || os1.Skyline != ms.Skyline {
					t.Fatalf("%s: stats diverged: oracle %+v, recovered %+v", label, os1, ms)
				}
				if pos > 0 {
					wk, werr := oracle.TopK(5, 0.3)
					gk, gerr := m.TopK(5, 0.3)
					if werr != nil || gerr != nil {
						t.Fatalf("%s: topk errors %v, %v", label, werr, gerr)
					}
					semanticSkyline(t, label+" topk", wk, gk)
				}
			}
			for cycle := 0; cycle < 24 && pos < len(els); cycle++ {
				m := mustOpen(t, k.opt(dir))
				if got := int(m.Stats().Processed); got != pos {
					t.Fatalf("cycle %d: recovered position %d, want %d", cycle, got, pos)
				}
				compare(m, fmt.Sprintf("cycle %d recovery", cycle))

				chunk := 60 + r.Intn(120)
				if pos+chunk > len(els) {
					chunk = len(els) - pos
				}
				pushAll(t, m, els[pos:pos+chunk])
				end := pos + chunk

				if cycle%3 == 2 {
					if err := m.Close(); err != nil { // clean shutdown: nothing lost
						t.Fatalf("cycle %d: close: %v", cycle, err)
					}
					pos = end
				} else {
					m.Crash()
					pos = end
					if cycle%2 == 0 {
						// Tear the tail, but never behind what the oracle has
						// already been fed. A checkpoint installed beyond the
						// cut wins: recovery resumes from it, not from the
						// shorter log tail.
						surviving, _ := cutTail(t, dir, r, 2, r.Intn(2) == 0, uint64(oraclePos))
						pos = int(surviving)
						if ck := int(newestCheckpointSeq(dir)); ck > pos {
							pos = ck
						}
					}
				}
			}

			m := mustOpen(t, k.opt(dir))
			compare(m, "final recovery")
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSnapshotHeaderVersioning pins the checkpoint header satellite: a valid
// snapshot round-trips, while a wrong magic, an unknown format version and a
// truncated header are each rejected with a telling error.
func TestSnapshotHeaderVersioning(t *testing.T) {
	m := mustMonitor(t, pskyline.Options{Dims: 2, Window: 32, Thresholds: []float64{0.3}})
	defer m.Close()
	pushAll(t, m, durStream(5, 50, 2, 1))
	good := snapshotBytes(t, m)

	if _, err := pskyline.RestoreMonitor(bytes.NewReader(good), pskyline.RestoreOptions{}); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}

	badMagic := append([]byte(nil), good...)
	badMagic[0] ^= 0xff
	if _, err := pskyline.RestoreMonitor(bytes.NewReader(badMagic), pskyline.RestoreOptions{}); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic: err = %v, want a magic rejection", err)
	}

	future := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(future[8:], 99)
	if _, err := pskyline.RestoreMonitor(bytes.NewReader(future), pskyline.RestoreOptions{}); err == nil || !strings.Contains(err.Error(), "version 99") {
		t.Fatalf("future version: err = %v, want a version rejection", err)
	}

	if _, err := pskyline.RestoreMonitor(bytes.NewReader(good[:7]), pskyline.RestoreOptions{}); err == nil {
		t.Fatal("truncated header accepted")
	}
}

// TestOpenConfigMismatch: the WAL logs elements, not configuration, so Open
// must reject options that disagree with the recovered checkpoint instead of
// silently reinterpreting the log.
func TestOpenConfigMismatch(t *testing.T) {
	dir := t.TempDir()
	opt := durOpt(dir, "never", -1)
	m := mustOpen(t, opt)
	pushAll(t, m, durStream(7, 40, 3, 1))
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	badWin := opt
	badWin.Window = 128
	if _, err := pskyline.Open(badWin); err == nil || !strings.Contains(err.Error(), "window") {
		t.Fatalf("window mismatch: err = %v", err)
	}
	badDims := opt
	badDims.Dims = 2
	if _, err := pskyline.Open(badDims); err == nil || !strings.Contains(err.Error(), "dimensions") {
		t.Fatalf("dims mismatch: err = %v", err)
	}
	badQ := opt
	badQ.Thresholds = []float64{0.6}
	if _, err := pskyline.Open(badQ); err == nil || !strings.Contains(err.Error(), "thresholds") {
		t.Fatalf("thresholds mismatch: err = %v", err)
	}
	// Thresholds compare as the engine normalizes them: order and
	// duplicates do not matter.
	sameQ := opt
	sameQ.Thresholds = []float64{0.3, 0.6, 0.3}
	m1 := mustOpen(t, sameQ)
	if got := m1.Thresholds(); len(got) != 2 || got[0] != 0.6 || got[1] != 0.3 {
		t.Fatalf("reopened thresholds %v", got)
	}
	m1.Close()

	m2 := mustOpen(t, opt) // matching options still open fine
	if got := m2.Stats().Processed; got != 40 {
		t.Fatalf("recovered position %d, want 40", got)
	}
	m2.Close()
}

// TestDurableNaNProbability: a NaN occurrence probability is rejected
// before it reaches the log, so the directory keeps reopening, and a log
// that already holds a NaN record makes Open fail with an error rather than
// panic in replay.
func TestDurableNaNProbability(t *testing.T) {
	testDurableRejects(t, pskyline.Element{Point: []float64{0.1, 0.2, 0.3}, Prob: math.NaN(), TS: 21})
}

// TestDurableNonFiniteCoordinate is TestDurableNaNProbability for NaN and
// ±Inf coordinates, which the engine's R-trees cannot order: +Inf and −Inf
// panicked in a later leaf split, and a NaN corrupted dominance silently.
func TestDurableNonFiniteCoordinate(t *testing.T) {
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		t.Run(fmt.Sprint(x), func(t *testing.T) {
			testDurableRejects(t, pskyline.Element{Point: []float64{0.1, x, 0.3}, Prob: 0.5, TS: 21})
		})
	}
}

// testDurableRejects checks that a durable monitor rejects bad before it
// reaches the log, so the directory keeps reopening, and that a log already
// holding bad as a record (as a build without the check wrote it) makes Open
// fail with an error rather than panic in replay.
func testDurableRejects(t *testing.T, bad pskyline.Element) {
	t.Helper()
	dir := t.TempDir()
	opt := durOpt(dir, "never", -1)
	m := mustOpen(t, opt)
	els := durStream(5, 20, 3, 1)
	pushAll(t, m, els)
	if _, err := m.Push(bad); err == nil {
		t.Fatalf("durable Push of %+v accepted", bad)
	}
	if _, err := m.PushBatch([]pskyline.Element{els[0], bad}); err == nil {
		t.Fatalf("durable PushBatch holding %+v accepted", bad)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m = mustOpen(t, opt)
	if got := m.Stats().Processed; got != 20 {
		t.Fatalf("reopened at %d, want 20", got)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	w, _, err := wal.Open(dir, wal.Options{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendElement(20, bad.Point, bad.Prob, bad.TS); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if m, err := pskyline.Open(opt); err == nil {
		m.Close()
		t.Fatalf("Open replayed a record of %+v", bad)
	}
}

// TestAsyncDurableCrash routes a mixed Push/PushBatch stream through the
// bounded async queue with durability on, crashes after a drain, and proves
// pure-replay recovery lands on the element-wise state (engine batch inserts
// are byte-identical regroupings, and the log is element-wise by
// construction).
func TestAsyncDurableCrash(t *testing.T) {
	dir := t.TempDir()
	opt := durOpt(dir, "never", -1)
	opt.AsyncQueue = 128
	m := mustOpen(t, opt)
	els := durStream(13, 500, 3, 1)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < len(els); {
		if r.Intn(2) == 0 {
			k := 1 + r.Intn(32)
			if i+k > len(els) {
				k = len(els) - i
			}
			if _, err := m.PushBatch(els[i : i+k]); err != nil {
				t.Fatal(err)
			}
			i += k
		} else {
			if _, err := m.Push(els[i]); err != nil {
				t.Fatal(err)
			}
			i++
		}
	}
	m.Drain()
	m.Crash()

	m2 := mustOpen(t, durOpt(dir, "never", -1))
	defer m2.Close()
	if got := m2.Stats().Processed; got != 500 {
		t.Fatalf("recovered position %d, want 500", got)
	}
	oracle := mustMonitor(t, pskyline.Options{Dims: 3, Window: 64, Thresholds: []float64{0.3, 0.6}})
	defer oracle.Close()
	pushAll(t, oracle, els)
	sameView(t, "async durable", oracle.View(), m2.View())
	if !bytes.Equal(snapshotBytes(t, oracle), snapshotBytes(t, m2)) {
		t.Fatal("async durable recovery diverged from element-wise oracle")
	}
}

// TestCheckpointGCBoundsLog: with checkpoints on, the log must stay near the
// window size instead of growing with the stream (the Theorem 5 trade-off:
// replay needs raw arrivals, but only back to min(checkpoint, horizon)), and
// exactly one checkpoint file survives each install.
func TestCheckpointGCBoundsLog(t *testing.T) {
	dir := t.TempDir()
	opt := pskyline.Options{
		Dims: 2, Window: 32, Thresholds: []float64{0.3},
		Durability: pskyline.Durability{
			Dir: dir, Fsync: "never", SegmentBytes: 1024, CheckpointEvery: 64,
		},
	}
	m := mustOpen(t, opt)
	els := durStream(17, 1500, 2, 1)
	pushAll(t, m, els)
	met := m.Metrics()
	if met.WAL == nil {
		t.Fatal("durable monitor reports no WAL metrics")
	}
	if met.WAL.Checkpoints == 0 || met.WAL.GCSegments == 0 {
		t.Fatalf("checkpoints=%d gcSegments=%d, want both > 0",
			met.WAL.Checkpoints, met.WAL.GCSegments)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	// ~19 records fit one 1KiB segment; the retained span is bounded by one
	// checkpoint interval plus the window, so well under a dozen segments.
	if len(segs) > 12 {
		t.Errorf("%d live segments for a window of 32 — GC is not keeping up", len(segs))
	}
	ckpts, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt"))
	if len(ckpts) != 1 {
		t.Errorf("%d checkpoint files on disk, want 1", len(ckpts))
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2 := mustOpen(t, opt)
	defer m2.Close()
	if got := m2.Stats().Processed; got != 1500 {
		t.Fatalf("recovered position %d, want 1500", got)
	}
	full := mustMonitor(t, pskyline.Options{Dims: 2, Window: 32, Thresholds: []float64{0.3}})
	defer full.Close()
	pushAll(t, full, els)
	semanticSkyline(t, "gc-bounded recovery", full.Skyline(), m2.Skyline())
}
