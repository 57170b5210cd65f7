package pskyline_test

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"pskyline"
	"pskyline/internal/vfs"
	"pskyline/internal/wal"
)

// chaosOpt is the chaos suite's base configuration: fsync on every commit
// (so crash cuts are exactly the committed prefix), checkpoints off unless a
// test opts in, fast retry/reattach schedules, and the durability stack
// mounted on the fault-injecting filesystem.
func chaosOpt(dir, policy string, fi *vfs.Fault) pskyline.Options {
	opt := durOpt(dir, "always", -1)
	opt.Durability.Policy = policy
	opt.Durability.RetryMax = 6
	opt.Durability.RetryBase = 100 * time.Microsecond
	opt.Durability.RetryMaxDelay = time.Millisecond
	opt.Durability.ReattachEvery = 5 * time.Millisecond
	return pskyline.WithFS(opt, fi)
}

func cleanOracle(t *testing.T) *pskyline.Monitor {
	t.Helper()
	o := mustMonitor(t, pskyline.Options{Dims: 3, Window: 64, Thresholds: []float64{0.3, 0.6}})
	t.Cleanup(func() { o.Close() })
	return o
}

// TestChaosFailStop: under the default policy the first durability failure
// detaches the log atomically — the failing push reports an error wrapping
// wal.ErrDetached, the element is NOT applied (no partial apply), later
// pushes fail fast, and queries keep serving the accepted prefix. A reopen
// on the healed disk recovers exactly that prefix, byte-identical to an
// uninterrupted oracle that never saw the rejected elements.
func TestChaosFailStop(t *testing.T) {
	dir := t.TempDir()
	fi := vfs.NewFault(vfs.OS{}, 1)
	m := mustOpen(t, chaosOpt(dir, "failstop", fi))
	els := durStream(41, 200, 3, 1)
	pushAll(t, m, els[:50])

	fi.Inject(vfs.Rule{Op: vfs.OpWrite, Times: -1, Effect: vfs.Effect{Err: syscall.EIO}})
	_, err := m.Push(els[50])
	if !errors.Is(err, wal.ErrDetached) {
		t.Fatalf("push after disk death: %v, want ErrDetached", err)
	}
	if m.WALState() != wal.StateDetached {
		t.Fatalf("state %v, want detached", m.WALState())
	}
	met := m.Metrics()
	if met.WAL.State != "detached" || met.WAL.LastFault == "" || met.WAL.WriteErrors == 0 {
		t.Fatalf("metrics don't surface the detach: %+v", met.WAL)
	}
	// Fail-fast, and no element past the failure was applied.
	if _, err2 := m.Push(els[51]); !errors.Is(err2, wal.ErrDetached) {
		t.Fatalf("second push: %v, want fast ErrDetached", err2)
	}
	if got := m.Stats().Processed; got != 50 {
		t.Fatalf("processed %d after detach, want exactly the accepted 50", got)
	}

	oracle := cleanOracle(t)
	pushAll(t, oracle, els[:50])
	sameView(t, "detached monitor still serves the accepted prefix", oracle.View(), m.View())

	m.Crash()
	fi.Clear()
	m2 := mustOpen(t, chaosOpt(dir, "failstop", fi))
	defer m2.Close()
	if got := m2.Stats().Processed; got != 50 {
		t.Fatalf("recovered position %d, want 50", got)
	}
	if m2.Recovery().CorruptSegments != 0 {
		t.Fatalf("fail-stop left corruption behind: %+v", m2.Recovery())
	}
	if !bytes.Equal(snapshotBytes(t, oracle), snapshotBytes(t, m2)) {
		t.Fatal("recovered state differs from the accepted-prefix oracle")
	}
}

// TestChaosRetryDifferential: under the retry policy a seeded schedule of
// transient faults — whole-write failures, torn writes, fsync failures —
// must be invisible: every push succeeds, the live state stays byte-identical
// to a no-fault oracle, and a kill + reopen replays the complete log back to
// the same bytes.
func TestChaosRetryDifferential(t *testing.T) {
	for trial := 0; trial < 3; trial++ {
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			dir := t.TempDir()
			fi := vfs.NewFault(vfs.OS{}, int64(100+trial))
			// The disk misbehaves constantly but transiently: each write or
			// fsync fails with 10-15% probability, some writes tearing
			// mid-record. The retry budget (6) makes a permanent-looking run
			// of failures astronomically unlikely — and the seed makes the
			// whole schedule reproducible.
			fi.Inject(vfs.Rule{Op: vfs.OpWrite, Times: -1, Prob: 0.10, Partial: 5, Effect: vfs.Effect{Err: syscall.EIO}})
			fi.Inject(vfs.Rule{Op: vfs.OpWrite, Times: -1, Prob: 0.05, Effect: vfs.Effect{Err: syscall.ENOSPC}})
			fi.Inject(vfs.Rule{Op: vfs.OpSync, Times: -1, Prob: 0.15, Effect: vfs.Effect{Err: syscall.EIO}})

			m := mustOpen(t, chaosOpt(dir, "retry", fi))
			els := durStream(int64(61+trial), 400, 3, 1)
			pushAll(t, m, els)
			if m.WALState() != wal.StateHealthy {
				t.Fatalf("state %v after surviving the storm, want healthy", m.WALState())
			}
			met := m.Metrics()
			if fi.ErrorsTotal() == 0 || met.WAL.Retries == 0 {
				t.Fatalf("storm never hit: %d injected, %d retries", fi.ErrorsTotal(), met.WAL.Retries)
			}
			oracle := cleanOracle(t)
			pushAll(t, oracle, els)
			sameView(t, "live under fault storm", oracle.View(), m.View())
			if !bytes.Equal(snapshotBytes(t, oracle), snapshotBytes(t, m)) {
				t.Fatal("live state diverged from no-fault oracle")
			}

			// Kill and recover on the healed disk: the log must hold every
			// element exactly once (no duplicates from retried writes, no torn
			// garbage from the repairs).
			m.Crash()
			fi.Clear()
			m2 := mustOpen(t, chaosOpt(dir, "retry", fi))
			defer m2.Close()
			rec := m2.Recovery()
			if rec.Replayed != 400 || rec.CorruptSegments != 0 {
				t.Fatalf("recovery %+v, want clean replay of all 400", rec)
			}
			if !bytes.Equal(snapshotBytes(t, oracle), snapshotBytes(t, m2)) {
				t.Fatal("recovered state diverged from no-fault oracle")
			}
		})
	}
}

// TestChaosShedReattach: under the shed policy a dead disk costs durability,
// never availability — pushes keep succeeding and the live skyline stays
// byte-identical to a no-fault oracle while the monitor sits degraded. Once
// the disk heals, the background reattacher installs a fresh checkpoint and
// restores durability without help; a kill + reopen afterwards recovers the
// full window (checkpoint + replayed tail) to the same semantic skyline.
func TestChaosShedReattach(t *testing.T) {
	dir := t.TempDir()
	fi := vfs.NewFault(vfs.OS{}, 1)
	m := mustOpen(t, chaosOpt(dir, "shed", fi))
	els := durStream(43, 400, 3, 1)
	pushAll(t, m, els[:100])

	fi.Inject(vfs.Rule{Op: vfs.OpWrite, Times: -1, Effect: vfs.Effect{Err: syscall.EIO}})
	pushAll(t, m, els[100:300]) // every push must succeed — durability is shed
	if m.WALState() != wal.StateDegraded {
		t.Fatalf("state %v, want degraded", m.WALState())
	}
	met := m.Metrics()
	if met.WAL.State != "degraded" || met.WAL.DroppedRecords == 0 || met.WAL.DroppedBytes == 0 {
		t.Fatalf("degradation not surfaced: %+v", met.WAL)
	}
	oracle := cleanOracle(t)
	pushAll(t, oracle, els[:300])
	sameView(t, "degraded monitor serves at full fidelity", oracle.View(), m.View())
	if !bytes.Equal(snapshotBytes(t, oracle), snapshotBytes(t, m)) {
		t.Fatal("degraded state diverged from no-fault oracle")
	}

	// Disk heals; the reattacher must recover on its own.
	fi.Clear()
	deadline := time.Now().Add(10 * time.Second)
	for m.WALState() != wal.StateHealthy {
		if time.Now().After(deadline) {
			t.Fatalf("reattacher never recovered: state %v", m.WALState())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := m.Metrics().WAL.Reattaches; got != 1 {
		t.Fatalf("reattaches %d, want 1", got)
	}

	// Durability is genuinely back: new pushes are logged, and a kill +
	// reopen restores checkpoint(300) + the logged tail.
	pushAll(t, m, els[300:])
	m.Crash()
	m2 := mustOpen(t, chaosOpt(dir, "shed", fi))
	defer m2.Close()
	rec := m2.Recovery()
	if rec.CheckpointSeq != 300 || rec.Replayed != 100 {
		t.Fatalf("recovery %+v, want checkpoint at 300 + 100 replayed", rec)
	}
	if got := m2.Stats().Processed; got != 400 {
		t.Fatalf("recovered position %d, want 400", got)
	}
	pushAll(t, oracle, els[300:])
	semanticSkyline(t, "post-reattach kill-recover", oracle.Skyline(), m2.Skyline())
}

// TestChaosShedStaysDegradedWhileSick: while the disk is still failing, the
// reattacher's attempts fail harmlessly — the monitor stays degraded and
// available, and checkpoint failures are counted, not fatal.
func TestChaosShedStaysDegradedWhileSick(t *testing.T) {
	dir := t.TempDir()
	fi := vfs.NewFault(vfs.OS{}, 1)
	m := mustOpen(t, chaosOpt(dir, "shed", fi))
	defer m.Close()
	els := durStream(47, 120, 3, 1)
	pushAll(t, m, els[:40])

	fi.Inject(vfs.Rule{Op: vfs.OpWrite, Times: -1, Effect: vfs.Effect{Err: syscall.EIO}})
	pushAll(t, m, els[40:])
	if m.WALState() != wal.StateDegraded {
		t.Fatalf("state %v, want degraded", m.WALState())
	}
	// Give the reattacher several cycles against the still-dead disk.
	time.Sleep(50 * time.Millisecond)
	if m.WALState() != wal.StateDegraded {
		t.Fatalf("state %v, want still degraded while the disk is sick", m.WALState())
	}
	if got := m.Stats().Processed; got != 120 {
		t.Fatalf("processed %d, want all 120 despite the dead disk", got)
	}
}

// TestChaosNoGoroutineLeaks cycles monitors through the full degradation
// lifecycle — async queue, shed, reattach attempts, close — and requires the
// goroutine count to return to its baseline.
func TestChaosNoGoroutineLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		dir := t.TempDir()
		fi := vfs.NewFault(vfs.OS{}, int64(i+1))
		opt := chaosOpt(dir, "shed", fi)
		opt.AsyncQueue = 64
		m := mustOpen(t, opt)
		els := durStream(int64(71+i), 200, 3, 1)
		pushAll(t, m, els[:100])
		fi.Inject(vfs.Rule{Op: vfs.OpWrite, Times: -1, Effect: vfs.Effect{Err: syscall.EIO}})
		pushAll(t, m, els[100:])
		m.Drain()
		if err := m.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now, %d at start", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// gatedMonitor builds an async monitor whose consumer can be frozen: the
// first element entering the skyline parks the ingestion goroutine on the
// gate, so tests can fill the queue deterministically. Closing the gate
// releases ingestion permanently.
func gatedMonitor(t *testing.T, capacity int, pol pskyline.OverloadPolicy) (*pskyline.Monitor, chan struct{}) {
	t.Helper()
	gate := make(chan struct{})
	m := mustMonitor(t, pskyline.Options{
		Dims: 2, Window: 1024, Thresholds: []float64{0.3},
		AsyncQueue: capacity, AsyncPolicy: pol,
		OnEnter: func(pskyline.SkyPoint) { <-gate },
	})
	return m, gate
}

func overloadStream(n int) []pskyline.Element {
	els := make([]pskyline.Element, n)
	for i := range els {
		// Anti-correlated diagonal: every element enters the skyline, so
		// each ingested element touches the gate exactly once.
		els[i] = pskyline.Element{Point: []float64{float64(i), float64(n - i)}, Prob: 0.9, TS: int64(i + 1)}
	}
	return els
}

// TestOverloadDropNewest: with the consumer frozen, pushes beyond the queue
// capacity are rejected with ErrOverloaded, consume no sequence number, and
// are counted — and once the consumer resumes, exactly the accepted prefix
// is ingested under consecutive sequence numbers.
func TestOverloadDropNewest(t *testing.T) {
	const capacity = 4
	m, gate := gatedMonitor(t, capacity, pskyline.DropNewest)
	defer func() { m.Close() }()
	els := overloadStream(600)

	accepted, rejected := 0, 0
	var lastSeq uint64
	for i := range els {
		seq, err := m.Push(els[i])
		if err != nil {
			if !errors.Is(err, pskyline.ErrOverloaded) {
				t.Fatalf("push %d: %v, want ErrOverloaded", i, err)
			}
			rejected++
			if rejected >= 2*capacity {
				break
			}
			continue
		}
		if accepted > 0 && seq != lastSeq+1 {
			t.Fatalf("accepted seqs not consecutive: %d after %d — a rejected push consumed a number", seq, lastSeq)
		}
		lastSeq = seq
		accepted++
	}
	if rejected == 0 {
		t.Fatal("queue never overloaded despite a frozen consumer")
	}
	met := m.Metrics()
	if met.QueueCapacity != capacity || met.QueueDropped != uint64(rejected) {
		t.Fatalf("queue metrics cap=%d dropped=%d, want cap=%d dropped=%d",
			met.QueueCapacity, met.QueueDropped, capacity, rejected)
	}

	close(gate)
	m.Drain()
	if got := m.Stats().Processed; got != uint64(accepted) {
		t.Fatalf("processed %d, want the %d accepted pushes", got, accepted)
	}
}

// TestOverloadDropOldest: pushes never fail and never block — the queue
// evicts its oldest waiting element instead — and the drop counter accounts
// exactly for the elements that were accepted but never ingested.
func TestOverloadDropOldest(t *testing.T) {
	const capacity = 4
	m, gate := gatedMonitor(t, capacity, pskyline.DropOldest)
	defer func() { m.Close() }()
	els := overloadStream(300)

	for i := range els {
		if _, err := m.Push(els[i]); err != nil {
			t.Fatalf("push %d failed under DropOldest: %v", i, err)
		}
	}
	close(gate)
	m.Drain()
	met := m.Metrics()
	if met.QueueDropped == 0 {
		t.Fatal("nothing dropped despite a frozen consumer and a tiny queue")
	}
	if got := m.Stats().Processed; got+met.QueueDropped != uint64(len(els)) {
		t.Fatalf("processed %d + dropped %d != %d pushed", got, met.QueueDropped, len(els))
	}
	// Recency wins: the newest element must have survived the evictions.
	stats := m.Stats()
	if stats.Processed == 0 {
		t.Fatal("consumer ingested nothing")
	}
}

// TestOverloadBatchDropNewest: a batch hitting a full queue keeps its
// accepted prefix (with its sequence numbers) and reports the dropped suffix
// through ErrOverloaded.
func TestOverloadBatchDropNewest(t *testing.T) {
	const capacity = 4
	m, gate := gatedMonitor(t, capacity, pskyline.DropNewest)
	defer func() { m.Close() }()
	els := overloadStream(200)

	var batchErr error
	pushed := 0
	for pushed < len(els) {
		k := 8
		if pushed+k > len(els) {
			k = len(els) - pushed
		}
		_, err := m.PushBatch(els[pushed : pushed+k])
		pushed += k
		if err != nil {
			batchErr = err
			break
		}
	}
	if batchErr == nil {
		t.Fatal("batches never overloaded despite a frozen consumer")
	}
	if !errors.Is(batchErr, pskyline.ErrOverloaded) {
		t.Fatalf("batch error %v, want ErrOverloaded", batchErr)
	}
	if m.Metrics().QueueDropped == 0 {
		t.Fatal("batch drops not counted")
	}
	close(gate)
	m.Drain()
}

// TestOverloadBlockDefault: the default policy never drops — a push into a
// full queue waits for the consumer and every element is ingested.
func TestOverloadBlockDefault(t *testing.T) {
	m, gate := gatedMonitor(t, 2, pskyline.Block)
	defer func() { m.Close() }()
	els := overloadStream(50)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range els {
			if _, err := m.Push(els[i]); err != nil {
				t.Errorf("push %d: %v", i, err)
				return
			}
		}
	}()
	// The producer must be blocked, not erroring: give it a moment, then
	// open the gate and require full ingestion.
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()
	m.Drain()
	if got := m.Stats().Processed; got != uint64(len(els)) {
		t.Fatalf("processed %d, want all %d", got, len(els))
	}
	if got := m.Metrics().QueueDropped; got != 0 {
		t.Fatalf("block policy dropped %d elements", got)
	}
}

func TestParseOverloadPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want pskyline.OverloadPolicy
	}{
		{"", pskyline.Block}, {"block", pskyline.Block},
		{"drop-newest", pskyline.DropNewest}, {"DropNewest", pskyline.DropNewest},
		{"drop-oldest", pskyline.DropOldest}, {"dropoldest", pskyline.DropOldest},
	} {
		got, err := pskyline.ParseOverloadPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseOverloadPolicy(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := pskyline.ParseOverloadPolicy("spill"); err == nil {
		t.Fatal("accepted garbage policy")
	}
	if _, err := pskyline.NewMonitor(pskyline.Options{
		Dims: 2, Window: 8, Thresholds: []float64{0.3},
		AsyncQueue: 4, AsyncPolicy: pskyline.OverloadPolicy(99),
	}); err == nil {
		t.Fatal("accepted out-of-range AsyncPolicy")
	}
}
