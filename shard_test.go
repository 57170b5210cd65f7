package pskyline_test

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"pskyline"
	"pskyline/internal/geom"
	"pskyline/internal/naive"
	"pskyline/internal/prob"
	"pskyline/internal/stats"
)

// genShardElements produces a deterministic mixed-correlation stream with
// strictly bounded, occasionally colliding coordinates, probabilities across
// (0,1] including exact 1s, and non-decreasing timestamps.
func genShardElements(seed int64, n, dims int) []pskyline.Element {
	r := rand.New(rand.NewSource(seed))
	els := make([]pskyline.Element, n)
	ts := int64(0)
	for i := range els {
		pt := make([]float64, dims)
		for d := range pt {
			switch r.Intn(10) {
			case 0: // grid-aligned: exercises duplicate coordinates
				pt[d] = float64(r.Intn(8))
			case 1: // negative and fractional
				pt[d] = -r.Float64() * 4
			default:
				pt[d] = r.Float64() * 10
			}
		}
		p := r.Float64()
		if p == 0 {
			p = 0.5
		}
		if r.Intn(50) == 0 {
			p = 1 // certain elements: exact-zero factors in the merge
		}
		ts += int64(r.Intn(3)) // repeats allowed: ties in time windows
		els[i] = pskyline.Element{Point: pt, Prob: p, TS: ts}
	}
	return els
}

// viewDump is the gob-encoded projection the differential suite compares:
// everything observable about a merged view except work counters (which
// legitimately differ between one engine and N engines doing the same job).
type viewDump struct {
	Processed  uint64
	Thresholds []float64
	BandSizes  []int
	Candidates []pskyline.SkyPoint
	Skyline    []pskyline.SkyPoint
}

func dumpView(t *testing.T, v *pskyline.View) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(viewDump{
		Processed:  v.Processed(),
		Thresholds: v.Thresholds(),
		BandSizes:  v.BandSizes(),
		Candidates: v.Candidates(),
		Skyline:    v.Skyline(),
	})
	if err != nil {
		t.Fatalf("gob encode view: %v", err)
	}
	return buf.Bytes()
}

// shardParts collects the per-shard published views.
func shardParts(s *pskyline.ShardedMonitor) []*pskyline.View {
	parts := make([]*pskyline.View, s.NumShards())
	for i := range parts {
		parts[i] = s.Shard(i).View()
	}
	return parts
}

// feed pushes els into op in the given mode (sync pushes, batches of 64, or
// relying on op's async queue) and makes everything visible.
func feed(t *testing.T, op pskyline.Operator, els []pskyline.Element, mode string) {
	t.Helper()
	switch mode {
	case "sync", "async":
		for i := range els {
			if _, err := op.Push(els[i]); err != nil {
				t.Fatalf("push %d: %v", i, err)
			}
		}
	case "batch":
		for i := 0; i < len(els); i += 64 {
			end := i + 64
			if end > len(els) {
				end = len(els)
			}
			if _, err := op.PushBatch(els[i:end]); err != nil {
				t.Fatalf("batch at %d: %v", i, err)
			}
		}
	default:
		t.Fatalf("unknown mode %q", mode)
	}
	op.Drain()
}

// TestShardedDifferential is the heart of the PR: for every shard count ×
// ingestion mode × window kind, the sharded monitor's merged state must be
// BYTE-IDENTICAL (gob encoding) to a single-engine oracle fed the same
// stream — same candidates, same bands, same skyline probabilities to the
// last bit. Both sides run through the same merge so the comparison captures
// the full candidate surface, not just the skyline.
func TestShardedDifferential(t *testing.T) {
	const (
		n      = 3000
		window = 500
		dims   = 3
	)
	thresholds := []float64{0.6, 0.3}
	els := genShardElements(42, n, dims)

	for _, shards := range []int{1, 2, 4, 8} {
		for _, mode := range []string{"sync", "batch", "async"} {
			for _, win := range []string{"count", "time"} {
				t.Run(fmt.Sprintf("shards=%d/%s/%s", shards, mode, win), func(t *testing.T) {
					opt := pskyline.Options{Dims: dims, Thresholds: thresholds}
					if win == "count" {
						opt.Window = window
					} else {
						opt.Period = 400
					}
					oracle := mustMonitor(t, opt)
					defer oracle.Close()
					feed(t, oracle, els, "sync")

					sopt := opt
					if mode == "async" {
						sopt.AsyncQueue = 256
					}
					s, err := pskyline.NewSharded(pskyline.ShardedOptions{
						Options: sopt, Shards: shards,
					})
					if err != nil {
						t.Fatal(err)
					}
					defer s.Close()
					feed(t, s, els, mode)

					want := dumpView(t, pskyline.MergeViews([]*pskyline.View{oracle.View()}))
					got := dumpView(t, pskyline.MergeViews(shardParts(s)))
					if !bytes.Equal(got, want) {
						t.Fatalf("merged sharded state differs from oracle (%d vs %d bytes)", len(got), len(want))
					}
					// The public query surface answers from the same merge.
					gotSky := s.View().Skyline()
					wantSky := oracle.Skyline()
					if len(gotSky) != len(wantSky) {
						t.Fatalf("Skyline() size %d, oracle %d", len(gotSky), len(wantSky))
					}
					for i := range gotSky {
						if gotSky[i].Seq != wantSky[i].Seq {
							t.Fatalf("Skyline()[%d].Seq = %d, oracle %d", i, gotSky[i].Seq, wantSky[i].Seq)
						}
					}
				})
			}
		}
	}
}

// TestShardedBandRouterDifferential repeats one differential cell with the
// probability-band router: correctness must not depend on which router
// placed the elements.
func TestShardedBandRouterDifferential(t *testing.T) {
	els := genShardElements(7, 2000, 2)
	opt := pskyline.Options{Dims: 2, Window: 300, Thresholds: []float64{0.3}}
	oracle := mustMonitor(t, opt)
	defer oracle.Close()
	feed(t, oracle, els, "sync")

	s, err := pskyline.NewSharded(pskyline.ShardedOptions{
		Options: opt, Shards: 4, Router: pskyline.BandRouter{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	feed(t, s, els, "batch")

	want := dumpView(t, pskyline.MergeViews([]*pskyline.View{oracle.View()}))
	got := dumpView(t, pskyline.MergeViews(shardParts(s)))
	if !bytes.Equal(got, want) {
		t.Fatal("band-routed merged state differs from oracle")
	}
}

// TestShardedSingleShardPassthrough: with one shard, View() must be the
// shard's own published view (no merge allocation), and its contents must
// still match the oracle's engine-computed view byte for byte.
func TestShardedSingleShardPassthrough(t *testing.T) {
	els := genShardElements(3, 1200, 2)
	opt := pskyline.Options{Dims: 2, Window: 200, Thresholds: []float64{0.5, 0.3}}
	oracle := mustMonitor(t, opt)
	defer oracle.Close()
	feed(t, oracle, els, "sync")

	s, err := pskyline.NewSharded(pskyline.ShardedOptions{Options: opt, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	feed(t, s, els, "sync")

	if s.View() != s.Shard(0).View() {
		t.Error("single-shard View() is not a passthrough")
	}
	got := dumpView(t, s.View())
	want := dumpView(t, oracle.View())
	if !bytes.Equal(got, want) {
		t.Fatal("single-shard view differs from oracle engine view")
	}
}

// TestShardedKillRecover: checkpoint, keep pushing, kill every shard
// mid-stream, reopen the same directory tree — with a DIFFERENT router, which
// recovery must tolerate because correctness is routing-agnostic — and the
// recovered merged state must be byte-identical to an oracle that never
// crashed. New pushes after recovery must keep the equivalence.
func TestShardedKillRecover(t *testing.T) {
	const (
		dims   = 2
		window = 250
		shards = 4
	)
	dir := t.TempDir()
	els := genShardElements(11, 2200, dims)
	opt := pskyline.Options{
		Dims: dims, Window: window, Thresholds: []float64{0.3},
		Durability: pskyline.Durability{Dir: dir},
	}
	oracle := mustMonitor(t, pskyline.Options{Dims: dims, Window: window, Thresholds: []float64{0.3}})
	defer oracle.Close()

	s, err := pskyline.NewSharded(pskyline.ShardedOptions{Options: opt, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, s, els[:1500], "batch")
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	feed(t, s, els[1500:2000], "batch") // committed log tail past the checkpoint
	s.Crash()

	feed(t, oracle, els[:2000], "sync")

	s2, err := pskyline.NewSharded(pskyline.ShardedOptions{
		Options: opt, Shards: shards, Router: pskyline.BandRouter{},
	})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if rec := s2.Recovery(); !rec.Recovered || rec.Replayed == 0 {
		t.Fatalf("recovery = %+v, want recovered with replayed records", rec)
	}
	want := dumpView(t, pskyline.MergeViews([]*pskyline.View{oracle.View()}))
	got := dumpView(t, pskyline.MergeViews(shardParts(s2)))
	if !bytes.Equal(got, want) {
		t.Fatal("recovered merged state differs from never-crashed oracle")
	}

	// The recovered tree keeps working: push the stream tail into both.
	feed(t, s2, els[2000:], "batch")
	feed(t, oracle, els[2000:], "sync")
	want = dumpView(t, pskyline.MergeViews([]*pskyline.View{oracle.View()}))
	got = dumpView(t, pskyline.MergeViews(shardParts(s2)))
	if !bytes.Equal(got, want) {
		t.Fatal("post-recovery pushes diverged from oracle")
	}

	// The namespaces are really per shard: one directory per shard exists.
	for i := 0; i < shards; i++ {
		if m, _ := filepath.Glob(filepath.Join(dir, fmt.Sprintf("shard-%03d", i), "*")); len(m) == 0 {
			t.Errorf("shard %d has no WAL namespace under %s", i, dir)
		}
	}
}

// TestShardedMatchesNaiveOracle checks the merged probabilities against the
// from-scratch internal/naive oracle at many cut points: every merged
// candidate's Psky within 1e-9 of the definitional recomputation, candidate
// sets equal as seq sets, and no element reported by two shards.
func TestShardedMatchesNaiveOracle(t *testing.T) {
	const (
		n      = 400
		window = 60
		dims   = 2
		qk     = 0.3
	)
	els := genShardElements(99, n, dims)
	s, err := pskyline.NewSharded(pskyline.ShardedOptions{
		Options: pskyline.Options{Dims: dims, Window: window, Thresholds: []float64{qk}},
		Shards:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ref := naive.NewExact(window)

	for i := range els {
		if _, err := s.Push(els[i]); err != nil {
			t.Fatal(err)
		}
		ref.Push(geom.Point(els[i].Point), els[i].Prob)
		if i%37 != 36 && i != n-1 {
			continue
		}

		// No element may be reported by two shards.
		owner := make(map[uint64]int)
		for si := 0; si < s.NumShards(); si++ {
			for _, c := range s.Shard(si).View().Candidates() {
				if prev, dup := owner[c.Seq]; dup {
					t.Fatalf("seq %d reported by shards %d and %d", c.Seq, prev, si)
				}
				owner[c.Seq] = si
			}
		}

		want := map[uint64]float64{}
		for _, p := range ref.RestrictedAll(qk) {
			want[p.Seq] = p.Psky.Float()
		}
		got := s.View().Candidates()
		if len(got) != len(want) {
			t.Fatalf("at %d: %d merged candidates, naive has %d", i, len(got), len(want))
		}
		for _, c := range got {
			ref, ok := want[c.Seq]
			if !ok {
				t.Fatalf("at %d: merged candidate seq %d not in naive candidate set", i, c.Seq)
			}
			if math.Abs(c.Psky-ref) > 1e-9 {
				t.Fatalf("at %d: seq %d Psky = %v, naive %v", i, c.Seq, c.Psky, ref)
			}
		}
	}
}

// TestShardedTheoryGauges: every shard's Theorem 7/8 bound gauges must equal
// the bound recomputed from the shard's own published inputs (window fill,
// mean probability, thresholds), the candidate bound must be live and
// finite, and the merged sizes must respect the trivial sanity relations the
// theory implies (skyline ⊆ candidates ⊆ window).
func TestShardedTheoryGauges(t *testing.T) {
	els := genShardElements(5, 1000, 2)
	s, err := pskyline.NewSharded(pskyline.ShardedOptions{
		Options: pskyline.Options{Dims: 2, Window: 200, Thresholds: []float64{0.5, 0.3}},
		Shards:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	feed(t, s, els, "batch")

	for i := 0; i < s.NumShards(); i++ {
		met := s.Shard(i).Metrics()
		// Same inputs, same formula: the gauge is the theorem evaluated at
		// the shard's own fill and mean probability. (The skyline bound may
		// be exactly 0 when q1 exceeds the mean probability — the constant-p
		// model then admits no q1-skyline point.)
		wantSky := stats.ExpectedSkylineUpper(met.WindowFill, 2, met.MeanProb, 0.5)
		wantCand := stats.ExpectedCandidateUpper(met.WindowFill, 2, met.MeanProb, 0.3)
		if met.TheorySkylineBound != wantSky {
			t.Errorf("shard %d skyline bound = %v, recomputed %v", i, met.TheorySkylineBound, wantSky)
		}
		if met.TheoryCandidateBound != wantCand {
			t.Errorf("shard %d candidate bound = %v, recomputed %v", i, met.TheoryCandidateBound, wantCand)
		}
		if !(met.TheoryCandidateBound > 0) || math.IsInf(met.TheoryCandidateBound, 0) || math.IsNaN(met.TheoryCandidateBound) {
			t.Errorf("shard %d candidate bound = %v, want positive finite", i, met.TheoryCandidateBound)
		}
		if met.Stats.Skyline > met.Stats.Candidates {
			t.Errorf("shard %d skyline %d > candidates %d", i, met.Stats.Skyline, met.Stats.Candidates)
		}
	}
	st := s.View().Stats()
	if st.Skyline > st.Candidates || st.Candidates > 200 {
		t.Errorf("merged sizes implausible: %+v", st)
	}
	if st.Processed != 1000 {
		t.Errorf("merged processed = %d, want 1000", st.Processed)
	}
}

// TestShardedAsyncGlobalSeqs is the regression test for the PR 4-era
// single-tenant assumption in the async queue: sequence numbers used to be
// invented by each queue, which would collide across shards. The sharded
// front end owns numbering now, so concurrent-mode pushes must return
// globally consecutive numbers regardless of which shard's queue they land
// on.
func TestShardedAsyncGlobalSeqs(t *testing.T) {
	els := genShardElements(21, 500, 2)
	s, err := pskyline.NewSharded(pskyline.ShardedOptions{
		Options: pskyline.Options{Dims: 2, Window: 100, Thresholds: []float64{0.3}, AsyncQueue: 64},
		Shards:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := range els {
		seq, err := s.Push(els[i])
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i) {
			t.Fatalf("push %d assigned seq %d", i, seq)
		}
	}
	s.Drain()
	if got := s.View().Stats().Processed; got != 500 {
		t.Fatalf("processed = %d after drain", got)
	}
}

// TestShardMemberRejectsDirectPush is the regression test for the second
// single-tenant assumption: a shard engine must not accept out-of-band
// pushes, which would corrupt the global numbering.
func TestShardMemberRejectsDirectPush(t *testing.T) {
	s, err := pskyline.NewSharded(pskyline.ShardedOptions{
		Options: pskyline.Options{Dims: 2, Window: 10, Thresholds: []float64{0.3}},
		Shards:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	el := pskyline.Element{Point: []float64{1, 2}, Prob: 0.5}
	if _, err := s.Shard(0).Push(el); err == nil {
		t.Error("shard member accepted a direct Push")
	}
	if _, err := s.Shard(1).PushBatch([]pskyline.Element{el}); err == nil {
		t.Error("shard member accepted a direct PushBatch")
	}
	if _, err := s.Push(el); err != nil {
		t.Errorf("front-end push rejected: %v", err)
	}
}

// TestDurabilityNamespace pins the namespace layout and its validation: the
// joined directory, rejection of path-escaping parts, and the empty-root
// error.
func TestDurabilityNamespace(t *testing.T) {
	root := t.TempDir()
	d := pskyline.Durability{Dir: root}
	ns, err := d.Namespace("streams", "tenant-1")
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(root, "streams", "tenant-1"); ns.Dir != want {
		t.Errorf("namespace dir = %q, want %q", ns.Dir, want)
	}
	for _, bad := range []string{"..", "a/b", "", ".hidden", "x\x00y"} {
		if _, err := d.Namespace(bad); err == nil {
			t.Errorf("namespace part %q accepted", bad)
		}
	}
	if _, err := (pskyline.Durability{}).Namespace("a"); err == nil {
		t.Error("namespace without root accepted")
	}

	// Two monitors under one root must not interfere: distinct WAL trees.
	o1, err := d.Namespace("streams", "a")
	if err != nil {
		t.Fatal(err)
	}
	o2, err := d.Namespace("streams", "b")
	if err != nil {
		t.Fatal(err)
	}
	opt := pskyline.Options{Dims: 1, Window: 8, Thresholds: []float64{0.3}}
	opt.Durability = o1
	m1 := mustMonitor(t, opt)
	opt.Durability = o2
	m2 := mustMonitor(t, opt)
	m1.Push(pskyline.Element{Point: []float64{1}, Prob: 0.9})
	m2.Push(pskyline.Element{Point: []float64{2}, Prob: 0.8})
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
	opt.Durability = o1
	m1b := mustMonitor(t, opt)
	defer m1b.Close()
	if got := m1b.Stats().Processed; got != 1 {
		t.Errorf("stream a recovered %d elements, want 1", got)
	}
}

// TestShardedCloseIdempotent: Close is safe to call twice and concurrently,
// pushes after Close fail with ErrClosed, and the shard goroutines (async
// consumers, WAL reattachers) all exit.
func TestShardedCloseIdempotent(t *testing.T) {
	before := runtime.NumGoroutine()
	s, err := pskyline.NewSharded(pskyline.ShardedOptions{
		Options: pskyline.Options{Dims: 2, Window: 50, Thresholds: []float64{0.3}, AsyncQueue: 32},
		Shards:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, s, genShardElements(1, 200, 2), "sync")

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) { defer wg.Done(); errs[i] = s.Close() }(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("concurrent close %d: %v", i, err)
		}
	}
	if _, err := s.Push(pskyline.Element{Point: []float64{1, 2}, Prob: 0.5}); err != pskyline.ErrClosed {
		t.Errorf("push after close: %v, want ErrClosed", err)
	}
	if _, err := s.PushBatch([]pskyline.Element{{Point: []float64{1, 2}, Prob: 0.5}}); err != pskyline.ErrClosed {
		t.Errorf("batch after close: %v, want ErrClosed", err)
	}

	// Goroutine-leak check: everything spawned for the shards must wind down.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d before, %d after close\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestShardedConcurrentReaders hammers the merged query surface from many
// goroutines while writers stream through every shard — the test exists to
// run under -race and to prove queries never observe a torn merge.
func TestShardedConcurrentReaders(t *testing.T) {
	els := genShardElements(77, 4000, 2)
	s, err := pskyline.NewSharded(pskyline.ShardedOptions{
		Options: pskyline.Options{Dims: 2, Window: 300, Thresholds: []float64{0.5, 0.3}, AsyncQueue: 128},
		Shards:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := s.View()
				if v.Processed() > 0 && v.NumCandidates() == 0 && v.Processed() < 10 {
					continue // tiny windows may legitimately be empty
				}
				sky := s.View().Skyline()
				for i := 1; i < len(sky); i++ {
					if sky[i-1].Psky < sky[i].Psky {
						t.Error("skyline out of order in concurrent read")
						return
					}
				}
				if _, err := s.View().Query(0.5); err != nil {
					t.Errorf("query: %v", err)
					return
				}
				s.View().Stats()
			}
		}()
	}
	var wwg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			chunk := els[w*1000 : (w+1)*1000]
			for i := 0; i < len(chunk); i += 50 {
				if _, err := s.PushBatch(chunk[i : i+50]); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wwg.Wait()
	s.Drain()
	close(stop)
	wg.Wait()
	if got := s.View().Stats().Processed; got != 4000 {
		t.Fatalf("processed = %d, want 4000", got)
	}
}

// TestMergeDeterminism: merging the same candidates partitioned differently
// must produce bit-identical probabilities (the property the byte-compare
// differential relies on). Exercised directly on hand-partitioned views.
func TestMergeDeterminism(t *testing.T) {
	els := genShardElements(13, 900, 2)
	opt := pskyline.Options{Dims: 2, Window: 150, Thresholds: []float64{0.3}}
	var dumps [][]byte
	for _, shards := range []int{2, 3, 5} {
		s, err := pskyline.NewSharded(pskyline.ShardedOptions{Options: opt, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		feed(t, s, els, "batch")
		dumps = append(dumps, dumpView(t, pskyline.MergeViews(shardParts(s))))
		s.Close()
	}
	for i := 1; i < len(dumps); i++ {
		if !bytes.Equal(dumps[0], dumps[i]) {
			t.Fatalf("merge over partition %d differs from partition 0", i)
		}
	}
}

// TestFactorExactMergeZeroProb: elements with probability exactly 1 force
// exact-zero factors; the merge's log-space arithmetic must keep them exact
// (a dominated element behind a certain dominator has Psky exactly 0 and can
// never be a candidate).
func TestFactorExactMergeZeroProb(t *testing.T) {
	f := prob.OneMinus(1)
	if f.Float() != 0 {
		t.Fatalf("1-1 = %v", f.Float())
	}
	s, err := pskyline.NewSharded(pskyline.ShardedOptions{
		Options: pskyline.Options{Dims: 1, Window: 10, Thresholds: []float64{0.3}},
		Shards:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Push(pskyline.Element{Point: []float64{5}, Prob: 0.9})
	s.Push(pskyline.Element{Point: []float64{1}, Prob: 1}) // dominates seq 0 with certainty
	s.Drain()
	for _, c := range s.View().Candidates() {
		if c.Seq == 0 {
			t.Fatalf("certain-dominated element still a candidate: %+v", c)
		}
	}
}
