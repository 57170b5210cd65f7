package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	el, err := parseLine("1.5,2.5,0.8", 2)
	if err != nil {
		t.Fatal(err)
	}
	if el.Point[0] != 1.5 || el.Point[1] != 2.5 || el.Prob != 0.8 || el.TS != 0 {
		t.Fatalf("parsed %+v", el)
	}

	el, err = parseLine(" 1 , 2 , 0.5 , 42 ", 2)
	if err != nil {
		t.Fatal(err)
	}
	if el.TS != 42 {
		t.Fatalf("ts = %d", el.TS)
	}

	for _, bad := range []string{
		"1,2",          // too few fields
		"1,2,3,4,5",    // too many
		"x,2,0.5",      // bad coordinate
		"1,2,p",        // bad probability
		"1,2,0.5,nope", // bad timestamp
	} {
		if _, err := parseLine(bad, 2); err == nil {
			t.Errorf("parseLine(%q) accepted", bad)
		}
	}
}

// genCSV produces n deterministic "x,y,p" lines for a 2-d stream.
func genCSV(seed int64, n int) []string {
	r := rand.New(rand.NewSource(seed))
	lines := make([]string, n)
	for i := range lines {
		// Keep the probability ≥ 0.0001 so %.4f cannot round it to 0.
		lines[i] = fmt.Sprintf("%.6f,%.6f,%.4f", r.Float64(), r.Float64(), 0.0001+0.9999*r.Float64())
	}
	return lines
}

// runSession drives run() over the given input lines and returns stdout.
func runSession(t *testing.T, cfg config, lines []string) string {
	t.Helper()
	var out, errw bytes.Buffer
	in := strings.NewReader(strings.Join(lines, "\n") + "\n")
	if err := run(cfg, in, &out, &errw); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errw.String())
	}
	return out.String()
}

// eventLines filters the enter/leave event output, dropping per-session
// statistics.
func eventLines(out string) []string {
	var ev []string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "+") || strings.HasPrefix(l, "-") {
			ev = append(ev, l)
		}
	}
	return ev
}

// finalSizes extracts the "now" candidate/skyline counts from the stats
// footer (the per-session max counts legitimately differ across restarts).
func finalSizes(t *testing.T, out string) (cand, sky int) {
	t.Helper()
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "candidates: now ") {
			if _, err := fmt.Sscanf(l, "candidates: now %d, max %d; skyline: now %d,", &cand, new(int), &sky); err != nil {
				t.Fatalf("parse stats %q: %v", l, err)
			}
			return cand, sky
		}
	}
	t.Fatalf("no stats footer in output:\n%s", out)
	return 0, 0
}

// TestRunCheckpointRoundTrip proves that interrupting a session with a
// checkpoint and resuming it — with different batching and async settings —
// produces exactly the same event stream and final skyline state as one
// uninterrupted run.
func TestRunCheckpointRoundTrip(t *testing.T) {
	const n = 1200
	lines := genCSV(3, n)
	base := config{dims: 2, window: 300, thresholds: []float64{0.3}, batch: 1}

	full := runSession(t, base, lines)

	ck := filepath.Join(t.TempDir(), "ck.gob")
	first := base
	first.ckpt = ck
	out1 := runSession(t, first, lines[:n/2])

	second := base
	second.ckpt = ck
	second.batch = 7
	second.async = 16
	out2 := runSession(t, second, lines[n/2:])

	want := eventLines(full)
	got := append(eventLines(out1), eventLines(out2)...)
	if len(want) != len(got) {
		t.Fatalf("event count: uninterrupted %d, resumed %d", len(want), len(got))
	}
	// A restore bulk-reloads the R-trees, so events triggered by one push can
	// be discovered in a different tree-traversal order; the set of events —
	// which elements enter and leave the skyline — must be identical.
	sort.Strings(want)
	sort.Strings(got)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("event %d differs:\nuninterrupted: %s\nresumed:       %s", i, want[i], got[i])
		}
	}
	wc, ws := finalSizes(t, full)
	gc, gs := finalSizes(t, out2)
	if wc != gc || ws != gs {
		t.Fatalf("final sizes: uninterrupted cand=%d sky=%d, resumed cand=%d sky=%d", wc, ws, gc, gs)
	}
}

// TestRunSnapshotModeAsync checks snapshot-mode output with batched + async
// ingestion: every snapshot is printed after a Drain, so the reported stream
// position must be exact.
func TestRunSnapshotModeAsync(t *testing.T) {
	const n = 600
	lines := genCSV(5, n)
	cfg := config{
		dims: 2, window: 200, thresholds: []float64{0.3},
		snapshot: 150, batch: 4, async: 32, summary: false,
	}
	out := runSession(t, cfg, lines)
	var positions []int
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "@") {
			var at, sz int
			if _, err := fmt.Sscanf(l, "@%d skyline (%d points):", &at, &sz); err != nil {
				t.Fatalf("parse snapshot header %q: %v", l, err)
			}
			positions = append(positions, at)
		}
	}
	want := []int{150, 300, 450, 600}
	if len(positions) != len(want) {
		t.Fatalf("snapshot positions %v, want %v", positions, want)
	}
	for i := range want {
		if positions[i] != want[i] {
			t.Fatalf("snapshot positions %v, want %v", positions, want)
		}
	}
}

// TestRunRejectsNonFiniteCoordinate: strconv.ParseFloat accepts "inf" and
// "NaN", so the CSV path hands such points to the monitor, which must reject
// them before the WAL logs them; the -wal directory then resumes to the same
// state as a run that never saw the bad line.
func TestRunRejectsNonFiniteCoordinate(t *testing.T) {
	lines := genCSV(5, 200)
	cfg := config{dims: 2, window: 64, thresholds: []float64{0.3}, batch: 1, summary: true, walFsync: "never"}
	clean := cfg
	clean.walDir = t.TempDir()
	wantCand, wantSky := finalSizes(t, runSession(t, clean, lines))
	for _, bad := range []string{"inf,0.5,0.9", "0.5,-Inf,0.9", "NaN,0.5,0.9"} {
		cfg.walDir = t.TempDir()
		in := append(append(lines[:100:100], bad), lines[100:]...)
		err := run(cfg, strings.NewReader(strings.Join(in, "\n")+"\n"), new(bytes.Buffer), new(bytes.Buffer))
		if err == nil || !strings.Contains(err.Error(), "line 101:") {
			t.Errorf("%q: run returned %v, want a rejection at line 101", bad, err)
			continue
		}
		cand, sky := finalSizes(t, runSession(t, cfg, lines[100:]))
		if cand != wantCand || sky != wantSky {
			t.Errorf("%q: resumed at candidates=%d skyline=%d, want %d/%d", bad, cand, sky, wantCand, wantSky)
		}
	}
}

// TestRunRejectsBadBatch covers run()'s own validation.
func TestRunRejectsBadBatch(t *testing.T) {
	err := run(config{dims: 2, window: 10, thresholds: []float64{0.3}, batch: 0},
		strings.NewReader(""), new(bytes.Buffer), new(bytes.Buffer))
	if err == nil {
		t.Fatal("batch=0 accepted")
	}
}
