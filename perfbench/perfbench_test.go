package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// serverBin is a pskyline binary built once for the HTTP workload.
var serverBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		panic(err)
	}
	serverBin = filepath.Join(dir, "pskyline")
	out, err := exec.Command("go", "build", "-o", serverBin, "pskyline/cmd/pskyline").CombinedOutput()
	if err != nil {
		os.RemoveAll(dir)
		panic("build pskyline: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// tiny shrinks a workload so a full run takes about a second.
func tiny(w workload) workload {
	w.window = 2000
	w.pool = 4096
	w.think = time.Millisecond
	return w
}

func tinyConfig(t *testing.T, trace bool) config {
	return config{
		seed: 7, seconds: 0.6, trace: trace, serverBin: serverBin, workdir: t.TempDir(),
		systems: 2, tailMin: -1, ladderPush: 32, ladderBatches: 4,
	}
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, program %v", names, have)
	}
	toMap := func(ms []struct{ Name, Unit string }) map[string]string {
		out := make(map[string]string)
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	return toMap(spec.EndToEnd), toMap(spec.PerLayer)
}

// TestSmokeEveryMetricPrinted runs every workload on a tiny window, timed
// and traced, and checks that the printed result line carries exactly the
// declared metrics with their units.
func TestSmokeEveryMetricPrinted(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = perLayer
			}
			res, err := runWorkload(tiny(w), tinyConfig(t, trace), testLog{t})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			var out bytes.Buffer
			if err := writeResult(&out, res); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var got struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
				t.Fatalf("%s: result line: %v", w.name, err)
			}
			if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, got.Correct, got.Attempted, got.Failed)
			}
			for name, unit := range want {
				m, ok := got.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, name)
				} else if m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s unit %q, declared %q", w.name, trace, name, m.Unit, unit)
				}
			}
			for name := range got.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: undeclared metric %s", w.name, trace, name)
				}
			}
		}
	}
}

// TestCheckCatchesPerturbedReference feeds a reference engine the same
// stream except for one element's probability and expects the check to
// reject the system's answer.
func TestCheckCatchesPerturbedReference(t *testing.T) {
	w := tiny(workloads[0])
	in := genInputs(w, 3)
	// The last element dominates every point, so its probability reaches
	// the skyline probability of the whole candidate set.
	last := w.window - 1
	for j := 0; j < w.dims; j++ {
		in.coords[last*w.dims+j] = 0
	}
	in.probs[last] = 0.9
	sys, err := buildMonitor(w, in)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	good, err := reference(w, in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.check(good); err != nil {
		t.Fatalf("unperturbed reference rejected: %v", err)
	}
	in.probs[last] = 0.8
	bad, err := reference(w, in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.check(bad); err == nil {
		t.Fatal("check accepted a reference fed a perturbed element")
	}
	if err := compareViews(sys.m.View(), sys.m.View()); err != nil {
		t.Fatalf("a view differs from itself: %v", err)
	}
}

// TestTracedAndTimedConsumeIdenticalInputs checks that both run modes feed
// the input generated from the seed, and that the seed changes it.
func TestTracedAndTimedConsumeIdenticalInputs(t *testing.T) {
	w := tiny(workloads[1])
	timedRes, err := runWorkload(w, tinyConfig(t, false), testLog{t})
	if err != nil {
		t.Fatal(err)
	}
	tracedRes, err := runWorkload(w, tinyConfig(t, true), testLog{t})
	if err != nil {
		t.Fatal(err)
	}
	if timedRes.digest != tracedRes.digest {
		t.Fatalf("timed run digest %x, traced run %x", timedRes.digest, tracedRes.digest)
	}
	if d := genInputs(w, subSeed(8, 0)).digest(256); d == timedRes.digest {
		t.Fatal("a different seed generated the same input")
	}
}

func TestUnknownWorkloadPrintsNoResult(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &stdout, &stderr); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
	if stdout.Len() != 0 {
		t.Fatalf("printed %q", stdout.String())
	}
}

// testLog sends the benchmark's progress lines to the test log.
type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(strings.TrimSpace(string(p)))
	return len(p), nil
}
