package pskyline_test

import (
	"bytes"
	"strings"
	"testing"

	"pskyline"
)

func TestValidateStreamName(t *testing.T) {
	good := []string{"a", "A9", "sensor-1", "a.b_c-d", "0x", strings.Repeat("a", 64)}
	for _, s := range good {
		if err := pskyline.ValidateStreamName(s); err != nil {
			t.Errorf("%q rejected: %v", s, err)
		}
	}
	bad := []string{"", ".", "..", ".hidden", "-x", "_x", "a/b", "a\\b", "a b",
		"a\x00b", "naïve", strings.Repeat("a", 65)}
	for _, s := range bad {
		if err := pskyline.ValidateStreamName(s); err == nil {
			t.Errorf("%q accepted", s)
		}
	}
}

func TestParseStreamSpec(t *testing.T) {
	cfg, err := pskyline.ParseStreamSpec("sensors: dims=3, window=1000, q=0.5|0.3, shards=4, router=band, async=128, wal=on")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Name != "sensors" || cfg.Options.Dims != 3 || cfg.Options.Window != 1000 {
		t.Errorf("cfg = %+v", cfg)
	}
	if len(cfg.Options.Thresholds) != 2 || cfg.Options.Thresholds[0] != 0.5 {
		t.Errorf("thresholds = %v", cfg.Options.Thresholds)
	}
	if cfg.Shards != 4 || cfg.Options.AsyncQueue != 128 || !cfg.Durable {
		t.Errorf("cfg = %+v", cfg)
	}
	if _, ok := cfg.Router.(pskyline.BandRouter); !ok {
		t.Errorf("router = %T", cfg.Router)
	}

	bad := []string{
		"",                                   // no name
		"noopts",                             // no colon
		"x:",                                 // dims missing
		"x:dims=2",                           // window/period missing
		"x:dims=2,window=5",                  // q missing
		"x:dims=2,window=5,period=9,q=0.3",   // both windows
		"x:dims=0,window=5,q=0.3",            // bad dims
		"x:dims=2,window=5,q=abc",            // bad threshold
		"x:dims=2,window=5,q=0.3,shards=0",   // bad shards
		"x:dims=2,window=5,q=0.3,router=xyz", // bad router
		"x:dims=2,window=5,q=0.3,bogus=1",    // unknown key
		"x:dims=2,window=5,q=0.3,wal=maybe",  // bad wal value
		"../etc:dims=2,window=5,q=0.3",       // path-escaping name
	}
	for _, s := range bad {
		if _, err := pskyline.ParseStreamSpec(s); err == nil {
			t.Errorf("spec %q accepted", s)
		}
	}
}

func TestParseStreamSpecs(t *testing.T) {
	cfgs, err := pskyline.ParseStreamSpecs("a:dims=2,window=5,q=0.3; b:dims=1,period=100,q=0.5,shards=2;")
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 2 || cfgs[0].Name != "a" || cfgs[1].Name != "b" || cfgs[1].Options.Period != 100 {
		t.Errorf("cfgs = %+v", cfgs)
	}
	if _, err := pskyline.ParseStreamSpecs("a:dims=2,window=5,q=0.3;a:dims=2,window=5,q=0.3"); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := pskyline.ParseStreamSpecs(" ; "); err == nil {
		t.Error("empty spec list accepted")
	}
}

// FuzzParseStreamSpec: the spec parser must never panic, and every accepted
// config must be internally consistent — a safe name, valid dimensionality,
// exactly one window kind, and at least one threshold.
func FuzzParseStreamSpec(f *testing.F) {
	f.Add("sensors:dims=3,window=100000,q=0.3|0.5,shards=4,wal=on")
	f.Add("x:dims=2,period=500,q=0.9,router=grid,async=16,async-policy=drop-oldest")
	f.Add("a:dims=1,window=1,q=1,wal-fsync=always,wal-policy=retry,checkpoint-every=100")
	f.Add("::::")
	f.Add("a:b=c,d==e,,")
	f.Fuzz(func(t *testing.T, s string) {
		cfg, err := pskyline.ParseStreamSpec(s)
		if err != nil {
			return
		}
		if nerr := pskyline.ValidateStreamName(cfg.Name); nerr != nil {
			t.Fatalf("accepted spec %q with invalid name: %v", s, nerr)
		}
		if cfg.Options.Dims < 1 {
			t.Fatalf("accepted spec %q with dims %d", s, cfg.Options.Dims)
		}
		if (cfg.Options.Window > 0) == (cfg.Options.Period > 0) {
			t.Fatalf("accepted spec %q with window=%d period=%d", s, cfg.Options.Window, cfg.Options.Period)
		}
		if len(cfg.Options.Thresholds) == 0 {
			t.Fatalf("accepted spec %q without thresholds", s)
		}
		if cfg.Shards < 1 {
			t.Fatalf("accepted spec %q with shards %d", s, cfg.Shards)
		}
	})
}

// TestStreamRegistry covers the multi-tenant lifecycle: open sharded and
// unsharded streams, name isolation for metrics and durability, duplicate
// rejection, and CloseAll.
func TestStreamRegistry(t *testing.T) {
	root := t.TempDir()
	reg := pskyline.NewStreamRegistry(pskyline.Durability{Dir: root})

	cfgs, err := pskyline.ParseStreamSpecs(
		"plain:dims=2,window=50,q=0.3;sharded:dims=2,window=50,q=0.3,shards=3;dur:dims=2,window=50,q=0.3,wal=on")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range cfgs {
		if _, err := reg.Open(cfg); err != nil {
			t.Fatalf("open %s: %v", cfg.Name, err)
		}
	}
	if _, err := reg.Open(cfgs[0]); err == nil {
		t.Error("duplicate open accepted")
	}
	if got := reg.Names(); len(got) != 3 || got[0] != "dur" || got[1] != "plain" || got[2] != "sharded" {
		t.Errorf("names = %v", got)
	}
	// A NaN threshold is out of range, for plain and sharded streams alike.
	for _, spec := range []string{"nanq:dims=2,window=10,q=NaN", "nanqs:dims=2,window=10,q=NaN,shards=2"} {
		bad, err := pskyline.ParseStreamSpecs(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := reg.Open(bad[0]); err == nil {
			t.Errorf("%s: NaN threshold accepted", spec)
		}
	}

	els := genShardElements(8, 120, 2)
	for _, name := range reg.Names() {
		op, ok := reg.Get(name)
		if !ok {
			t.Fatalf("stream %s missing", name)
		}
		if _, err := op.PushBatch(els); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		op.Drain()
		if got := op.View().Stats().Processed; got != 120 {
			t.Errorf("%s processed = %d", name, got)
		}
	}
	if _, ok := reg.Get("nope"); ok {
		t.Error("unknown stream found")
	}

	// One exposition serves all tenants, labeled by stream (and shard).
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	expo := buf.String()
	for _, want := range []string{
		`stream="plain"`, `stream="sharded"`, `stream="dur"`,
		`shard="0",stream="sharded"`, `shard="2",stream="sharded"`,
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("prometheus exposition missing %s", want)
		}
	}

	// Durable stream landed under <root>/streams/<name>.
	opDur, _ := reg.Get("dur")
	if err := opDur.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := reg.CloseAll(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Names(); len(got) != 0 {
		t.Errorf("names after CloseAll = %v", got)
	}

	// Reopening the durable stream recovers its state.
	reg2 := pskyline.NewStreamRegistry(pskyline.Durability{Dir: root})
	op, err := reg2.Open(pskyline.StreamConfig{
		Name:    "dur",
		Options: pskyline.Options{Dims: 2, Window: 50, Thresholds: []float64{0.3}},
		Durable: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !op.Recovery().Recovered {
		t.Error("durable stream did not recover")
	}
	if got := op.View().Stats().Processed; got != 120 {
		t.Errorf("recovered processed = %d, want 120", got)
	}
	if err := reg2.CloseAll(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamRegistryDurableNeedsRoot: a wal=on stream without a registry
// root must fail to open rather than silently running non-durable.
func TestStreamRegistryDurableNeedsRoot(t *testing.T) {
	reg := pskyline.NewStreamRegistry(pskyline.Durability{})
	_, err := reg.Open(pskyline.StreamConfig{
		Name:    "d",
		Options: pskyline.Options{Dims: 1, Window: 5, Thresholds: []float64{0.3}},
		Durable: true,
	})
	if err == nil {
		t.Fatal("durable stream opened without a root directory")
	}
}
