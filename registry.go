package pskyline

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"

	"pskyline/internal/obs"
	"pskyline/internal/wal"
)

// ValidateStreamName checks a tenant stream name: 1–64 characters from
// [A-Za-z0-9._-], starting with a letter or digit. The character set admits
// no path separators and the leading-alnum rule excludes "." and "..", so a
// valid name is always a safe single path component — stream names double as
// WAL namespace directories and as metric label values.
func ValidateStreamName(s string) error {
	if s == "" {
		return errors.New("pskyline: empty stream name")
	}
	if len(s) > 64 {
		return fmt.Errorf("pskyline: stream name %q longer than 64 characters", s)
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if i == 0 {
			if !alnum {
				return fmt.Errorf("pskyline: stream name %q must start with a letter or digit", s)
			}
			continue
		}
		if !alnum && c != '.' && c != '_' && c != '-' {
			return fmt.Errorf("pskyline: stream name %q contains invalid character %q", s, c)
		}
	}
	return nil
}

// StreamConfig describes one named stream of a StreamRegistry: its monitor
// options, optional sharding, and whether the registry's durability root
// applies to it.
type StreamConfig struct {
	Name    string
	Options Options
	// Shards > 1 opens the stream as a ShardedMonitor.
	Shards int
	// Router overrides the shard router (nil selects GridRouter{}).
	Router Router
	// Durable roots the stream's WAL namespace under the registry's
	// durability directory (<root>/streams/<name>).
	Durable bool
}

// ParseStreamSpec parses a CLI stream specification of the form
//
//	name:key=value,key=value,...
//
// with keys dims, window, period, q (thresholds, "|"-separated, descending),
// shards, router (grid or band), async (queue capacity), async-policy,
// wal (on/off), wal-fsync, wal-policy and checkpoint-every. Example:
//
//	sensors:dims=3,window=100000,q=0.3|0.5,shards=4,wal=on
func ParseStreamSpec(spec string) (StreamConfig, error) {
	var cfg StreamConfig
	name, rest, ok := strings.Cut(spec, ":")
	if !ok {
		return cfg, fmt.Errorf("pskyline: stream spec %q: want name:key=value,...", spec)
	}
	name = strings.TrimSpace(name)
	if err := ValidateStreamName(name); err != nil {
		return cfg, err
	}
	cfg.Name = name
	cfg.Shards = 1
	for _, kv := range strings.Split(rest, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return cfg, fmt.Errorf("pskyline: stream %q: option %q: want key=value", name, kv)
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		bad := func(err error) (StreamConfig, error) {
			return StreamConfig{}, fmt.Errorf("pskyline: stream %q: option %s=%s: %w", name, k, v, err)
		}
		switch k {
		case "dims":
			n, err := strconv.Atoi(v)
			if err != nil {
				return bad(err)
			}
			cfg.Options.Dims = n
		case "window":
			n, err := strconv.Atoi(v)
			if err != nil {
				return bad(err)
			}
			cfg.Options.Window = n
		case "period":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return bad(err)
			}
			cfg.Options.Period = n
		case "q":
			var ths []float64
			for _, qs := range strings.Split(v, "|") {
				q, err := strconv.ParseFloat(strings.TrimSpace(qs), 64)
				if err != nil {
					return bad(err)
				}
				ths = append(ths, q)
			}
			cfg.Options.Thresholds = ths
		case "shards":
			n, err := strconv.Atoi(v)
			if err != nil {
				return bad(err)
			}
			if n < 1 {
				return bad(errors.New("must be >= 1"))
			}
			cfg.Shards = n
		case "router":
			switch strings.ToLower(v) {
			case "grid":
				cfg.Router = GridRouter{}
			case "band":
				cfg.Router = BandRouter{}
			default:
				return bad(errors.New("want grid or band"))
			}
		case "async":
			n, err := strconv.Atoi(v)
			if err != nil {
				return bad(err)
			}
			if n < 0 {
				return bad(errors.New("must be >= 0"))
			}
			cfg.Options.AsyncQueue = n
		case "async-policy":
			pol, err := ParseOverloadPolicy(v)
			if err != nil {
				return bad(err)
			}
			cfg.Options.AsyncPolicy = pol
		case "wal":
			switch strings.ToLower(v) {
			case "on", "true", "1":
				cfg.Durable = true
			case "off", "false", "0":
				cfg.Durable = false
			default:
				return bad(errors.New("want on or off"))
			}
		case "wal-fsync":
			if _, err := wal.ParseFsync(v); err != nil {
				return bad(err)
			}
			cfg.Options.Durability.Fsync = v
		case "wal-policy":
			if _, err := wal.ParsePolicy(v); err != nil {
				return bad(err)
			}
			cfg.Options.Durability.Policy = v
		case "checkpoint-every":
			n, err := strconv.Atoi(v)
			if err != nil {
				return bad(err)
			}
			cfg.Options.Durability.CheckpointEvery = n
		default:
			return bad(errors.New("unknown option"))
		}
	}
	if cfg.Options.Dims < 1 {
		return StreamConfig{}, fmt.Errorf("pskyline: stream %q: dims is required (>= 1)", name)
	}
	if (cfg.Options.Window > 0) == (cfg.Options.Period > 0) {
		return StreamConfig{}, fmt.Errorf("pskyline: stream %q: exactly one of window and period must be positive", name)
	}
	if len(cfg.Options.Thresholds) == 0 {
		return StreamConfig{}, fmt.Errorf("pskyline: stream %q: q is required", name)
	}
	return cfg, nil
}

// ParseStreamSpecs parses a ";"-separated list of stream specifications,
// rejecting duplicate names.
func ParseStreamSpecs(specs string) ([]StreamConfig, error) {
	var out []StreamConfig
	seen := make(map[string]bool)
	for _, spec := range strings.Split(specs, ";") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		cfg, err := ParseStreamSpec(spec)
		if err != nil {
			return nil, err
		}
		if seen[cfg.Name] {
			return nil, fmt.Errorf("pskyline: duplicate stream name %q", cfg.Name)
		}
		seen[cfg.Name] = true
		out = append(out, cfg)
	}
	if len(out) == 0 {
		return nil, errors.New("pskyline: no stream specifications")
	}
	return out, nil
}

// Operator is the interface shared by *Monitor and *ShardedMonitor: one
// logical stream's write path, its read surface and its operational
// controls. It is what multi-tenant hosts (StreamRegistry, serve mode)
// program against. Every read goes through View: a reader that answers
// from one view answers from one consistent state, so a skyline and the
// stream position reported beside it always agree.
type Operator interface {
	Push(e Element) (uint64, error)
	PushBatch(es []Element) (uint64, error)
	Drain()
	Close() error

	View() *View
	AddThreshold(q float64) error
	RemoveThreshold(q float64) error

	Checkpoint() error
	Recovery() RecoveryInfo
	WALState() wal.State
	WritePrometheus(w io.Writer) error
	Flight() FlightInfo
}

var (
	_ Operator = (*Monitor)(nil)
	_ Operator = (*ShardedMonitor)(nil)
)

// StreamRegistry hosts any number of independently configured named streams
// behind one durability root and one metrics registry: stream WAL
// namespaces live at <root>/streams/<name> (shards one level deeper) and
// every metric series carries a stream="<name>" label (plus shard="<i>" for
// sharded streams), so a single /metrics endpoint and a single directory
// tree serve all tenants.
type StreamRegistry struct {
	mu      sync.RWMutex
	streams map[string]Operator
	cfgs    map[string]StreamConfig
	obs     *obs.Registry
	base    Durability
}

// NewStreamRegistry returns an empty registry. base.Dir, when set, roots the
// durable streams' namespaces; base's other knobs are inherited by every
// durable stream (a stream spec can override fsync/policy/cadence).
func NewStreamRegistry(base Durability) *StreamRegistry {
	return &StreamRegistry{
		streams: make(map[string]Operator),
		cfgs:    make(map[string]StreamConfig),
		obs:     obs.NewRegistry(),
		base:    base,
	}
}

// Open creates (or recovers, for durable streams) the named stream. Names
// are unique; reopening an open name is an error.
func (r *StreamRegistry) Open(cfg StreamConfig) (Operator, error) {
	if err := ValidateStreamName(cfg.Name); err != nil {
		return nil, err
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.streams[cfg.Name]; dup {
		return nil, fmt.Errorf("pskyline: stream %q already open", cfg.Name)
	}
	o := cfg.Options
	o.sharedReg = r.obs
	o.metricLabels = []obs.Label{{Key: "stream", Value: cfg.Name}}
	if cfg.Durable {
		if r.base.Dir == "" {
			return nil, fmt.Errorf("pskyline: stream %q wants durability but the registry has no root directory", cfg.Name)
		}
		d := r.base
		// Per-stream overrides ride in on cfg.Options.Durability.
		if o.Durability.Fsync != "" {
			d.Fsync = o.Durability.Fsync
		}
		if o.Durability.Policy != "" {
			d.Policy = o.Durability.Policy
		}
		if o.Durability.CheckpointEvery != 0 {
			d.CheckpointEvery = o.Durability.CheckpointEvery
		}
		var err error
		if d, err = d.Namespace("streams", cfg.Name); err != nil {
			return nil, err
		}
		o.Durability = d
	} else {
		o.Durability = Durability{}
	}
	var (
		op  Operator
		err error
	)
	if cfg.Shards > 1 {
		op, err = NewSharded(ShardedOptions{Options: o, Shards: cfg.Shards, Router: cfg.Router})
	} else {
		op, err = NewMonitor(o)
	}
	if err != nil {
		return nil, fmt.Errorf("pskyline: stream %q: %w", cfg.Name, err)
	}
	r.streams[cfg.Name] = op
	r.cfgs[cfg.Name] = cfg
	return op, nil
}

// Get returns the named stream.
func (r *StreamRegistry) Get(name string) (Operator, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	op, ok := r.streams[name]
	return op, ok
}

// Config returns the named stream's configuration as passed to Open.
func (r *StreamRegistry) Config(name string) (StreamConfig, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	cfg, ok := r.cfgs[name]
	return cfg, ok
}

// Names returns the open stream names, sorted.
func (r *StreamRegistry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.streams))
	for name := range r.streams {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// CloseAll closes every stream, returning the first error.
func (r *StreamRegistry) CloseAll() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var firstErr error
	for _, name := range func() []string {
		ns := make([]string, 0, len(r.streams))
		for n := range r.streams {
			ns = append(ns, n)
		}
		sort.Strings(ns)
		return ns
	}() {
		if err := r.streams[name].Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		delete(r.streams, name)
		delete(r.cfgs, name)
	}
	return firstErr
}

// WritePrometheus renders every stream's metrics (labeled by stream and
// shard) in the Prometheus text exposition format.
func (r *StreamRegistry) WritePrometheus(w io.Writer) error {
	return r.obs.WritePrometheus(w)
}
