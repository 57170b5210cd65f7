package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Registry is an ordered collection of named metric families for export.
// Registration happens at construction time (it allocates and is not
// synchronized with itself); after that the registry is immutable and the
// exporters may run concurrently with recording from any goroutine.
//
// A family is one metric name with HELP/TYPE metadata; labeled series
// registered under the same name join the existing family, so a stage
// histogram family renders as one TYPE block with a `stage` label per
// series, the way Prometheus expects.
type Registry struct {
	families []*family
	byName   map[string]*family
}

type family struct {
	name, help, typ string // typ: "counter", "gauge", "histogram", "summary"
	series          []series
}

// series is one exported time series: exactly one of the value sources is
// set. Function-backed sources let the registry export values that are
// derived at scrape time (theory bounds, ages) or read from state published
// elsewhere (a read view).
type series struct {
	labels  []Label
	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    *Histogram
	whist   *WindowedHistogram
}

// Label is one key="value" pair attached to a series.
type Label struct {
	Key, Value string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func (r *Registry) add(name, help, typ string, s series) {
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as both %s and %s", name, f.typ, typ))
	}
	f.series = append(f.series, s)
}

// RegisterCounter exports c under name.
func (r *Registry) RegisterCounter(name, help string, c *Counter, labels ...Label) {
	r.add(name, help, "counter", series{labels: labels, counter: c})
}

// RegisterCounterFunc exports a counter whose value is produced by fn at
// scrape time. fn must be safe for concurrent use and monotone.
func (r *Registry) RegisterCounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.add(name, help, "counter", series{labels: labels, fn: fn})
}

// RegisterGauge exports g under name.
func (r *Registry) RegisterGauge(name, help string, g *Gauge, labels ...Label) {
	r.add(name, help, "gauge", series{labels: labels, gauge: g})
}

// RegisterGaugeFunc exports a gauge whose value is produced by fn at scrape
// time. fn must be safe for concurrent use.
func (r *Registry) RegisterGaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.add(name, help, "gauge", series{labels: labels, fn: fn})
}

// RegisterHistogram exports h under name.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram, labels ...Label) {
	r.add(name, help, "histogram", series{labels: labels, hist: h})
}

// RegisterWindowed exports w under name as a Prometheus summary: quantile
// series computed over the recent epoch window at scrape time, with the
// cumulative (lifetime) `_sum` and `_count` the summary convention requires.
func (r *Registry) RegisterWindowed(name, help string, w *WindowedHistogram, labels ...Label) {
	r.add(name, help, "summary", series{labels: labels, whist: w})
}

func (s series) value() float64 {
	switch {
	case s.counter != nil:
		return float64(s.counter.Load())
	case s.gauge != nil:
		return s.gauge.Load()
	case s.fn != nil:
		return s.fn()
	}
	return 0
}

// labelKey renders the series labels as a stable sorted key ("" when the
// series is unlabeled).
func (s series) labelKey() string {
	if len(s.labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), s.labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	parts := make([]string, len(ls))
	for i, l := range ls {
		parts[i] = l.Key + "=" + l.Value
	}
	return strings.Join(parts, ",")
}
