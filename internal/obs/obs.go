// Package obs is the repo's dependency-free observability layer: a metrics
// registry of atomic counters, gauges and log-bucketed latency histograms,
// the one per-request record every RPC's context carries (req.go), and HTTP
// exposition in Prometheus text format (http.go).
//
// Design goals, in order:
//
//   - Lock-cheap on the hot path: Observe/Add/Set are one or two atomic
//     operations; registry lookups happen once at wire-up time, never per
//     operation.
//   - Mergeable: every metric snapshots to plain exported structs that the
//     wire codec carries unchanged (inside wire.StatsResponse), and snapshots
//     from many replicas merge into one distribution — the paper's claims
//     are all distributional (commit-latency percentiles, abort rates vs.
//     clock skew), so per-replica averages are not enough.
//   - Nil-safe: every method on a nil metric or registry is a no-op, so
//     instrumentation points need no conditionals.
//
// Metric names follow the Prometheus convention with inline labels:
// "milana_txn_stage_ns{stage=\"prepare\"}". The full string is the registry
// key; exposition splices extra labels (quantile) into the existing brace
// set. Durations are recorded in nanoseconds and suffixed "_ns".
package obs

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta (inflight-style gauges).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// SetMax raises the gauge to v if v is larger (high-watermark gauges).
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry holds named metrics. Metrics are created on first use and live
// for the registry's lifetime; callers cache the returned pointers. The
// zero-value-unusable rule of the rest of the repo applies: use NewRegistry.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of a registry's metrics, in plain
// exported types so it travels inside wire.StatsResponse and merges across
// replicas.
type Snapshot struct {
	Counters map[string]int64
	Gauges   map[string]int64
	Hists    map[string]HistogramSnapshot
}

// Snapshot copies every metric. A nil registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters: make(map[string]int64),
		Gauges:   make(map[string]int64),
		Hists:    make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Hists[name] = h.Snapshot()
	}
	return s
}

// Merge folds o into s: counters and histograms add, gauges take the
// maximum (the only order-free combination for instantaneous values).
func (s *Snapshot) Merge(o Snapshot) {
	if s.Counters == nil {
		s.Counters = make(map[string]int64)
	}
	if s.Gauges == nil {
		s.Gauges = make(map[string]int64)
	}
	if s.Hists == nil {
		s.Hists = make(map[string]HistogramSnapshot)
	}
	for name, v := range o.Counters {
		s.Counters[name] += v
	}
	for name, v := range o.Gauges {
		if cur, ok := s.Gauges[name]; !ok || v > cur {
			s.Gauges[name] = v
		}
	}
	for name, h := range o.Hists {
		cur := s.Hists[name]
		cur.Merge(h)
		s.Hists[name] = cur
	}
}

// SortedNames returns the union of metric names, sorted, for stable output.
func (s Snapshot) SortedNames() []string {
	names := make([]string, 0, len(s.Counters)+len(s.Gauges)+len(s.Hists))
	for n := range s.Counters {
		names = append(names, n)
	}
	for n := range s.Gauges {
		names = append(names, n)
	}
	for n := range s.Hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// labelEscaper escapes a label value per the Prometheus text exposition
// format: backslash, double quote, and newline must be escaped inside the
// quoted value.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// EscapeLabelValue returns v escaped for use inside a quoted Prometheus
// label value.
func EscapeLabelValue(v string) string { return labelEscaper.Replace(v) }

// WithLabel splices an extra label into a possibly-labeled metric name,
// escaping the value: WithLabel(`x{a="b"}`, `q`, `0.5`) → `x{a="b",q="0.5"}`.
// Callers building labeled metric names from runtime strings (stage names,
// outcomes, request types) must use this rather than string concatenation,
// or the /metrics exposition emits unparseable lines.
func WithLabel(name, label, value string) string {
	return withLabel(name, label, value)
}

func withLabel(name, label, value string) string {
	value = labelEscaper.Replace(value)
	if i := strings.LastIndexByte(name, '}'); i >= 0 {
		return name[:i] + `,` + label + `="` + value + `"` + name[i:]
	}
	return name + `{` + label + `="` + value + `"}`
}

// splitName separates a metric name from its inline label block:
// `x{a="b"}` → (`x`, `{a="b"}`).
func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}
