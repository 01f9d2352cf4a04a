// Embedded time-series store + regression watchdog. External monitoring
// (Prometheus scraping /metrics) answers "what is the p99 now?"; it cannot
// answer "did the commit-wait stage regress three minutes ago when the
// epsilon profile changed?" without infrastructure this repo's experiments
// don't have. TSDB keeps the recent history itself: a fixed-retention ring
// per series (every counter, every gauge, and the p50/p99/count of every
// histogram), sampled on a 1s tick, O(series·window) memory, exported
// delta-encoded over the wire (wire.TSDBRequest → `milctl history`) and as
// JSON on /debug/tsdb. The Watchdog evaluates threshold/trend rules over
// the same rings each tick — stage-p99 regressions, abort-rate spikes,
// watermark-lag growth, ε-violation onset — and hands structured Alerts to
// callbacks (semeld files them into the audit flight recorder) while
// counting obs_alerts_total{rule}.
package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// TSDBOptions configures the store. Zero values pick the defaults noted.
type TSDBOptions struct {
	Interval time.Duration // sampling period (default 1s)
	Window   int           // samples retained per series (default 900 ≈ 15 min)
	Runtime  bool          // also sample Go runtime health gauges each tick
}

// tsSeries is one fixed-capacity ring of samples.
type tsSeries struct {
	vals []int64 // ring storage, capacity = Window
	head int     // next write slot
	n    int     // filled count (≤ cap)
}

func (s *tsSeries) push(v int64) {
	if s.n < cap(s.vals) {
		s.vals = s.vals[:s.n+1]
		s.vals[s.n] = v
		s.n++
		s.head = s.n % cap(s.vals)
		return
	}
	s.vals[s.head] = v
	s.head = (s.head + 1) % cap(s.vals)
}

// last appends the most recent n samples (oldest first) to dst.
func (s *tsSeries) last(dst []int64, n int) []int64 {
	if n <= 0 || n > s.n {
		n = s.n
	}
	start := s.head - n
	if s.n < cap(s.vals) {
		start = s.n - n
	}
	for i := 0; i < n; i++ {
		dst = append(dst, s.vals[(start+i+cap(s.vals))%cap(s.vals)])
	}
	return dst
}

// TSDB samples a Registry into per-series rings. Create with NewTSDB, start
// the sampling loop with Start (or drive ticks manually with Sample in
// tests), stop with Close. All methods are nil-safe.
type TSDB struct {
	reg *Registry
	opt TSDBOptions

	mu     sync.Mutex
	series map[string]*tsSeries
	seq    int64 // total ticks taken
	dogs   []*Watchdog

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// NewTSDB creates a store over reg. It takes no samples until Start or
// Sample is called.
func NewTSDB(reg *Registry, opt TSDBOptions) *TSDB {
	if opt.Interval <= 0 {
		opt.Interval = time.Second
	}
	if opt.Window <= 0 {
		opt.Window = 900
	}
	return &TSDB{
		reg:    reg,
		opt:    opt,
		series: make(map[string]*tsSeries),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// Interval returns the sampling period.
func (t *TSDB) Interval() time.Duration {
	if t == nil {
		return 0
	}
	return t.opt.Interval
}

// Attach registers a watchdog to be evaluated after every sample.
func (t *TSDB) Attach(w *Watchdog) {
	if t == nil || w == nil {
		return
	}
	t.mu.Lock()
	t.dogs = append(t.dogs, w)
	t.mu.Unlock()
}

// Start launches the background sampling loop. Safe to call once; Close
// stops it.
func (t *TSDB) Start() {
	if t == nil {
		return
	}
	t.startOnce.Do(func() {
		go func() {
			defer close(t.done)
			tick := time.NewTicker(t.opt.Interval)
			defer tick.Stop()
			for {
				select {
				case <-t.stop:
					return
				case <-tick.C:
					t.Sample()
				}
			}
		}()
	})
}

// Close stops the sampling loop and waits for it to exit. Safe to call
// without Start and to call twice.
func (t *TSDB) Close() {
	if t == nil {
		return
	}
	t.stopOnce.Do(func() { close(t.stop) })
	t.startOnce.Do(func() { close(t.done) }) // never started: unblock the wait
	<-t.done
}

// Sample takes one tick: snapshots the registry, pushes one value per
// series (counters and gauges raw; histograms expanded to name+"/p50",
// "/p99", "/count"), then evaluates attached watchdogs. Exported so tests
// and experiments can drive the clockless path deterministically.
func (t *TSDB) Sample() {
	if t == nil {
		return
	}
	if t.opt.Runtime {
		SampleRuntime(t.reg)
	}
	snap := t.reg.Snapshot()

	t.mu.Lock()
	t.seq++
	for name, v := range snap.Counters {
		t.push(name, v)
	}
	for name, v := range snap.Gauges {
		t.push(name, v)
	}
	for name, h := range snap.Hists {
		t.push(name+"/p50", h.Quantile(0.50))
		t.push(name+"/p99", h.Quantile(0.99))
		t.push(name+"/count", int64(h.Count))
	}
	var alerts []Alert
	for _, w := range t.dogs {
		alerts = append(alerts, w.evaluate(t.seq, t.series)...)
	}
	t.mu.Unlock()

	// Deliver outside t.mu: sinks may touch the registry or the recorder.
	for _, a := range alerts {
		a.deliver()
	}
}

// push requires t.mu.
func (t *TSDB) push(name string, v int64) {
	s := t.series[name]
	if s == nil {
		s = &tsSeries{vals: make([]int64, 0, t.opt.Window)}
		t.series[name] = s
	}
	s.push(v)
}

// SeriesDump is one series' recent window in delta encoding: the samples
// are First, First+Deltas[0], First+Deltas[0]+Deltas[1], … — counters and
// slow-moving gauges compress to near-zero deltas, and the flat struct is
// cheap for the wire codec to carry.
type SeriesDump struct {
	Name   string
	Seq    int64 // tick number of the newest sample
	First  int64
	Deltas []int64
}

// Samples decodes the dump back into absolute values, oldest first.
func (d SeriesDump) Samples() []int64 {
	out := make([]int64, 0, len(d.Deltas)+1)
	v := d.First
	out = append(out, v)
	for _, dv := range d.Deltas {
		v += dv
		out = append(out, v)
	}
	return out
}

// Query returns the last lastN samples (0 = full window) of every series
// whose name contains any of the patterns (no patterns = every series),
// sorted by name.
func (t *TSDB) Query(patterns []string, lastN int) []SeriesDump {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []SeriesDump
	var buf []int64
	for name, s := range t.series {
		if s.n == 0 || !matchAny(name, patterns) {
			continue
		}
		buf = s.last(buf[:0], lastN)
		d := SeriesDump{Name: name, Seq: t.seq, First: buf[0]}
		if len(buf) > 1 {
			d.Deltas = make([]int64, len(buf)-1)
			for i := 1; i < len(buf); i++ {
				d.Deltas[i-1] = buf[i] - buf[i-1]
			}
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func matchAny(name string, patterns []string) bool {
	if len(patterns) == 0 {
		return true
	}
	for _, p := range patterns {
		if strings.Contains(name, p) {
			return true
		}
	}
	return false
}

// ServeHTTP answers /debug/tsdb: ?match= substring filters (repeatable),
// ?n= last-N samples, JSON out with samples decoded for direct plotting.
func (t *TSDB) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	lastN := 0
	if s := q.Get("n"); s != "" {
		lastN, _ = strconv.Atoi(s)
	}
	dumps := t.Query(q["match"], lastN)
	type jsonSeries struct {
		Name    string  `json:"name"`
		Seq     int64   `json:"seq"`
		Samples []int64 `json:"samples"`
	}
	resp := struct {
		IntervalNs int64        `json:"interval_ns"`
		Window     int          `json:"window"`
		Series     []jsonSeries `json:"series"`
	}{IntervalNs: int64(t.Interval()), Window: t.opt.Window}
	for _, d := range dumps {
		resp.Series = append(resp.Series, jsonSeries{Name: d.Name, Seq: d.Seq, Samples: d.Samples()})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(resp)
}

// RuleKind selects how a watchdog rule interprets a series window.
type RuleKind uint8

const (
	// RuleThreshold fires when the latest sample ≥ Limit.
	RuleThreshold RuleKind = iota
	// RuleRateSpike (counters) fires when the increase over the last
	// RecentN ticks ≥ max(Floor, Factor × baseline-per-tick-rate × RecentN),
	// where the baseline rate comes from the BaselineN ticks before the
	// recent span. With Factor 0 it is an onset detector: any increase of
	// at least Floor fires.
	RuleRateSpike
	// RuleRegression (gauges, percentiles) fires when the mean of the last
	// RecentN samples ≥ max(Floor, Factor × mean of the BaselineN samples
	// before them). A series too young to have a baseline compares against
	// Floor alone — so a stage that suddenly springs into existence hot
	// (commit-wait after an ε widening) is caught on its first samples.
	RuleRegression
	// RuleGrowth fires when the last RecentN samples never decrease and
	// grow by ≥ Limit in total (watermark-lag style leak detection).
	RuleGrowth
)

func (k RuleKind) String() string {
	switch k {
	case RuleThreshold:
		return "threshold"
	case RuleRateSpike:
		return "rate-spike"
	case RuleRegression:
		return "regression"
	case RuleGrowth:
		return "growth"
	}
	return "unknown"
}

// Rule is one watchdog predicate, applied to every series whose name
// contains Series (and ends in Suffix, when set).
type Rule struct {
	Name   string // alert label, the {rule=...} value
	Series string // substring the series name must contain
	Suffix string // optional: series name must also end with this
	Kind   RuleKind

	Limit     float64 // RuleThreshold / RuleGrowth
	Factor    float64 // RuleRateSpike / RuleRegression multiplier
	Floor     float64 // minimum absolute value before either can fire
	BaselineN int     // baseline span in ticks (default 60)
	RecentN   int     // recent span in ticks (default 10)
	Cooldown  int     // min ticks between alerts per (rule, series); default 60
}

// Alert is one structured watchdog event.
type Alert struct {
	Rule      string  `json:"rule"`
	Series    string  `json:"series"`
	Seq       int64   `json:"seq"` // tsdb tick that fired it
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	Message   string  `json:"message"`

	sinks []func(Alert)
}

func (a Alert) deliver() {
	for _, fn := range a.sinks {
		fn(a)
	}
}

// Watchdog evaluates rules against a TSDB after every sample. Wire it with
// tsdb.Attach(w); receive alerts with OnAlert. Each fired (rule, series)
// honours its cooldown so a sustained regression produces a periodic
// heartbeat, not a storm.
type Watchdog struct {
	reg   *Registry
	rules []Rule

	mu        sync.Mutex
	sinks     []func(Alert)
	lastFired map[string]int64 // "rule\x00series" → seq
	counts    map[string]*Counter
}

// NewWatchdog creates a watchdog counting fires into reg's
// obs_alerts_total{rule=...}. Rules with zero spans get the defaults
// (BaselineN 60, RecentN 10, Cooldown 60).
func NewWatchdog(reg *Registry, rules ...Rule) *Watchdog {
	w := &Watchdog{
		reg:       reg,
		lastFired: make(map[string]int64),
		counts:    make(map[string]*Counter),
	}
	for _, r := range rules {
		if r.BaselineN <= 0 {
			r.BaselineN = 60
		}
		if r.RecentN <= 0 {
			r.RecentN = 10
		}
		if r.Cooldown <= 0 {
			r.Cooldown = 60
		}
		w.rules = append(w.rules, r)
		w.counts[r.Name] = reg.Counter(withLabel("obs_alerts_total", "rule", r.Name))
	}
	return w
}

// OnAlert registers a sink called (outside any lock) for every alert.
func (w *Watchdog) OnAlert(fn func(Alert)) {
	if w == nil || fn == nil {
		return
	}
	w.mu.Lock()
	w.sinks = append(w.sinks, fn)
	w.mu.Unlock()
}

// Rules returns the configured rules (reporting/CLI).
func (w *Watchdog) Rules() []Rule {
	if w == nil {
		return nil
	}
	return append([]Rule(nil), w.rules...)
}

// evaluate runs every rule over every matching series. Called by
// TSDB.Sample with the tsdb mutex held; returns the alerts to deliver so
// sinks run unlocked.
func (w *Watchdog) evaluate(seq int64, series map[string]*tsSeries) []Alert {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []Alert
	var buf []int64
	for _, r := range w.rules {
		for name, s := range series {
			if s.n == 0 || !strings.Contains(name, r.Series) {
				continue
			}
			if r.Suffix != "" && !strings.HasSuffix(name, r.Suffix) {
				continue
			}
			key := r.Name + "\x00" + name
			if last, ok := w.lastFired[key]; ok && seq-last < int64(r.Cooldown) {
				continue
			}
			buf = s.last(buf[:0], r.BaselineN+r.RecentN)
			value, threshold, fired := r.eval(buf)
			if !fired {
				continue
			}
			w.lastFired[key] = seq
			w.counts[r.Name].Inc()
			out = append(out, Alert{
				Rule: r.Name, Series: name, Seq: seq,
				Value: value, Threshold: threshold,
				Message: fmt.Sprintf("%s: %s %s value %.4g ≥ threshold %.4g",
					r.Name, name, r.Kind, value, threshold),
				sinks: w.sinks,
			})
		}
	}
	return out
}

// eval applies the rule to a chronological window (up to
// BaselineN+RecentN samples, possibly fewer on young series).
func (r Rule) eval(vals []int64) (value, threshold float64, fired bool) {
	if len(vals) == 0 {
		return 0, 0, false
	}
	switch r.Kind {
	case RuleThreshold:
		value = float64(vals[len(vals)-1])
		return value, r.Limit, value >= r.Limit

	case RuleRateSpike:
		// Split into baseline|recent; the recent span shrinks on young
		// series so onset rules can fire from the very first increase.
		recentN := r.RecentN
		if recentN >= len(vals) {
			recentN = len(vals) - 1
		}
		if recentN < 1 {
			return 0, 0, false
		}
		cut := len(vals) - 1 - recentN
		if r.Factor > 0 && cut == 0 {
			// A relative spike rule is meaningless without a baseline span:
			// steady traffic would convict itself on the first full window.
			// (Factor 0 onset rules do fire baseline-free, by design.)
			return 0, 0, false
		}
		value = float64(vals[len(vals)-1] - vals[cut])
		threshold = r.Floor
		if cut > 0 {
			baseRate := float64(vals[cut]-vals[0]) / float64(cut)
			if t := r.Factor * baseRate * float64(recentN); t > threshold {
				threshold = t
			}
		}
		return value, threshold, value > 0 && value >= threshold

	case RuleRegression:
		recentN := r.RecentN
		if recentN > len(vals) {
			recentN = len(vals)
		}
		value = mean(vals[len(vals)-recentN:])
		threshold = r.Floor
		if base := vals[:len(vals)-recentN]; len(base) > 0 {
			if t := r.Factor * mean(base); t > threshold {
				threshold = t
			}
		}
		return value, threshold, value >= threshold && value > 0

	case RuleGrowth:
		if len(vals) < r.RecentN {
			return 0, 0, false
		}
		win := vals[len(vals)-r.RecentN:]
		for i := 1; i < len(win); i++ {
			if win[i] < win[i-1] {
				return 0, 0, false
			}
		}
		value = float64(win[len(win)-1] - win[0])
		return value, r.Limit, value >= r.Limit
	}
	return 0, 0, false
}

func mean(vals []int64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum int64
	for _, v := range vals {
		sum += v
	}
	return float64(sum) / float64(len(vals))
}

// DefaultWatchdogRules is the standing rule set semeld installs: the
// regressions the paper's pipeline can actually suffer, each keyed to the
// series the rest of the repo already emits.
func DefaultWatchdogRules() []Rule {
	return []Rule{
		{
			// Any stage's p99 tripling against its own baseline (with a
			// 100µs floor so idle-cluster noise stays silent). Catches
			// commit-wait after an ε widening, flash stages after device
			// throttling, repl-batch after a flush-tuning regression.
			Name: "stage-p99-regression", Series: "stage_ledger_ns{stage=", Suffix: "/p99",
			Kind: RuleRegression, Factor: 3, Floor: 100e3,
			BaselineN: 120, RecentN: 10, Cooldown: 60,
		},
		{
			// Abort-rate spike: 4× the baseline abort rate, at least 20
			// aborts in the recent span.
			Name: "abort-rate-spike", Series: "milana_aborts_total",
			Kind: RuleRateSpike, Factor: 4, Floor: 20,
			BaselineN: 60, RecentN: 10, Cooldown: 60,
		},
		{
			// Watermark lag growing monotonically by ≥1s over 30 ticks:
			// GC has stopped keeping up (stuck prepared txn, dead peer).
			Name: "watermark-lag-growth", Series: "semel_watermark_lag_ns",
			Kind: RuleGrowth, Limit: 1e9,
			RecentN: 30, Cooldown: 120,
		},
		{
			// ε-violation onset: the auditor's commit-wait invariant
			// tripping at all is news — fire on the first violation.
			Name: "epsilon-violation", Series: "audit_epsilon_violations_total",
			Kind: RuleRateSpike, Factor: 0, Floor: 1,
			BaselineN: 60, RecentN: 5, Cooldown: 30,
		},
		{
			// Shed-rate spike: admission control rejecting 4× its baseline
			// rate (at least 20 sheds in the recent span) — the server is
			// past its knee and clients should be seeing RetryAfter
			// pushback. Series is a substring match, so the per-priority
			// labels (pri="read"/"prepare") are all covered.
			Name: "shed-rate-spike", Series: "admission_shed_total",
			Kind: RuleRateSpike, Factor: 4, Floor: 20,
			BaselineN: 60, RecentN: 10, Cooldown: 60,
		},
	}
}
