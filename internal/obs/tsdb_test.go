package obs

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestTSDBSampleAndQuery(t *testing.T) {
	reg := NewRegistry()
	tsdb := NewTSDB(reg, TSDBOptions{Window: 16})
	defer tsdb.Close()

	cnt := reg.Counter("requests_total")
	g := reg.Gauge("queue_depth")
	h := reg.Histogram("latency_ns")

	for i := 1; i <= 3; i++ {
		cnt.Add(10)
		g.Set(int64(5 - i)) // shrinking gauge: negative deltas must survive
		h.Observe(int64(i) * 1000)
		tsdb.Sample()
	}

	// Histograms expand into /p50, /p99 and /count companions.
	dumps := tsdb.Query([]string{"latency_ns"}, 0)
	names := map[string]SeriesDump{}
	for _, d := range dumps {
		names[d.Name] = d
	}
	for _, want := range []string{"latency_ns/p50", "latency_ns/p99", "latency_ns/count"} {
		if _, ok := names[want]; !ok {
			t.Fatalf("missing series %q in %v", want, dumps)
		}
	}
	if got := names["latency_ns/count"].Samples(); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("latency count samples = %v", got)
	}

	// Counters sample raw cumulative values; gauges can go down.
	cd := tsdb.Query([]string{"requests_total"}, 0)
	if len(cd) != 1 {
		t.Fatalf("counter dumps = %v", cd)
	}
	if got := cd[0].Samples(); len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Fatalf("counter samples = %v", got)
	}
	gd := tsdb.Query([]string{"queue_depth"}, 0)
	if got := gd[0].Samples(); got[0] != 4 || got[1] != 3 || got[2] != 2 {
		t.Fatalf("gauge samples = %v (deltas %v)", got, gd[0].Deltas)
	}
	if gd[0].Seq != 3 {
		t.Fatalf("seq = %d, want 3", gd[0].Seq)
	}

	// lastN trims from the old end; patterns are OR'd substrings; no
	// pattern matches everything.
	if got := tsdb.Query([]string{"requests_total"}, 2)[0].Samples(); len(got) != 2 || got[0] != 20 {
		t.Fatalf("lastN samples = %v", got)
	}
	if got := tsdb.Query([]string{"no-such-series"}, 0); len(got) != 0 {
		t.Fatalf("bogus pattern matched %v", got)
	}
	all := tsdb.Query(nil, 0)
	if len(all) < 5 {
		t.Fatalf("unfiltered query returned %d series", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Name >= all[i].Name {
			t.Fatalf("query output not sorted: %q before %q", all[i-1].Name, all[i].Name)
		}
	}

	// Nil-safety.
	var nilT *TSDB
	nilT.Sample()
	nilT.Close()
	if nilT.Query(nil, 0) != nil || nilT.Interval() != 0 {
		t.Fatal("nil TSDB answered a query")
	}
}

func TestTSDBRingWrap(t *testing.T) {
	reg := NewRegistry()
	tsdb := NewTSDB(reg, TSDBOptions{Window: 4})
	defer tsdb.Close()
	g := reg.Gauge("v")
	for i := 1; i <= 10; i++ {
		g.Set(int64(i))
		tsdb.Sample()
	}
	got := tsdb.Query([]string{"v"}, 0)[0].Samples()
	if len(got) != 4 {
		t.Fatalf("wrapped ring kept %d samples, want 4", len(got))
	}
	for i, want := range []int64{7, 8, 9, 10} {
		if got[i] != want {
			t.Fatalf("wrapped samples = %v, want [7 8 9 10]", got)
		}
	}
	// lastN larger than retained clamps to what's there.
	if got := tsdb.Query([]string{"v"}, 99)[0].Samples(); len(got) != 4 {
		t.Fatalf("oversized lastN returned %d samples", len(got))
	}
}

func TestSeriesDumpSamples(t *testing.T) {
	d := SeriesDump{Name: "x", First: 100, Deltas: []int64{5, -20, 0}}
	got := d.Samples()
	want := []int64{100, 105, 85, 85}
	if len(got) != len(want) {
		t.Fatalf("samples = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("samples = %v, want %v", got, want)
		}
	}
	if one := (SeriesDump{First: 7}).Samples(); len(one) != 1 || one[0] != 7 {
		t.Fatalf("single-sample dump = %v", one)
	}
}

func TestTSDBServeHTTP(t *testing.T) {
	reg := NewRegistry()
	tsdb := NewTSDB(reg, TSDBOptions{Window: 8})
	defer tsdb.Close()
	c := reg.Counter("hits_total")
	reg.Gauge("noise").Set(1)
	for i := 0; i < 5; i++ {
		c.Inc()
		tsdb.Sample()
	}

	rec := httptest.NewRecorder()
	tsdb.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/tsdb?match=hits&n=3", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type = %q", ct)
	}
	var resp struct {
		IntervalNs int64 `json:"interval_ns"`
		Window     int   `json:"window"`
		Series     []struct {
			Name    string  `json:"name"`
			Seq     int64   `json:"seq"`
			Samples []int64 `json:"samples"`
		} `json:"series"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if resp.IntervalNs != int64(time.Second) || resp.Window != 8 {
		t.Fatalf("header = %+v", resp)
	}
	if len(resp.Series) != 1 || resp.Series[0].Name != "hits_total" {
		t.Fatalf("series = %+v, want only hits_total", resp.Series)
	}
	s := resp.Series[0]
	if len(s.Samples) != 3 || s.Samples[0] != 3 || s.Samples[2] != 5 || s.Seq != 5 {
		t.Fatalf("samples = %+v", s)
	}
}

// collectAlerts wires a watchdog into a slice behind a mutex.
func collectAlerts(dog *Watchdog) func() []Alert {
	var mu sync.Mutex
	var got []Alert
	dog.OnAlert(func(a Alert) {
		mu.Lock()
		got = append(got, a)
		mu.Unlock()
	})
	return func() []Alert {
		mu.Lock()
		defer mu.Unlock()
		return append([]Alert(nil), got...)
	}
}

func TestWatchdogThresholdAndCooldown(t *testing.T) {
	reg := NewRegistry()
	tsdb := NewTSDB(reg, TSDBOptions{Window: 32})
	defer tsdb.Close()
	dog := NewWatchdog(reg, Rule{
		Name: "depth", Series: "queue_depth", Kind: RuleThreshold,
		Limit: 100, Cooldown: 3,
	})
	tsdb.Attach(dog)
	alerts := collectAlerts(dog)

	g := reg.Gauge("queue_depth")
	g.Set(5)
	tsdb.Sample()
	if len(alerts()) != 0 {
		t.Fatalf("healthy sample alerted: %+v", alerts())
	}
	g.Set(150)
	tsdb.Sample() // seq 2: fires
	tsdb.Sample() // seq 3: cooldown
	tsdb.Sample() // seq 4: cooldown
	tsdb.Sample() // seq 5: cooldown expired, fires again
	got := alerts()
	if len(got) != 2 {
		t.Fatalf("alerts = %+v, want 2 (threshold + one post-cooldown heartbeat)", got)
	}
	a := got[0]
	if a.Rule != "depth" || a.Series != "queue_depth" || a.Seq != 2 || a.Value != 150 || a.Threshold != 100 {
		t.Fatalf("alert = %+v", a)
	}
	if a.Message == "" {
		t.Fatal("alert has no message")
	}
	if got[1].Seq != 5 {
		t.Fatalf("heartbeat at seq %d, want 5", got[1].Seq)
	}
	if n := reg.Snapshot().Counters[`obs_alerts_total{rule="depth"}`]; n != 2 {
		t.Fatalf("obs_alerts_total = %d", n)
	}
}

func TestWatchdogRateSpike(t *testing.T) {
	reg := NewRegistry()
	tsdb := NewTSDB(reg, TSDBOptions{Window: 64})
	defer tsdb.Close()
	dog := NewWatchdog(reg, Rule{
		Name: "aborts", Series: "aborts_total", Kind: RuleRateSpike,
		Factor: 4, Floor: 5, BaselineN: 10, RecentN: 5, Cooldown: 100,
	})
	tsdb.Attach(dog)
	alerts := collectAlerts(dog)

	c := reg.Counter("aborts_total")
	// Steady load: +1 per tick. Recent increase 5 < 4×baseline (20): silent.
	for i := 0; i < 15; i++ {
		c.Inc()
		tsdb.Sample()
	}
	if len(alerts()) != 0 {
		t.Fatalf("steady rate alerted: %+v", alerts())
	}
	// Spike: +10 per tick.
	for i := 0; i < 5; i++ {
		c.Add(10)
		tsdb.Sample()
	}
	got := alerts()
	if len(got) != 1 || got[0].Rule != "aborts" {
		t.Fatalf("spike alerts = %+v, want exactly 1", got)
	}
}

func TestWatchdogRateSpikeOnset(t *testing.T) {
	reg := NewRegistry()
	tsdb := NewTSDB(reg, TSDBOptions{Window: 64})
	defer tsdb.Close()
	// Factor 0 + Floor 1 is the ε-violation shape: any first increase fires.
	dog := NewWatchdog(reg, Rule{
		Name: "violation", Series: "violations_total", Kind: RuleRateSpike,
		Factor: 0, Floor: 1, BaselineN: 10, RecentN: 5, Cooldown: 100,
	})
	tsdb.Attach(dog)
	alerts := collectAlerts(dog)

	c := reg.Counter("violations_total") // registering creates the series
	tsdb.Sample()                        // flat zero
	tsdb.Sample()
	if len(alerts()) != 0 {
		t.Fatalf("zero counter alerted: %+v", alerts())
	}
	c.Inc()
	tsdb.Sample()
	got := alerts()
	if len(got) != 1 || got[0].Value != 1 {
		t.Fatalf("onset alerts = %+v", got)
	}
}

func TestWatchdogRegression(t *testing.T) {
	reg := NewRegistry()
	tsdb := NewTSDB(reg, TSDBOptions{Window: 64})
	defer tsdb.Close()
	dog := NewWatchdog(reg, Rule{
		Name: "p99-regression", Series: "stage_p99", Kind: RuleRegression,
		Factor: 3, Floor: 100, BaselineN: 10, RecentN: 4, Cooldown: 100,
	})
	tsdb.Attach(dog)
	alerts := collectAlerts(dog)

	g := reg.Gauge("stage_p99")
	// Stable baseline at 60 (below the floor, and recent mean == baseline
	// mean < 3×baseline): silent.
	for i := 0; i < 12; i++ {
		g.Set(60)
		tsdb.Sample()
	}
	if len(alerts()) != 0 {
		t.Fatalf("flat series alerted: %+v", alerts())
	}
	// Regress to 400: recent mean crosses 3×60=180.
	for i := 0; i < 4; i++ {
		g.Set(400)
		tsdb.Sample()
	}
	got := alerts()
	if len(got) != 1 {
		t.Fatalf("regression alerts = %+v, want 1", got)
	}
	if got[0].Value < 180 || got[0].Threshold < 180 {
		t.Fatalf("alert = %+v", got[0])
	}
}

func TestWatchdogRegressionYoungSeries(t *testing.T) {
	reg := NewRegistry()
	tsdb := NewTSDB(reg, TSDBOptions{Window: 64})
	defer tsdb.Close()
	dog := NewWatchdog(reg, Rule{
		Name: "p99-regression", Series: "stage_p99", Kind: RuleRegression,
		Factor: 3, Floor: 100, BaselineN: 10, RecentN: 4, Cooldown: 100,
	})
	tsdb.Attach(dog)
	alerts := collectAlerts(dog)

	// A series born hot — no baseline yet — is judged against the floor
	// alone, so it convicts on its very first samples.
	reg.Gauge("stage_p99").Set(5000)
	tsdb.Sample()
	got := alerts()
	if len(got) != 1 || got[0].Threshold != 100 {
		t.Fatalf("young hot series alerts = %+v, want floor conviction", got)
	}
}

func TestWatchdogGrowth(t *testing.T) {
	reg := NewRegistry()
	tsdb := NewTSDB(reg, TSDBOptions{Window: 64})
	defer tsdb.Close()
	dog := NewWatchdog(reg, Rule{
		Name: "lag-growth", Series: "watermark_lag", Kind: RuleGrowth,
		Limit: 50, RecentN: 5, Cooldown: 100,
	})
	tsdb.Attach(dog)
	alerts := collectAlerts(dog)

	g := reg.Gauge("watermark_lag")
	// Sawtooth: grows but dips — GC is keeping up, silent.
	for i, v := range []int64{0, 20, 40, 10, 30, 50, 20} {
		g.Set(v)
		tsdb.Sample()
		if len(alerts()) != 0 {
			t.Fatalf("sawtooth alerted at sample %d", i)
		}
	}
	// Monotone growth of ≥50 over the window: fires.
	for _, v := range []int64{30, 45, 60, 75, 90} {
		g.Set(v)
		tsdb.Sample()
	}
	got := alerts()
	if len(got) != 1 || got[0].Value < 50 {
		t.Fatalf("growth alerts = %+v", got)
	}
}

func TestDefaultWatchdogRules(t *testing.T) {
	rules := DefaultWatchdogRules()
	want := map[string]bool{
		"stage-p99-regression": false, "abort-rate-spike": false,
		"watermark-lag-growth": false, "epsilon-violation": false,
		"shed-rate-spike": false,
	}
	for _, r := range rules {
		if _, ok := want[r.Name]; !ok {
			t.Fatalf("unexpected rule %q", r.Name)
		}
		want[r.Name] = true
		if r.Series == "" {
			t.Fatalf("rule %q matches every series", r.Name)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Fatalf("missing default rule %q", name)
		}
	}
	// The watchdog registers an alert counter per rule up front.
	reg := NewRegistry()
	dog := NewWatchdog(reg, rules...)
	if got := len(dog.Rules()); got != len(rules) {
		t.Fatalf("Rules() = %d entries", got)
	}
	snap := reg.Snapshot()
	if _, ok := snap.Counters[`obs_alerts_total{rule="stage-p99-regression"}`]; !ok {
		t.Fatal("alert counter not pre-registered")
	}
	// Nil-safety.
	var nilDog *Watchdog
	nilDog.OnAlert(func(Alert) {})
	if nilDog.Rules() != nil || nilDog.evaluate(1, nil) != nil {
		t.Fatal("nil watchdog evaluated")
	}
}

// TestTSDBConcurrent races Sample, Query, ServeHTTP and metric writers; run
// with -race this checks the ring and registry locking.
func TestTSDBConcurrent(t *testing.T) {
	reg := NewRegistry()
	tsdb := NewTSDB(reg, TSDBOptions{Window: 8, Runtime: true})
	dog := NewWatchdog(reg, Rule{
		Name: "noise", Series: "spin", Kind: RuleThreshold, Limit: 1 << 40,
	})
	tsdb.Attach(dog)

	// Register before the writers spawn so every Sample sees the series.
	c := reg.Counter("spin_total")
	h := reg.Histogram("spin_ns")

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				h.Observe(int64(i))
			}
		}()
	}
	for i := 0; i < 50; i++ {
		tsdb.Sample()
		tsdb.Query([]string{"spin"}, 4)
		rec := httptest.NewRecorder()
		tsdb.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/tsdb?n=2", nil))
	}
	close(stop)
	wg.Wait()
	tsdb.Close()
	tsdb.Close() // double Close is safe

	if got := tsdb.Query([]string{"spin_total"}, 0); len(got) == 0 {
		t.Fatal("no samples recorded")
	}
	// Runtime sampling rode along with the ticks.
	if got := tsdb.Query([]string{"go_goroutines"}, 0); len(got) == 0 {
		t.Fatal("runtime gauges not sampled")
	}
}

// TestTSDBStartStop exercises the background ticker path.
func TestTSDBStartStop(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("g").Set(1)
	tsdb := NewTSDB(reg, TSDBOptions{Interval: time.Millisecond, Window: 128})
	tsdb.Start()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if got := tsdb.Query([]string{"g"}, 0); len(got) > 0 && len(got[0].Samples()) >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background sampler took no samples")
		}
		time.Sleep(2 * time.Millisecond)
	}
	tsdb.Close()

	// Close without Start doesn't hang.
	idle := NewTSDB(reg, TSDBOptions{})
	idle.Close()
}
