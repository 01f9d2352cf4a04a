package obs

import (
	"bytes"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestBucketIndexRoundTrip(t *testing.T) {
	// Every representative value must map back to its own bucket, and
	// bucket bounds must tile the value space without gaps or overlaps.
	for idx := 0; idx < numBuckets; idx++ {
		lo, hi := bucketBounds(idx)
		if lo > hi {
			t.Fatalf("bucket %d: lo %d > hi %d", idx, lo, hi)
		}
		for _, v := range []int64{lo, hi, bucketMid(idx)} {
			if got := bucketIndex(v); got != idx {
				t.Fatalf("value %d: bucketIndex = %d, want %d (bounds %d..%d)", v, got, idx, lo, hi)
			}
		}
		if idx > 0 {
			_, prevHi := bucketBounds(idx - 1)
			if lo != prevHi+1 {
				t.Fatalf("gap between bucket %d (hi %d) and %d (lo %d)", idx-1, prevHi, idx, lo)
			}
		}
	}
}

func TestBucketIndexEdges(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {7, 7}, {8, 8}, {15, 15}, {16, 16}, {17, 16},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// The largest int64 must not index out of range.
	if got := bucketIndex(1<<63 - 1); got >= numBuckets {
		t.Fatalf("bucketIndex(max) = %d out of range %d", got, numBuckets)
	}
}

func TestHistogramRelativeError(t *testing.T) {
	// Every estimated quantile must be within the bucket's 12.5% relative
	// error bound of the true quantile.
	rng := rand.New(rand.NewSource(42))
	h := NewHistogram()
	var vals []int64
	for i := 0; i < 20000; i++ {
		// log-uniform values spanning 1 µs .. 1 s in nanoseconds
		v := int64(1000 * (1 << uint(rng.Intn(20))))
		v += rng.Int63n(v)
		vals = append(vals, v)
		h.Observe(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	s := h.Snapshot()
	if s.Count != uint64(len(vals)) {
		t.Fatalf("count = %d, want %d", s.Count, len(vals))
	}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		truth := vals[int(q*float64(len(vals)-1))]
		got := s.Quantile(q)
		rel := float64(got-truth) / float64(truth)
		if rel < 0 {
			rel = -rel
		}
		if rel > 0.13 {
			t.Errorf("q=%.3f: got %d, true %d, rel err %.3f > 0.13", q, got, truth, rel)
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	h1, h2, both := NewHistogram(), NewHistogram(), NewHistogram()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		v := rng.Int63n(1 << 30)
		if i%2 == 0 {
			h1.Observe(v)
		} else {
			h2.Observe(v)
		}
		both.Observe(v)
	}
	merged := h1.Snapshot()
	merged.Merge(h2.Snapshot())
	want := both.Snapshot()
	if merged.Count != want.Count || merged.Sum != want.Sum {
		t.Fatalf("merged count/sum = %d/%d, want %d/%d", merged.Count, merged.Sum, want.Count, want.Sum)
	}
	if len(merged.Buckets) != len(want.Buckets) {
		t.Fatalf("merged has %d buckets, want %d", len(merged.Buckets), len(want.Buckets))
	}
	for i := range merged.Buckets {
		if merged.Buckets[i] != want.Buckets[i] {
			t.Fatalf("bucket %d: %+v != %+v", i, merged.Buckets[i], want.Buckets[i])
		}
	}
	// Merging into a zero snapshot must equal the source.
	var zero HistogramSnapshot
	zero.Merge(want)
	if zero.Count != want.Count || zero.Quantile(0.5) != want.Quantile(0.5) {
		t.Fatal("merge into zero snapshot lost data")
	}
}

func TestHistogramExemplars(t *testing.T) {
	h := NewHistogram()
	h.ObserveExemplar(10, 0xaaa) // fast bucket
	h.ObserveExemplar(1_000_000, 0xbbb)
	h.ObserveExemplar(1_000_001, 0xccc) // same bucket as 0xbbb: latest wins
	h.ObserveExemplar(500, 0)           // no trace: bucket stays unstamped
	h.Observe(1 << 40)                  // slower still, but untraced

	top := h.Snapshot().TopExemplars(2)
	if len(top) != 2 {
		t.Fatalf("TopExemplars returned %d, want 2", len(top))
	}
	// Slowest stamped bucket first; the 1<<40 bucket has no exemplar and
	// must not appear.
	if top[0].TraceID != 0xccc || top[1].TraceID != 0xaaa {
		t.Fatalf("top exemplars = %+v, want 0xccc then 0xaaa", top)
	}
	if top[0].LoNs > 1_000_001 || top[0].HiNs < 1_000_001 {
		t.Fatalf("exemplar bounds %d..%d must cover the observation", top[0].LoNs, top[0].HiNs)
	}

	// Exemplars survive a merge; when both sides stamped a bucket, either
	// trace is acceptable but it must be one of them.
	o := NewHistogram()
	o.ObserveExemplar(1_000_000, 0xddd)
	merged := h.Snapshot()
	merged.Merge(o.Snapshot())
	got := merged.TopExemplars(1)
	if len(got) != 1 || (got[0].TraceID != 0xccc && got[0].TraceID != 0xddd) {
		t.Fatalf("merged exemplar = %+v", got)
	}
	if nilTop := (HistogramSnapshot{}).TopExemplars(3); nilTop != nil {
		t.Fatalf("empty snapshot exemplars = %+v", nilTop)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var s HistogramSnapshot
	if s.Quantile(0.5) != 0 || s.Mean() != 0 {
		t.Fatal("empty snapshot must report zeros")
	}
	var h *Histogram
	h.Observe(5) // nil-safe
	if h.Snapshot().Count != 0 {
		t.Fatal("nil histogram must snapshot empty")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	// Concurrent writers + snapshotters; correctness of the final count
	// and -race cleanliness are the assertions.
	h := NewHistogram()
	const writers, perWriter = 8, 10000
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() { // concurrent reader
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
				_ = h.Snapshot().Quantile(0.99)
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWriter; i++ {
				h.Observe(rng.Int63n(1 << 40))
			}
		}(int64(w))
	}
	wg.Wait()
	close(stop)
	<-readerDone
	s := h.Snapshot()
	if s.Count != writers*perWriter {
		t.Fatalf("count = %d, want %d", s.Count, writers*perWriter)
	}
	var n uint64
	for _, b := range s.Buckets {
		n += b.N
	}
	if n != s.Count {
		t.Fatalf("bucket sum %d != count %d", n, s.Count)
	}
}

func TestRegistrySnapshotAndMerge(t *testing.T) {
	r := NewRegistry()
	r.Counter(`ops_total{op="get"}`).Add(3)
	r.Gauge("inflight").Set(7)
	r.Histogram("lat_ns").Observe(1000)

	s1 := r.Snapshot()
	s2 := r.Snapshot()
	s1.Merge(s2)
	if s1.Counters[`ops_total{op="get"}`] != 6 {
		t.Fatalf("merged counter = %d, want 6", s1.Counters[`ops_total{op="get"}`])
	}
	if s1.Gauges["inflight"] != 7 {
		t.Fatalf("merged gauge = %d, want max 7", s1.Gauges["inflight"])
	}
	if s1.Hists["lat_ns"].Count != 2 {
		t.Fatalf("merged hist count = %d, want 2", s1.Hists["lat_ns"].Count)
	}

	// Same pointer on repeat lookup.
	if r.Counter(`ops_total{op="get"}`) != r.Counter(`ops_total{op="get"}`) {
		t.Fatal("registry must return a stable pointer per name")
	}

	// Nil registry is inert.
	var nilReg *Registry
	nilReg.Counter("x").Inc()
	nilReg.Gauge("y").Set(1)
	nilReg.Histogram("z").Observe(1)
	if snap := nilReg.Snapshot(); len(snap.Counters) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h").Observe(int64(i))
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counters["c"] != 16000 || s.Gauges["g"] != 16000 || s.Hists["h"].Count != 16000 {
		t.Fatalf("concurrent totals wrong: %+v", s.Counters)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter(`rpc_total{type="GetRequest"}`).Add(2)
	r.Gauge("inflight").Set(1)
	r.Histogram(`stage_ns{stage="prepare"}`).Observe(500)
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`rpc_total{type="GetRequest"} 2`,
		"inflight 1",
		`stage_ns{stage="prepare",quantile="0.5"}`,
		`stage_ns_count{stage="prepare"} 1`,
		"# TYPE rpc_total counter",
		"# TYPE stage_ns summary",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestWithLabel(t *testing.T) {
	if got := withLabel("x", "q", "0.5"); got != `x{q="0.5"}` {
		t.Errorf("withLabel plain = %q", got)
	}
	if got := withLabel(`x{a="b"}`, "q", "0.5"); got != `x{a="b",q="0.5"}` {
		t.Errorf("withLabel labeled = %q", got)
	}
}
