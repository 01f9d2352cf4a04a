package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

// handlerFixture builds a registry with one of each metric kind.
func handlerFixture() *Registry {
	reg := NewRegistry()
	reg.Counter("ops_total").Add(7)
	reg.Gauge("depth").Set(3)
	h := reg.Histogram(withLabel("rpc_ns", "kind", "get"))
	for i := 1; i <= 100; i++ {
		h.Observe(int64(i) * 1000)
	}
	return reg
}

func TestHandlerMetrics(t *testing.T) {
	srv := Handler(handlerFixture())

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE ops_total counter",
		"ops_total 7",
		"# TYPE depth gauge",
		"depth 3",
		"# TYPE rpc_ns summary",
		`rpc_ns{kind="get",quantile="0.5"}`,
		`rpc_ns_count{kind="get"} 100`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}
}

func TestHandlerMetricsJSON(t *testing.T) {
	srv := Handler(handlerFixture())

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics.json", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type = %q", ct)
	}
	var snap struct {
		Counters map[string]int64 `json:"Counters"`
		Gauges   map[string]int64 `json:"Gauges"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if snap.Counters["ops_total"] != 7 || snap.Gauges["depth"] != 3 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestHandlerIndexAnd404(t *testing.T) {
	srv := Handler(handlerFixture())

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "/metrics") {
		t.Fatalf("index = %d %q", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/no-such-page", nil))
	if rec.Code != 404 {
		t.Fatalf("unknown path = %d, want 404", rec.Code)
	}
}
