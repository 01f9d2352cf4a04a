package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// WritePrometheus renders a snapshot in the Prometheus text exposition
// format. Counters become "<name> <value>"; gauges likewise; histograms
// expose _count, _sum and quantile series (summary style), which keeps the
// payload proportional to the metric count rather than the bucket count.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	names := s.SortedNames()
	for _, name := range names {
		if v, ok := s.Counters[name]; ok {
			base, _ := splitName(name)
			fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", base, name, v)
		}
		if v, ok := s.Gauges[name]; ok {
			base, _ := splitName(name)
			fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", base, name, v)
		}
		h, ok := s.Hists[name]
		if !ok {
			continue
		}
		base, labels := splitName(name)
		fmt.Fprintf(w, "# TYPE %s summary\n", base)
		for _, q := range []struct {
			label string
			q     float64
		}{{"0.5", 0.5}, {"0.95", 0.95}, {"0.99", 0.99}, {"0.999", 0.999}} {
			fmt.Fprintf(w, "%s %d\n", withLabel(name, "quantile", q.label), h.Quantile(q.q))
		}
		fmt.Fprintf(w, "%s_sum%s %d\n%s_count%s %d\n", base, labels, h.Sum, base, labels, h.Count)
	}
	return nil
}

// Handler serves a registry over HTTP:
//
//	/metrics       Prometheus text format
//	/metrics.json  the raw Snapshot as JSON (expvar-style debugging)
//
// Extra paths 404.
func Handler(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = reg.Snapshot().WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(reg.Snapshot())
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintln(w, "obs endpoints: /metrics /metrics.json")
	})
	return mux
}
