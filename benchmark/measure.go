package main

import (
	"fmt"
)

// value is one reported number. Spread is the interquartile range of the
// metric's per-second-window values as a share of their median (for
// setup_s, of the repeated set-ups); -compare calls a difference unresolved
// when it is inside that noise. N and Pct say what a percentile rests on.
type value struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Spread float64 `json:"spread,omitempty"`
	N      int     `json:"n,omitempty"`
	Pct    float64 `json:"pct,omitempty"`
}

// passResult is what one pass over one workload reports.
type passResult struct {
	Workload   string           `json:"workload"`
	Traced     bool             `json:"traced"`
	Seconds    int              `json:"seconds"`
	Correct    bool             `json:"correct"`
	Violations []string         `json:"violations,omitempty"`
	Attempted  int              `json:"attempted"`
	Failed     int              `json:"failed"`
	Errors     map[string]int   `json:"errors,omitempty"`
	Windows    []float64        `json:"windows_txn_per_s,omitempty"`
	Metrics    map[string]value `json:"metrics"`
}

// latency names one end-to-end latency metric and the sample it is taken
// from.
type latency struct {
	name     string
	readOnly bool
	want     float64 // percentile wanted; the tail rule may lower it
}

var latencies = []latency{
	{"rw_p50_ms", false, 0.50},
	{"rw_p99_ms", false, 0.99},
	{"ro_p50_ms", true, 0.50},
	{"ro_p99_ms", true, 0.99},
}

// classOf indexes the two latency classes: read-write 0, read-only 1.
func classOf(readOnly bool) int {
	if readOnly {
		return 1
	}
	return 0
}

// endToEndMetrics turns a driven window into txn_per_s and the four latency
// metrics, and fills in the attempt and failure counts.
func endToEndMetrics(res *loadResult, out *passResult) {
	out.Errors = map[string]int{}
	counts := make([]float64, res.seconds)
	// lat[class][window] holds committed latencies by the second they ended in.
	var lat [2][][]int64
	for c := range lat {
		lat[c] = make([][]int64, res.seconds)
	}
	for _, st := range res.sessions {
		for class, n := range st.errs {
			out.Errors[class] += n
		}
		for _, s := range st.samples {
			out.Attempted++
			if s.failed {
				out.Failed++
				continue
			}
			w := int(s.end / 1e9)
			if w >= res.seconds {
				continue // finished after the window closed
			}
			counts[w]++
			lat[classOf(s.readOnly)][w] = append(lat[classOf(s.readOnly)][w], s.end-s.start)
		}
	}
	out.Windows = counts
	out.Metrics["txn_per_s"] = value{Value: median(counts), Unit: "1/s", Spread: spread(counts), N: len(counts)}

	for _, l := range latencies {
		class := classOf(l.readOnly)
		var all []int64
		for _, w := range lat[class] {
			all = append(all, w...)
		}
		sortInt64(all)
		q, err := supportedPercentile(len(all), l.want)
		if err != nil {
			out.Violations = append(out.Violations, fmt.Sprintf("%s: %v", l.name, err))
			continue
		}
		v, _ := percentile(all, q) // q is supported by construction
		perWindow := make([]float64, 0, res.seconds)
		for _, w := range lat[class] {
			if len(w) == 0 {
				continue
			}
			sortInt64(w)
			perWindow = append(perWindow, float64(quantileOf(w, q)))
		}
		out.Metrics[l.name] = value{Value: float64(v) / 1e6, Unit: "ms", Spread: spread(perWindow), N: len(all), Pct: q * 100}
	}
}
