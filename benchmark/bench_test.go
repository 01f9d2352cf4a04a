package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// The contract file at the repository root and the tables in workload.go
// must name the same workloads and metrics, with the same units, directions
// and bounds.
func TestContractMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var contract struct {
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &contract); err != nil {
		t.Fatal(err)
	}
	if len(contract.Workloads) != len(workloads) {
		t.Fatalf("contract has %d workloads, workload.go has %d", len(contract.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c := contract.Workloads[i]; c.Name != w.Name || c.Why != w.Why {
			t.Errorf("workload %d: contract %+v, table {%s %s}", i, c, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: contract has %d metrics, table has %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i] != m {
				t.Errorf("%s %d: contract %+v, table %+v", kind, i, got[i], m)
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
				t.Errorf("%s: bad name or unit in %+v", kind, m)
			}
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("%s: bad direction in %+v", kind, m)
			}
			if seen[m.Name] {
				t.Errorf("%s: %s is used twice", kind, m.Name)
			}
			seen[m.Name] = true
		}
	}
	check("end_to_end", contract.EndToEnd, endToEnd)
	check("per_layer", contract.PerLayer, perLayer)
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(perLayer) != 53 {
		t.Errorf("per-layer ledger has %d metrics, want 53", len(perLayer))
	}
}

// The self times of a tree sum to its root's duration, also where children
// run in parallel, outlive their parent, or leave gaps.
func TestSelfTimesSumToRoot(t *testing.T) {
	tree := []node{
		{start: 0, end: 1000, parent: -1},  // 0 root
		{start: 100, end: 400, parent: 0},  // 1 a call
		{start: 150, end: 350, parent: 1},  // 2 its serve
		{start: 500, end: 900, parent: 0},  // 3 a serve with a parallel fan-out
		{start: 550, end: 800, parent: 3},  // 4 replication to backup 1
		{start: 560, end: 1200, parent: 3}, // 5 replication to backup 2, outlives everything
		{start: 600, end: 700, parent: 4},  // 6 backup 1's serve
	}
	selfTimes(tree)
	var sum float64
	for _, n := range tree {
		sum += n.self
	}
	if math.Abs(sum-1000) > 1e-6 {
		t.Fatalf("self times sum to %v, want the root's 1000", sum)
	}
	want := map[int]float64{
		0: 100 + 100 + 100, // before the call, between the two children, after the serve
		1: 50 + 50,
		2: 200,
		3: 50, // until the first replication starts; none after: span 5 stays open past its end
		// 4 and 5 share [560,800); 4 is alone on [550,560), 5 alone on [800,900) clipped to the parent
		4: 10 + 40/2 + 100/2,
		5: 40/2 + 100/2 + 100/2 + 100,
		6: 100 / 2,
	}
	for i, w := range want {
		if math.Abs(tree[i].self-w) > 1e-6 {
			t.Errorf("node %d: self %v, want %v", i, tree[i].self, w)
		}
	}
}

func TestPercentileTailRule(t *testing.T) {
	sorted := make([]int64, 999)
	for i := range sorted {
		sorted[i] = int64(i)
	}
	if _, err := percentile(sorted, 0.99); err == nil {
		t.Error("p99 of 999 samples has 9.99 samples beyond it and must be refused")
	}
	if v, err := percentile(append(sorted, 999), 0.99); err != nil || v != 990 {
		t.Errorf("p99 of 1000 samples = %v, %v; want 990", v, err)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{1000, 0.99}, {999, 0.95}, {200, 0.95}, {199, 0.90}, {100, 0.90}, {40, 0.75}, {20, 0.50}} {
		if q, err := supportedPercentile(c.n, 0.99); err != nil || q != c.want {
			t.Errorf("supportedPercentile(%d) = %v, %v; want %v", c.n, q, err, c.want)
		}
	}
	if _, err := supportedPercentile(19, 0.99); err == nil {
		t.Error("19 samples support no percentile")
	}
	if q, _ := supportedPercentile(100000, 0.50); q != 0.50 {
		t.Errorf("a p50 metric must not be raised to p%v", q*100)
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which the
// driver uses.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles(1..3) = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}

// Every workload emits every named metric, passes its own correctness
// checks, and keeps the layers it does not use at zero. One-second windows
// keep this a smoke test; the numbers mean nothing.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("drives four clusters for a few seconds each")
	}
	dir := t.TempDir()
	r := &runner{seed: 7, seconds: 2, outDir: dir, warm: 300 * time.Millisecond, tracedWarm: 300 * time.Millisecond}
	ctx := context.Background()
	for _, w := range workloads {
		e2e, err := r.untraced(ctx, w)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		layers, err := r.traced(ctx, w)
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		for _, p := range []*passResult{e2e, layers} {
			for _, v := range p.Violations {
				t.Errorf("%s (traced=%v): %s", w.Name, p.Traced, v)
			}
			if p.Attempted < 1 {
				t.Errorf("%s (traced=%v): nothing attempted", w.Name, p.Traced)
			}
		}
		for _, m := range endToEnd {
			if v, ok := e2e.Metrics[m.Name]; !ok || v.Value <= 0 || v.Unit != m.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v (present %v)", w.Name, m.Name, v, ok)
			}
		}
		if len(e2e.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics emitted, want %d", w.Name, len(e2e.Metrics), len(endToEnd))
		}
		for _, m := range perLayer {
			v, ok := layers.Metrics[m.Name]
			if !ok || v.Unit != m.Unit {
				t.Errorf("%s: per-layer metric %s = %+v (present %v)", w.Name, m.Name, v, ok)
			}
			idle := (strings.HasPrefix(m.Name, "flash.") || strings.HasPrefix(m.Name, "mvftl.")) && !w.MFTL ||
				strings.HasPrefix(m.Name, "wal.") && !w.WAL
			if idle && v.Value != 0 {
				t.Errorf("%s: %s = %v on a workload that does not use that layer", w.Name, m.Name, v.Value)
			}
		}
		if len(layers.Metrics) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics emitted, want %d", w.Name, len(layers.Metrics), len(perLayer))
		}
		if _, err := os.Stat(dir + "/trace-" + w.Name + ".json"); err != nil {
			t.Errorf("%s: no trace file: %v", w.Name, err)
		}
	}
}
