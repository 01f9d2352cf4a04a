package main

import (
	"fmt"
	"sort"
)

// tailSamples is how many samples must lie beyond a percentile before it is
// reported: a p99 of 300 samples is the third-largest value, not a
// percentile.
const tailSamples = 10

// percentileLadder is tried from the top by supportedPercentile.
var percentileLadder = []float64{0.99, 0.95, 0.90, 0.75, 0.50}

// beyond is how many of n samples lie past the q-quantile; the epsilon keeps
// 100 × (1 − 0.9) from reading as 9.999….
func beyond(n int, q float64) float64 { return float64(n)*(1-q) + 1e-9 }

// percentile returns the q-quantile of sorted (ascending) and refuses when
// fewer than tailSamples samples lie beyond it.
func percentile(sorted []int64, q float64) (int64, error) {
	n := len(sorted)
	if b := beyond(n, q); b < tailSamples {
		return 0, fmt.Errorf("p%g of %d samples has %.1f samples beyond it, want at least %d", q*100, n, b, tailSamples)
	}
	return sorted[int(float64(n)*q)], nil
}

// supportedPercentile returns the highest rung of the ladder, at most
// want, that n samples support.
func supportedPercentile(n int, want float64) (float64, error) {
	for _, q := range percentileLadder {
		if q <= want && beyond(n, q) >= tailSamples {
			return q, nil
		}
	}
	return 0, fmt.Errorf("%d samples support no percentile (p50 needs %d)", n, 2*tailSamples)
}

// quantileOf is a percentile without the tail rule, for the per-window
// values that only feed a spread estimate and for per-layer medians, where
// an empty sample is a legitimate zero (no flash on a DRAM workload).
func quantileOf(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted)) * q)
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortInt64(v []int64) { sort.Slice(v, func(i, j int) bool { return v[i] < v[j] }) }

// quartiles returns the first quartile, median and third quartile of v by
// the method of Python's statistics.quantiles(v, n=4), which the driver
// uses for its spread rule.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 { // k-th of 4 cut points, exclusive method
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile range of v as a share of its median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

func total(v []float64) (sum float64) {
	for _, x := range v {
		sum += x
	}
	return sum
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// ---- span self time ----

// node is one span in a transaction's tree.
type node struct {
	start, end int64
	parent     int // index into the slice; -1 for a tree's root
	self       float64
}

// selfTimes fills in every node's self time: the part of its interval that
// no child covers. Children are clipped to their parent, so work that
// outlives its caller (a straggling replication send) is not charged to it.
// Where k children run in parallel, each instant they share is split k ways
// instead of being counted k times, so the self times of a tree sum to its
// root's duration exactly. The slice may hold several trees.
func selfTimes(tree []node) {
	children := make([][]int, len(tree))
	for i, n := range tree {
		tree[i].self = 0
		if n.parent >= 0 {
			children[n.parent] = append(children[n.parent], i)
		}
	}
	var share func(i int, lo, hi int64, weight float64)
	share = func(i int, lo, hi int64, weight float64) {
		if hi <= lo {
			return
		}
		// Cut [lo, hi) at every child boundary that falls inside it.
		cuts := []int64{lo, hi}
		for _, c := range children[i] {
			for _, t := range [2]int64{tree[c].start, tree[c].end} {
				if t > lo && t < hi {
					cuts = append(cuts, t)
				}
			}
		}
		sortInt64(cuts)
		for k := 0; k+1 < len(cuts); k++ {
			a, b := cuts[k], cuts[k+1]
			if a == b {
				continue
			}
			var active []int
			for _, c := range children[i] {
				if tree[c].start <= a && tree[c].end >= b {
					active = append(active, c)
				}
			}
			if len(active) == 0 {
				tree[i].self += weight * float64(b-a)
				continue
			}
			for _, c := range active {
				share(c, a, b, weight/float64(len(active)))
			}
		}
	}
	for i, n := range tree {
		if n.parent < 0 {
			share(i, n.start, n.end, 1)
		}
	}
}
