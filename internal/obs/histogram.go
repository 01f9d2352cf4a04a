package obs

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: values 0..7 get exact buckets 0..7; above that,
// each power-of-two octave is split into 8 log-linear sub-buckets, so the
// relative quantile error is bounded by 1/8 of the value (12.5%) at any
// magnitude — tight enough for latency percentiles from nanoseconds to
// hours, with zero configuration and a fixed 496-slot footprint.
const (
	subBuckets  = 8
	firstOctave = 3 // values < 1<<firstOctave get exact buckets
	// The largest positive int64 has its leading bit at position 62, so
	// the highest reachable bucket is (62-firstOctave+1)*subBuckets +
	// (subBuckets-1) = 487; its upper bound is exactly MaxInt64.
	numBuckets = (62-firstOctave+1)*subBuckets + subBuckets
)

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < 1<<firstOctave {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // position of the leading bit, ≥ 3
	sub := (v >> (exp - firstOctave)) & (subBuckets - 1)
	return (exp-firstOctave+1)*subBuckets + int(sub)
}

// bucketBounds returns the inclusive value range covered by bucket idx.
func bucketBounds(idx int) (lo, hi int64) {
	if idx < 1<<firstOctave {
		return int64(idx), int64(idx)
	}
	exp := idx/subBuckets + firstOctave - 1
	sub := int64(idx % subBuckets)
	width := int64(1) << (exp - firstOctave)
	lo = (int64(subBuckets) + sub) << (exp - firstOctave)
	return lo, lo + width - 1
}

// bucketMid returns a representative value for bucket idx (its midpoint).
func bucketMid(idx int) int64 {
	lo, hi := bucketBounds(idx)
	return lo + (hi-lo)/2
}

// Histogram is a lock-free log-bucketed histogram of non-negative int64
// values (typically nanoseconds). Concurrent Observe calls never block each
// other; Snapshot is weakly consistent (it may tear between count and sum
// under concurrent writes), which is fine for monitoring.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64
	buckets [numBuckets]atomic.Uint64
	// exemplars remembers, per bucket, the most recent trace ID observed
	// there (0 = none): a p99 spike in a snapshot is then one `milctl
	// trace` away from its stitched timeline.
	exemplars [numBuckets]atomic.Uint64
}

// NewHistogram creates an empty histogram. Standalone histograms (outside a
// Registry) are useful for experiment-local measurements.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveExemplar records one value and, when traceID is non-zero, stamps
// the value's bucket with it as the most recent exemplar.
func (h *Histogram) ObserveExemplar(v int64, traceID uint64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	idx := bucketIndex(v)
	h.buckets[idx].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	if traceID != 0 {
		h.exemplars[idx].Store(traceID)
	}
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// ObserveSince records the time elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) { h.ObserveDuration(time.Since(start)) }

// Bucket is one non-empty histogram bucket in a snapshot. Exemplar is the
// most recent trace ID observed in the bucket (0 = none).
type Bucket struct {
	Idx      int32
	N        uint64
	Exemplar uint64
}

// HistogramSnapshot is a sparse, mergeable copy of a histogram. All fields
// are exported so the wire codec can carry it inside wire.StatsResponse.
type HistogramSnapshot struct {
	Count   uint64
	Sum     int64
	Buckets []Bucket // ascending Idx, only non-empty buckets
}

// Snapshot copies the current state. Nil histograms yield a zero snapshot.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, Bucket{Idx: int32(i), N: n, Exemplar: h.exemplars[i].Load()})
		}
	}
	return s
}

// Merge adds o's observations into s.
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	s.Count += o.Count
	s.Sum += o.Sum
	if len(o.Buckets) == 0 {
		return
	}
	merged := make([]Bucket, 0, len(s.Buckets)+len(o.Buckets))
	i, j := 0, 0
	for i < len(s.Buckets) && j < len(o.Buckets) {
		a, b := s.Buckets[i], o.Buckets[j]
		switch {
		case a.Idx == b.Idx:
			ex := a.Exemplar
			if b.Exemplar != 0 {
				ex = b.Exemplar // recency across snapshots is unknowable; any is useful
			}
			merged = append(merged, Bucket{Idx: a.Idx, N: a.N + b.N, Exemplar: ex})
			i++
			j++
		case a.Idx < b.Idx:
			merged = append(merged, a)
			i++
		default:
			merged = append(merged, b)
			j++
		}
	}
	merged = append(merged, s.Buckets[i:]...)
	merged = append(merged, o.Buckets[j:]...)
	s.Buckets = merged
}

// Quantile returns an estimate of the q-quantile (0 ≤ q ≤ 1) as a value in
// the histogram's unit. An empty snapshot returns 0.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the 1-based position of the target observation.
	rank := uint64(q*float64(s.Count-1)) + 1
	var seen uint64
	for _, b := range s.Buckets {
		seen += b.N
		if seen >= rank {
			return bucketMid(int(b.Idx))
		}
	}
	if n := len(s.Buckets); n > 0 {
		return bucketMid(int(s.Buckets[n-1].Idx))
	}
	return 0
}

// Mean returns the exact arithmetic mean (sum is tracked exactly).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Exemplar is one remembered high-latency trace: the bucket's value range
// and the most recent trace ID observed there.
type Exemplar struct {
	LoNs, HiNs int64 // inclusive bucket bounds
	N          uint64
	TraceID    uint64
}

// TopExemplars returns up to n exemplars from the highest-latency buckets
// that remembered one, slowest first — the traces to pull when the tail
// spikes.
func (s HistogramSnapshot) TopExemplars(n int) []Exemplar {
	var out []Exemplar
	for i := len(s.Buckets) - 1; i >= 0 && len(out) < n; i-- {
		b := s.Buckets[i]
		if b.Exemplar == 0 {
			continue
		}
		lo, hi := bucketBounds(int(b.Idx))
		out = append(out, Exemplar{LoNs: lo, HiNs: hi, N: b.N, TraceID: b.Exemplar})
	}
	return out
}

// Percentiles returns the canonical reporting set: p50, p95, p99, p99.9.
func (s HistogramSnapshot) Percentiles() (p50, p95, p99, p999 int64) {
	return s.Quantile(0.50), s.Quantile(0.95), s.Quantile(0.99), s.Quantile(0.999)
}

// String renders count/mean/percentiles, interpreting values as nanoseconds.
func (s HistogramSnapshot) String() string {
	p50, p95, p99, p999 := s.Percentiles()
	return fmt.Sprintf("count=%d mean=%v p50=%v p95=%v p99=%v p99.9=%v",
		s.Count, time.Duration(s.Mean()), time.Duration(p50),
		time.Duration(p95), time.Duration(p99), time.Duration(p999))
}
