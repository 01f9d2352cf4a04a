package clock

import (
	"sync/atomic"
	"time"
)

// Source is a reference ("true") time base, in nanoseconds since an epoch
// shared by every clock of a deployment. It must be monotonic. All client
// clocks in a deployment derive from one Source (or, across processes, from
// Sources on the same epoch); the skew they exhibit relative to each other
// is what the synchronization profiles model.
type Source interface {
	Now() int64
}

// SystemSource reads the host's clock: nanoseconds since the Unix epoch at
// the source's creation, advanced by the process monotonic clock. It is the
// Source used in benchmarks and real deployments. Every process on
// synchronized hosts shares its epoch, as the paper's disciplined clocks do,
// so timestamps from separate processes compare; within a process it never
// goes backwards, even if the wall clock is stepped.
type SystemSource struct {
	start time.Time
	unix  int64 // start.UnixNano()
}

// NewSystemSource returns a SystemSource anchored at the current wall-clock
// time.
func NewSystemSource() *SystemSource {
	now := time.Now()
	return &SystemSource{start: now, unix: now.UnixNano()}
}

// Now returns nanoseconds since the Unix epoch: the wall-clock time of the
// source's creation plus the monotonic time elapsed since.
func (s *SystemSource) Now() int64 { return s.unix + int64(time.Since(s.start)) }

// ManualSource is a Source advanced explicitly by tests. The zero value is
// ready to use and starts at time 1 (so produced timestamps are never the
// zero Timestamp).
type ManualSource struct {
	ns atomic.Int64
}

// NewManualSource returns a ManualSource starting at start nanoseconds.
func NewManualSource(start int64) *ManualSource {
	m := &ManualSource{}
	m.ns.Store(start)
	return m
}

// Now returns the current manual time.
func (m *ManualSource) Now() int64 {
	if v := m.ns.Load(); v > 0 {
		return v
	}
	// Zero-value convenience: never report 0 so that timestamps derived
	// from a fresh ManualSource are distinguishable from clock.Zero.
	return 1
}

// Advance moves the manual clock forward by d and returns the new time.
func (m *ManualSource) Advance(d time.Duration) int64 {
	return m.ns.Add(int64(d))
}

// Set jumps the manual clock to ns. Moving backwards is allowed for tests
// that exercise monotonicity enforcement in derived clocks.
func (m *ManualSource) Set(ns int64) { m.ns.Store(ns) }
