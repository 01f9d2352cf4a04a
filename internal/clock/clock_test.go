package clock

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestTimestampCompare(t *testing.T) {
	cases := []struct {
		a, b Timestamp
		want int
	}{
		{Timestamp{1, 0}, Timestamp{2, 0}, -1},
		{Timestamp{2, 0}, Timestamp{1, 0}, 1},
		{Timestamp{1, 1}, Timestamp{1, 2}, -1},
		{Timestamp{1, 2}, Timestamp{1, 1}, 1},
		{Timestamp{1, 1}, Timestamp{1, 1}, 0},
		{Zero, Timestamp{0, 1}, -1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v,%v)=%d want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestTimestampOrderingProperties(t *testing.T) {
	// Compare must be a total order: antisymmetric and transitive.
	anti := func(a, b Timestamp) bool {
		return a.Compare(b) == -b.Compare(a)
	}
	if err := quick.Check(anti, nil); err != nil {
		t.Errorf("antisymmetry: %v", err)
	}
	trans := func(a, b, c Timestamp) bool {
		if a.Compare(b) <= 0 && b.Compare(c) <= 0 {
			return a.Compare(c) <= 0
		}
		return true
	}
	if err := quick.Check(trans, nil); err != nil {
		t.Errorf("transitivity: %v", err)
	}
	maxmin := func(a, b Timestamp) bool {
		mx, mn := Max(a, b), Min(a, b)
		return mx.Compare(mn) >= 0 && (mx == a || mx == b) && (mn == a || mn == b)
	}
	if err := quick.Check(maxmin, nil); err != nil {
		t.Errorf("max/min: %v", err)
	}
}

func TestTimestampHelpers(t *testing.T) {
	ts := Timestamp{Ticks: 100, Client: 7}
	if got := ts.Add(50 * time.Nanosecond); got.Ticks != 150 || got.Client != 7 {
		t.Errorf("Add = %v", got)
	}
	if got := ts.Sub(Timestamp{Ticks: 40}); got != 60*time.Nanosecond {
		t.Errorf("Sub = %v", got)
	}
	if !Zero.IsZero() || ts.IsZero() {
		t.Error("IsZero misbehaves")
	}
	if ts.String() != "100@7" {
		t.Errorf("String = %q", ts.String())
	}
	if !ts.Before(Timestamp{Ticks: 101}) || !ts.After(Timestamp{Ticks: 99}) || !ts.AtOrBefore(ts) {
		t.Error("Before/After/AtOrBefore misbehave")
	}
}

func TestManualSource(t *testing.T) {
	m := NewManualSource(10)
	if m.Now() != 10 {
		t.Fatalf("Now=%d", m.Now())
	}
	m.Advance(5 * time.Nanosecond)
	if m.Now() != 15 {
		t.Fatalf("Now=%d after Advance", m.Now())
	}
	m.Set(3)
	if m.Now() != 3 {
		t.Fatalf("Now=%d after Set", m.Now())
	}
	var zero ManualSource
	if zero.Now() != 1 {
		t.Fatalf("zero-value ManualSource Now=%d, want 1", zero.Now())
	}
}

func TestSystemSourceMonotonic(t *testing.T) {
	s := NewSystemSource()
	a := s.Now()
	b := s.Now()
	if b < a {
		t.Fatalf("system source went backwards: %d then %d", a, b)
	}
}

// TestSystemSourceSharedEpoch checks that sources created at different
// times, as in separate processes, stamp on one epoch: a source created
// later never reads below one created earlier.
func TestSystemSourceSharedEpoch(t *testing.T) {
	for i := 0; i < 100; i++ {
		early := NewSystemSource()
		time.Sleep(10 * time.Microsecond)
		before := early.Now()
		if later := NewSystemSource().Now(); later < before {
			t.Fatalf("round %d: a later source reads %d, below an earlier one's %d", i, later, before)
		}
	}
	if d := time.Duration(NewSystemSource().Now() - time.Now().UnixNano()); d < -time.Second || d > time.Second {
		t.Fatalf("system source is %v away from the Unix epoch's time", d)
	}
}

func TestPerfectClockMonotonic(t *testing.T) {
	src := NewManualSource(100)
	c := NewPerfect(src, 3)
	a := c.Now()
	b := c.Now() // source did not advance; clock must still advance
	if !a.Before(b) {
		t.Fatalf("not strictly monotonic: %v then %v", a, b)
	}
	if a.Client != 3 || c.Client() != 3 {
		t.Fatalf("client id lost")
	}
	src.Set(50) // source regression must not leak out
	d := c.Now()
	if !b.Before(d) {
		t.Fatalf("regressed after source rollback: %v then %v", b, d)
	}
}

func TestSkewedClockOffsetAndDrift(t *testing.T) {
	src := NewManualSource(1_000_000)
	c := NewSkewed(src, 1, 500*time.Nanosecond, 0)
	ts := c.Now()
	if ts.Ticks != 1_000_500 {
		t.Fatalf("offset not applied: %d", ts.Ticks)
	}
	// 1000 ppm drift over 1 ms of true time = 1 µs extra.
	d := NewSkewed(src, 2, 0, 1000)
	src.Advance(time.Millisecond)
	ts = d.Now()
	want := int64(2_000_000 + 1_000)
	if ts.Ticks != want {
		t.Fatalf("drift: got %d want %d", ts.Ticks, want)
	}
}

func TestSkewedClockDisciplineSlews(t *testing.T) {
	src := NewManualSource(1_000_000)
	c := NewSkewed(src, 1, time.Millisecond, 0) // leads by 1 ms
	before := c.Now()
	c.Discipline(0) // correction would step backwards by 1 ms
	after := c.Now()
	if !before.Before(after) {
		t.Fatalf("discipline broke monotonicity: %v then %v", before, after)
	}
	// Once true time catches up, the clock tracks the new offset.
	src.Advance(2 * time.Millisecond)
	ts := c.Now()
	if ts.Ticks != 3_000_000 {
		t.Fatalf("after slew got %d want %d", ts.Ticks, 3_000_000)
	}
	if got := c.Offset(); got != 0 {
		t.Fatalf("Offset after discipline = %v", got)
	}
}

func TestSkewedClockConcurrentMonotonic(t *testing.T) {
	src := NewSystemSource()
	c := NewSkewed(src, 9, -time.Millisecond, 35)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := c.Now()
			for i := 0; i < 2000; i++ {
				cur := c.Now()
				if !prev.Before(cur) {
					errs <- "non-monotonic under concurrency"
					return
				}
				prev = cur
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestProfileSampleOffsetMean(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	const n = 20000
	var sumAbs float64
	for i := 0; i < n; i++ {
		sumAbs += math.Abs(float64(NTP.SampleOffset(r)))
	}
	mean := sumAbs / n
	want := float64(NTP.MeanAbsOffset)
	if mean < 0.9*want || mean > 1.1*want {
		t.Fatalf("mean |offset| = %v, want ≈ %v", time.Duration(mean), NTP.MeanAbsOffset)
	}
	if PerfectProfile.SampleOffset(r) != 0 {
		t.Fatal("perfect profile must sample zero")
	}
}

func TestProfileOrdering(t *testing.T) {
	// The whole premise of the paper: NTP skew >> PTP skew >> DTP skew.
	if !(NTP.MeanAbsOffset > PTPSoftware.MeanAbsOffset &&
		PTPSoftware.MeanAbsOffset > PTPHardware.MeanAbsOffset &&
		PTPHardware.MeanAbsOffset > DTP.MeanAbsOffset) {
		t.Fatal("profile skews are not ordered NTP > PTP-SW > PTP-HW > DTP")
	}
}

func TestDisciplinedClockSkewDistribution(t *testing.T) {
	src := NewManualSource(1)
	r := rand.New(rand.NewSource(7))
	var sumAbs time.Duration
	const n = 2000
	for i := 0; i < n; i++ {
		c := PTPSoftware.NewDisciplinedClock(src, uint32(i), r)
		off := c.Offset()
		if off < 0 {
			off = -off
		}
		sumAbs += off
	}
	mean := sumAbs / n
	if mean < PTPSoftware.MeanAbsOffset*8/10 || mean > PTPSoftware.MeanAbsOffset*12/10 {
		t.Fatalf("disciplined clock mean |skew| = %v, want ≈ %v", mean, PTPSoftware.MeanAbsOffset)
	}
}

func TestSynchronizerSyncOnce(t *testing.T) {
	src := NewManualSource(1)
	a := NewSkewed(src, 1, time.Hour, 0) // absurd initial error
	b := NewSkewed(src, 2, -time.Hour, 0)
	s := NewSynchronizer(PTPSoftware, 1, a, b)
	s.SyncOnce()
	src.Advance(2 * time.Hour) // let the slew absorb the backward step
	offA, offB := a.Offset(), b.Offset()
	if offA > time.Millisecond || offA < -time.Millisecond || offB > time.Millisecond || offB < -time.Millisecond {
		t.Fatalf("sync did not discipline: %v %v", offA, offB)
	}
}

func TestSynchronizerStartStop(t *testing.T) {
	src := NewSystemSource()
	a := NewSkewed(src, 1, time.Second, 0)
	p := Profile{Name: "fast", Interval: time.Millisecond, MeanAbsOffset: time.Microsecond}
	s := NewSynchronizer(p, 1, a)
	s.Start()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if off := a.Offset(); off < 100*time.Millisecond && off > -100*time.Millisecond {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.Stop()
	if off := a.Offset(); off > 100*time.Millisecond || off < -100*time.Millisecond {
		t.Fatalf("background synchronizer never disciplined the clock: %v", off)
	}
}

func TestWatermarkTracker(t *testing.T) {
	w := NewWatermarkTracker()
	if !w.Watermark().IsZero() {
		t.Fatal("empty tracker watermark must be Zero")
	}
	w.Report(1, Timestamp{Ticks: 100, Client: 1})
	w.Report(2, Timestamp{Ticks: 50, Client: 2})
	w.Report(3, Timestamp{Ticks: 200, Client: 3})
	if got := w.Watermark(); got.Ticks != 50 {
		t.Fatalf("watermark = %v, want ticks 50", got)
	}
	// Stale report is ignored.
	w.Report(2, Timestamp{Ticks: 10, Client: 2})
	if got := w.Watermark(); got.Ticks != 50 {
		t.Fatalf("stale report changed watermark: %v", got)
	}
	// Advancing the minimum moves the watermark.
	w.Report(2, Timestamp{Ticks: 150, Client: 2})
	if got := w.Watermark(); got.Ticks != 100 {
		t.Fatalf("watermark = %v, want ticks 100", got)
	}
	if w.Clients() != 3 {
		t.Fatalf("Clients = %d", w.Clients())
	}
	w.Forget(1)
	if got := w.Watermark(); got.Ticks != 150 {
		t.Fatalf("watermark after Forget = %v, want ticks 150", got)
	}
}

func TestWatermarkMonotoneProperty(t *testing.T) {
	// Watermark never decreases under monotone per-client reports.
	w := NewWatermarkTracker()
	r := rand.New(rand.NewSource(11))
	last := map[uint32]int64{}
	for c := uint32(0); c < 5; c++ { // fixed client set: all report before we start
		last[c] = 1
		w.Report(c, Timestamp{Ticks: 1, Client: c})
	}
	prev := Zero
	for i := 0; i < 5000; i++ {
		c := uint32(r.Intn(5))
		last[c] += int64(r.Intn(100) + 1)
		w.Report(c, Timestamp{Ticks: last[c], Client: c})
		cur := w.Watermark()
		if cur.Before(prev) {
			t.Fatalf("watermark regressed: %v -> %v", prev, cur)
		}
		prev = cur
	}
}

func TestWatermarkConcurrentReports(t *testing.T) {
	w := NewWatermarkTracker()
	var wg sync.WaitGroup
	for c := uint32(0); c < 8; c++ {
		wg.Add(1)
		go func(c uint32) {
			defer wg.Done()
			for i := int64(1); i <= 1000; i++ {
				w.Report(c, Timestamp{Ticks: i, Client: c})
			}
		}(c)
	}
	wg.Wait()
	if got := w.Watermark(); got.Ticks != 1000 {
		t.Fatalf("final watermark = %v, want 1000", got)
	}
}
