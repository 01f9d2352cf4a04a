package storage

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flash"
	"repro/internal/ftl"
)

// blockingBackend is a DRAM that claims to wait on a device.
type blockingBackend struct{ *DRAM }

func (blockingBackend) Blocking() bool { return true }

// goid returns the calling goroutine's id, parsed from its stack header.
func goid() uint64 {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	id, _ := strconv.ParseUint(string(buf[:bytes.IndexByte(buf, ' ')]), 10, 64)
	return id
}

// TestBackendsBlocking: only DRAM never waits on a device.
func TestBackendsBlocking(t *testing.T) {
	for name, b := range newBackends(t) {
		if want := name != "dram"; b.Blocking() != want {
			t.Errorf("%s: Blocking() = %v, want %v", name, b.Blocking(), want)
		}
	}
	dev, _ := flash.NewDevice(flash.Options{Geometry: flash.Geometry{Channels: 2, BlocksPerChannel: 12, PagesPerBlock: 4, PageSize: 256}, Sleeper: flash.NopSleeper{}})
	f, _ := ftl.New(dev, ftl.Options{})
	if !NewSingleVersion(f).Blocking() {
		t.Error("sftl: Blocking() = false, want true")
	}
}

// TestForEach: on a non-blocking backend, and for a single call, ForEach runs
// every call inline, in index order, on the caller's goroutine; on a blocking
// backend all n calls are in flight at once. Either way every call runs and
// the lowest-index error is returned.
func TestForEach(t *testing.T) {
	errAt := func(i int) error { return fmt.Errorf("call %d failed", i) }
	for _, c := range []struct {
		name     string
		blocking bool
		n        int
		failing  []int // indexes whose call fails
	}{
		{name: "inline-empty", n: 0},
		{name: "inline-one", n: 1},
		{name: "inline-many", n: 5},
		{name: "inline-errors", n: 5, failing: []int{4, 1, 3}},
		{name: "blocking-empty", blocking: true, n: 0},
		{name: "blocking-one", blocking: true, n: 1},
		{name: "blocking-many", blocking: true, n: 5},
		{name: "blocking-errors", blocking: true, n: 5, failing: []int{4, 1, 3}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var b Backend = NewDRAM()
			if c.blocking {
				b = blockingBackend{NewDRAM()}
			}
			inline := !c.blocking || c.n == 1
			caller := goid()
			fails := make(map[int]bool)
			for _, i := range c.failing {
				fails[i] = true
			}
			var (
				mu       sync.Mutex
				order    []int
				arrived  atomic.Int32
				allHere  = make(chan struct{})
				wrongGID atomic.Bool
			)
			err := ForEach(b, c.n, func(i int) error {
				if (goid() == caller) != inline {
					wrongGID.Store(true)
				}
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
				if !inline {
					// A barrier: it opens only once every call is in flight.
					if arrived.Add(1) == int32(c.n) {
						close(allHere)
					}
					select {
					case <-allHere:
					case <-time.After(5 * time.Second):
						return errors.New("not every call was in flight at once")
					}
				}
				if fails[i] {
					return errAt(i)
				}
				return nil
			})
			var want error
			if len(c.failing) > 0 {
				want = errAt(1)
			}
			if fmt.Sprint(err) != fmt.Sprint(want) {
				t.Fatalf("ForEach returned %v, want %v", err, want)
			}
			if wrongGID.Load() {
				t.Fatalf("calls ran on the caller's goroutine: %v, want %v", !inline, inline)
			}
			if len(order) != c.n {
				t.Fatalf("%d calls ran, want %d", len(order), c.n)
			}
			if inline {
				for i, got := range order {
					if got != i {
						t.Fatalf("inline calls ran in order %v, want index order", order)
					}
				}
			}
		})
	}
}
