package park

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// workers counts the pool workers, and those of them parked for a job.
func workers() (all, parked int) {
	buf := make([]byte, 1<<20)
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "park.(*Pool[...]).work(") {
			all++
			if strings.Contains(g, " [select") {
				parked++
			}
		}
	}
	return all, parked
}

// waitParked waits until exactly want workers exist, all parked.
func waitParked(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if all, parked := workers(); all == want && parked == want {
			return
		}
		if time.Now().After(deadline) {
			all, parked := workers()
			t.Fatalf("%d workers (%d parked), want %d parked", all, parked, want)
		}
	}
}

// TestPoolReusesParkedWorker: sequential jobs run on one worker, a job that
// finds every worker busy gets a new one, and Close stops the parked ones.
func TestPoolReusesParkedWorker(t *testing.T) {
	var wg sync.WaitGroup
	hold := make(chan struct{})
	p := New(func(block bool) {
		if block {
			<-hold
		}
		wg.Done()
	})
	for i := 0; i < 100; i++ {
		wg.Add(1)
		p.Go(false)
		wg.Wait()
		waitParked(t, 1)
	}
	wg.Add(2)
	p.Go(true)  // takes the parked worker and blocks it
	p.Go(false) // finds no idle worker
	close(hold)
	wg.Wait()
	waitParked(t, 2)
	p.Close()
	waitParked(t, 0)
}
