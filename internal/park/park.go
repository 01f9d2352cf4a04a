// Package park runs short jobs on parked worker goroutines. A fresh
// goroutine starts on a 2 KiB stack, and a job that drives a whole server
// call inline on the in-process bus is deep enough to pay several stack
// growths every time; a reused worker keeps its grown stack warm.
package park

import (
	"sync"
	"time"
)

// Idle is how long a parked worker waits for more work before exiting: long
// enough to stay warm across steady traffic, short enough that a pool nobody
// closes (a transaction client) does not pin goroutines once traffic stops.
const Idle = time.Second

// Pool hands each job to an idle parked worker, or starts a new worker when
// every one is busy — so a slow job only ever ties up its own worker and
// never queues behind another. The zero value is not usable; call New.
type Pool[J any] struct {
	run      func(J)
	jobs     chan J
	stop     chan struct{}
	stopOnce sync.Once
}

// New returns a pool whose workers call run for every job.
func New[J any](run func(J)) *Pool[J] {
	return &Pool[J]{run: run, jobs: make(chan J), stop: make(chan struct{})}
}

// Go runs j on a parked worker, or on a new one if none is idle.
func (p *Pool[J]) Go(j J) {
	select {
	case p.jobs <- j:
	default:
		go p.work(j)
	}
}

// Close makes every parked worker exit at once; running jobs finish first.
// Jobs handed to Go after Close still run, each on a worker that exits
// when it is done.
func (p *Pool[J]) Close() {
	p.stopOnce.Do(func() { close(p.stop) })
}

func (p *Pool[J]) work(j J) {
	p.run(j)
	t := time.NewTimer(Idle)
	defer t.Stop()
	for {
		select {
		case j := <-p.jobs:
			p.run(j)
			if !t.Stop() {
				<-t.C
			}
			t.Reset(Idle)
		case <-t.C:
			return
		case <-p.stop:
			return
		}
	}
}
