package resilience

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// AdmissionOptions configure one server's admission controller.
type AdmissionOptions struct {
	// MaxInflight is the hard concurrency budget the shedding thresholds
	// scale from: reads shed at 1/2 of it, prepares at 9/10. Default 256.
	MaxInflight int
	// MaxQueueDelay is the queueing-delay shed threshold for reads;
	// prepares tolerate 4× it. It doubles as the RetryAfter hint pushed
	// back to shed clients. Default 20ms.
	MaxQueueDelay time.Duration
	// Metrics, when set, records shed/drop accounting.
	Metrics *obs.Registry
}

func (o AdmissionOptions) withDefaults() AdmissionOptions {
	if o.MaxInflight <= 0 {
		o.MaxInflight = 256
	}
	if o.MaxQueueDelay <= 0 {
		o.MaxQueueDelay = 20 * time.Millisecond
	}
	return o
}

// Admission is a server-side load shedder with strict priority. It admits
// by two signals — current inflight work (queue depth) and how long the
// request waited between decode and dispatch (queueing delay) — and sheds
// the least important class first:
//
//	control (decisions, status, replication, leases)  — never shed
//	prepares — shed at 9/10 of MaxInflight or 4× MaxQueueDelay
//	reads    — shed at 1/2 of MaxInflight or 1× MaxQueueDelay
//
// Shed requests fail fast with ErrServerBusy carrying a RetryAfter hint;
// requests whose propagated deadline already expired are dropped with
// ErrDeadlineExceeded before costing any validate/flash/WAL work.
type Admission struct {
	opt      AdmissionOptions
	inflight atomic.Int64

	shedRead    *obs.Counter
	shedPrepare *obs.Counter
	deadlined   *obs.Counter
	inflightG   *obs.Gauge
	queueDelay  *obs.Histogram
}

// NewAdmission builds an admission controller.
func NewAdmission(opt AdmissionOptions) *Admission {
	opt = opt.withDefaults()
	a := &Admission{opt: opt}
	if m := opt.Metrics; m != nil {
		a.shedRead = m.Counter(obs.WithLabel("admission_shed_total", "pri", "read"))
		a.shedPrepare = m.Counter(obs.WithLabel("admission_shed_total", "pri", "prepare"))
		a.deadlined = m.Counter("admission_deadline_dropped_total")
		a.inflightG = m.Gauge("admission_inflight")
		a.queueDelay = m.Histogram("admission_queue_delay_ns")
	}
	return a
}

// Admit decides one request of class pri. nil means admitted — the caller
// must pair it with exactly one Done(). A non-nil error is the response to
// send: the request must not be dispatched.
func (a *Admission) Admit(ctx context.Context, pri Priority) error {
	if a == nil {
		return nil
	}
	// Control traffic (decisions, replication, leases) is never shed and
	// never deadline-dropped — a commit decision must reach the backups even
	// if the client that asked for it has given up — so it skips the context
	// walks below entirely. Control is also most of the request volume a
	// replicated commit generates, which keeps this check's cost off the
	// idle fast path.
	if pri == PriControl {
		a.admit()
		return nil
	}

	// A dead deadline means the caller has already given up; doing the
	// work would only burn cycles backups and clients will ignore.
	if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
		a.deadlined.Inc()
		return ErrDeadlineExceeded
	}

	wait := obs.ReqFrom(ctx).QueueWait
	if wait > 0 {
		a.queueDelay.Observe(int64(wait))
	}
	depth := a.inflight.Load()

	var depthLimit int64
	var delayLimit time.Duration
	switch pri {
	case PriPrepare:
		depthLimit = int64(a.opt.MaxInflight) * 9 / 10
		delayLimit = 4 * a.opt.MaxQueueDelay
	default: // PriRead
		depthLimit = int64(a.opt.MaxInflight) / 2
		delayLimit = a.opt.MaxQueueDelay
	}

	if depth >= depthLimit || wait > delayLimit {
		if pri == PriPrepare {
			a.shedPrepare.Inc()
		} else {
			a.shedRead.Inc()
		}
		return busyError(pri, a.opt.MaxQueueDelay)
	}
	a.admit()
	return nil
}

func (a *Admission) admit() {
	n := a.inflight.Add(1)
	a.inflightG.Set(n)
}

// Done releases one admitted request's inflight slot.
func (a *Admission) Done() {
	if a == nil {
		return
	}
	n := a.inflight.Add(-1)
	a.inflightG.Set(n)
}

// Inflight reports the current admitted concurrency (tests and debug).
func (a *Admission) Inflight() int64 {
	if a == nil {
		return 0
	}
	return a.inflight.Load()
}
