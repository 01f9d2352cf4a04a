// Stage-latency attribution. A transaction's end-to-end latency is the sum
// of waits spread across every layer it crosses — client send queue, codec,
// network, server dispatch queue, validation, flash reads and programs,
// commit-wait, replication batching and acknowledgement — and the paper's
// argument (commit-wait is cheap relative to the rest of the pipeline under
// tight clock uncertainty) is only checkable if each of those waits is
// attributed separately and the attribution *adds up*. This file provides
// the per-transaction Ledger (a pooled, allocation-frugal stamp vector that
// rides the context inside the request record, req.go), and the StageSet
// that folds finished ledgers into per-stage mergeable histograms with
// exemplar trace IDs, enforcing the accounting identity: stage sum ≈
// end-to-end, with the residual tracked as its own "unattributed" stage and
// over-attribution (parallel fan-out double-counts wall time) counted rather
// than hidden.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Stage is one attribution slot of the transaction pipeline.
type Stage uint8

// Pipeline stages, in rough causal order. StageUnattributed is not written
// by instrumentation points: it is computed at fold time as the end-to-end
// residual the other stages did not claim.
const (
	StageClientQueue  Stage = iota // client transport send-queue wait
	StageEncode                    // wire codec encode (client side)
	StageNetwork                   // time on the wire, both directions
	StageDispatch                  // server-side dispatch/worker-pool queue wait
	StageValidate                  // OCC validation (Algorithm 1) under the manager lock
	StageFlashRead                 // backend reads (device wait included)
	StageFlashProgram              // backend writes/tombstones (device wait included)
	StageCommitWait                // commit-wait until the commit timestamp is past
	StageReplBatch                 // replication batcher enqueue→flush wait
	StageReplAck                   // replication quorum (f-of-2f ack) wait
	StageDecode                    // wire codec decode (client side)
	StageUnattributed              // residual: end-to-end minus everything above

	// NumStages sizes per-stage arrays.
	NumStages = int(StageUnattributed) + 1
)

var stageNames = [NumStages]string{
	"client-queue", "encode", "network", "dispatch", "validate",
	"flash-read", "flash-program", "commit-wait", "repl-batch", "repl-ack",
	"decode", "unattributed",
}

// String names the stage (the {stage=...} label value).
func (s Stage) String() string {
	if int(s) < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// StageNames returns the label values of all attributable stages plus the
// residual, in enum order.
func StageNames() []string { return append([]string(nil), stageNames[:]...) }

// Ledger is one transaction's (or one request's) stage stamp vector. Cells
// are atomic because RPC fan-out attributes from multiple goroutines.
// Ledgers are pooled: acquire with NewLedger, release with Release once
// folded — never retain a reference across Release.
type Ledger struct {
	ns [NumStages]atomic.Int64
}

var ledgerPool = sync.Pool{New: func() any { return new(Ledger) }}

// NewLedger returns a zeroed ledger from the pool.
func NewLedger() *Ledger {
	l := ledgerPool.Get().(*Ledger)
	l.Reset()
	return l
}

// Release returns the ledger to the pool. Nil-safe.
func (l *Ledger) Release() {
	if l != nil {
		ledgerPool.Put(l)
	}
}

// Reset zeroes every cell.
func (l *Ledger) Reset() {
	if l == nil {
		return
	}
	for i := range l.ns {
		l.ns[i].Store(0)
	}
}

// Add attributes d to stage s. Nil-safe; negative durations are dropped.
func (l *Ledger) Add(s Stage, d time.Duration) { l.AddNs(s, int64(d)) }

// AddNs attributes ns nanoseconds to stage s. Nil-safe.
func (l *Ledger) AddNs(s Stage, ns int64) {
	if l == nil || ns <= 0 || int(s) >= NumStages {
		return
	}
	l.ns[s].Add(ns)
}

// Ns returns the nanoseconds attributed to stage s so far.
func (l *Ledger) Ns(s Stage) int64 {
	if l == nil || int(s) >= NumStages {
		return 0
	}
	return l.ns[s].Load()
}

// AttributedNs returns the sum over all stages except the residual.
func (l *Ledger) AttributedNs() int64 {
	if l == nil {
		return 0
	}
	var sum int64
	for i := 0; i < int(StageUnattributed); i++ {
		sum += l.ns[i].Load()
	}
	return sum
}

// Deltas exports the non-zero attributable stages as sparse (id, ns) pairs —
// the compact form the TCP transport returns to the caller. Nil ledgers and
// empty ledgers return nil slices.
func (l *Ledger) Deltas() (ids []byte, ns []int64) {
	if l == nil {
		return nil, nil
	}
	for i := 0; i < int(StageUnattributed); i++ {
		if v := l.ns[i].Load(); v > 0 {
			ids = append(ids, byte(i))
			ns = append(ns, v)
		}
	}
	return ids, ns
}

// AddDeltas folds sparse remote stage deltas (as produced by Deltas) into
// the ledger. Unknown stage ids — a newer peer — are ignored. Nil-safe.
func (l *Ledger) AddDeltas(ids []byte, ns []int64) {
	if l == nil || len(ids) != len(ns) {
		return
	}
	for i, id := range ids {
		if int(id) < int(StageUnattributed) {
			l.AddNs(Stage(id), ns[i])
		}
	}
}

// StageSet folds finished ledgers into per-stage histograms under
// "<prefix>_ns{stage=...}", plus an end-to-end histogram
// ("<prefix>_e2e_ns") and an over-attribution counter
// ("<prefix>_overrun_ns_total": nanoseconds by which the stage sum exceeded
// end-to-end, which parallel fan-out legitimately produces). All methods are
// nil-safe.
type StageSet struct {
	hists   [NumStages]*Histogram
	e2e     *Histogram
	overrun *Counter
}

// NewStageSet creates (or reuses) the stage histograms of prefix in reg.
func NewStageSet(reg *Registry, prefix string) *StageSet {
	if reg == nil {
		return nil
	}
	ss := &StageSet{
		e2e:     reg.Histogram(prefix + "_e2e_ns"),
		overrun: reg.Counter(prefix + "_overrun_ns_total"),
	}
	for i := 0; i < NumStages; i++ {
		ss.hists[i] = reg.Histogram(withLabel(prefix+"_ns", "stage", Stage(i).String()))
	}
	return ss
}

// Hist returns the histogram of one stage (tests and reporting).
func (ss *StageSet) Hist(s Stage) *Histogram {
	if ss == nil || int(s) >= NumStages {
		return nil
	}
	return ss.hists[s]
}

// Fold records one finished ledger against a measured end-to-end duration:
// every non-zero stage feeds its histogram (stamped with traceID as the
// bucket exemplar), the unclaimed remainder feeds the "unattributed" stage,
// and a stage sum exceeding end-to-end (parallel fan-out) is clamped with
// the excess counted on the overrun counter. Fold does not release l.
func (ss *StageSet) Fold(l *Ledger, e2e time.Duration, traceID uint64) {
	if ss == nil || l == nil {
		return
	}
	e2eNs := int64(e2e)
	if e2eNs < 0 {
		e2eNs = 0
	}
	var sum int64
	for i := 0; i < int(StageUnattributed); i++ {
		v := l.ns[i].Load()
		if v <= 0 {
			continue
		}
		sum += v
		ss.hists[i].ObserveExemplar(v, traceID)
	}
	residual := e2eNs - sum
	if residual >= 0 {
		ss.hists[StageUnattributed].ObserveExemplar(residual, traceID)
	} else {
		ss.overrun.Add(-residual)
		ss.hists[StageUnattributed].ObserveExemplar(0, traceID)
	}
	ss.e2e.ObserveExemplar(e2eNs, traceID)
}
