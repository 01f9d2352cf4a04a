package semel

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// ErrServerClosed is returned for writes that were still waiting on
// replication when the server shut down.
var ErrServerClosed = errors.New("semel: server closed")

// The batcher's limits. A batch ships once it holds batchMaxOps ops or
// batchMaxBytes of keys+values, or as soon as the queue runs dry and a flush
// slot is free; at most batchWorkers flushes are in flight. There is no
// linger timer: while every slot is busy the collector keeps absorbing
// arrivals into the next batch, so saturation grows batches instead of
// queueing ops (group commit), and an idle server dispatches immediately,
// adding no latency to a single put.
const (
	batchMaxOps   = 64
	batchMaxBytes = 256 << 10
	batchWorkers  = 4
)

// batchLimits carries the limits into a batcher; production always passes
// the constants above.
type batchLimits struct {
	maxOps, maxBytes, workers int
}

// pendingOp is one enqueued write awaiting its replication quorum.
type pendingOp struct {
	op  wire.DataOp
	ack chan error // buffered(1); receives exactly one result

	// Stage-ledger support, populated only when the writer's context
	// carries a ledger: enq is when the op entered the queue and flushedAt
	// receives ns-since-enq when its batch dispatches. The cell is shared
	// between the writer and the flush goroutine (pendingOp is copied into
	// the channel, so a plain field would not make it back), letting the
	// writer split its wait into batch-formation time and quorum time.
	enq       time.Time
	flushedAt *atomic.Int64
}

// noteFlush records the moment this op's batch dispatched to the backups.
func (p *pendingOp) noteFlush() {
	if p.flushedAt != nil {
		p.flushedAt.Store(int64(time.Since(p.enq)))
	}
}

// batcher is the primary's replication pipeline (group commit, §3.2 traffic).
// Writers enqueue DataOps; up to workers flushes fan batches out to the
// backups, each as a single Replicated{ReplicateData{Ops}} envelope. Acks
// are demultiplexed per op: each writer still observes its own f-of-2f
// quorum, so a batch is a transport optimization, not a coarser commit unit.
type batcher struct {
	s   *Server
	lim batchLimits

	ch       chan pendingOp
	sem      chan struct{} // in-flight flush slots
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// metrics
	batchOps   *obs.Histogram // ops per flushed batch
	flushSize  *obs.Counter   // flush reasons
	flushBytes *obs.Counter
	flushDrain *obs.Counter
}

func newBatcher(s *Server, lim batchLimits) *batcher {
	b := &batcher{
		s:          s,
		lim:        lim,
		ch:         make(chan pendingOp, 4*lim.maxOps),
		sem:        make(chan struct{}, lim.workers),
		stop:       make(chan struct{}),
		batchOps:   s.reg.Histogram("semel_repl_batch_ops"),
		flushSize:  s.reg.Counter(`semel_repl_flush_total{reason="size"}`),
		flushBytes: s.reg.Counter(`semel_repl_flush_total{reason="bytes"}`),
		flushDrain: s.reg.Counter(`semel_repl_flush_total{reason="drain"}`),
	}
	b.wg.Add(1)
	go b.run()
	return b
}

// close stops the flush loops and fails every op still queued. Writers also
// select on b.stop, so none can block on an op enqueued after the drain.
func (b *batcher) close() {
	b.stopOnce.Do(func() { close(b.stop) })
	b.wg.Wait()
	for {
		select {
		case p := <-b.ch:
			p.ack <- ErrServerClosed
		default:
			return
		}
	}
}

// replicate enqueues one op and waits for its replication outcome: nil once
// f backups acknowledged it, an error if a quorum is unreachable. On caller
// cancellation the op still flushes in the background (replication is
// durability traffic; see ReplicateToBackups) — only the wait is abandoned.
func (b *batcher) replicate(ctx context.Context, op wire.DataOp) error {
	p := pendingOp{op: op, ack: make(chan error, 1)}
	led := obs.ReqFrom(ctx).Ledger
	if led != nil {
		p.enq = time.Now()
		p.flushedAt = new(atomic.Int64)
	}
	select {
	case b.ch <- p:
	case <-b.stop:
		return ErrServerClosed
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case err := <-p.ack:
		if led != nil {
			// Everything up to dispatch was batch formation (queueing while
			// the flush slots were busy); the rest was the backups' quorum.
			total := int64(time.Since(p.enq))
			batchNs := p.flushedAt.Load()
			led.AddNs(obs.StageReplBatch, batchNs)
			led.AddNs(obs.StageReplAck, total-batchNs)
		}
		return err
	case <-b.stop:
		return ErrServerClosed
	case <-ctx.Done():
		return ctx.Err()
	}
}

// run is the collector loop: it assembles batches and dispatches each to its
// own flush goroutine, at most workers in flight. While every flush slot is
// busy the current batch keeps absorbing arrivals — saturation makes batches
// bigger rather than ops wait in line, and with free slots a batch dispatches
// the moment fill returns.
func (b *batcher) run() {
	defer b.wg.Done()
	for {
		var first pendingOp
		select {
		case <-b.stop:
			return
		case first = <-b.ch:
		}
		batch := b.fill(first)
		bytes := 0
		for _, p := range batch {
			bytes += opBytes(p.op)
		}
	acquire:
		for {
			if len(batch) >= b.lim.maxOps || bytes >= b.lim.maxBytes {
				select {
				case b.sem <- struct{}{}:
					break acquire
				case <-b.stop:
					b.fail(batch, ErrServerClosed)
					return
				}
			}
			select {
			case b.sem <- struct{}{}:
				break acquire
			case p := <-b.ch:
				batch = append(batch, p)
				bytes += opBytes(p.op)
			case <-b.stop:
				b.fail(batch, ErrServerClosed)
				return
			}
		}
		b.batchOps.Observe(int64(len(batch)))
		b.wg.Add(1)
		go func(batch []pendingOp) {
			defer b.wg.Done()
			defer func() { <-b.sem }()
			b.flush(batch)
		}(batch)
	}
}

func (b *batcher) fail(batch []pendingOp, err error) {
	for _, p := range batch {
		p.ack <- err
	}
}

// fill grows a batch from its first op with whatever is already queued, until
// it reaches maxOps or maxBytes or the queue runs dry.
func (b *batcher) fill(first pendingOp) []pendingOp {
	batch := []pendingOp{first}
	bytes := opBytes(first.op)
	for len(batch) < b.lim.maxOps && bytes < b.lim.maxBytes {
		select {
		case p := <-b.ch:
			batch = append(batch, p)
			bytes += opBytes(p.op)
		default:
			b.flushDrain.Inc()
			return batch
		}
	}
	if len(batch) >= b.lim.maxOps {
		b.flushSize.Inc()
	} else {
		b.flushBytes.Inc()
	}
	return batch
}

func opBytes(op wire.DataOp) int {
	return len(op.Key) + len(op.Val)
}

// peerResult is one backup's response to a batched ReplicateData.
type peerResult struct {
	errs []string // per-op errors from a BatchAck; nil = all applied
	err  error    // call-level failure: every op failed at this peer
}

// flush sends one coalesced ReplicateData to every backup and demultiplexes
// the acknowledgements per op: op i resolves success once f peers applied
// it, failure once so many peers rejected it that f successes are
// impossible. A batch is all-or-nothing on the wire but not in outcome —
// each writer sees exactly its own op's quorum.
func (b *batcher) flush(batch []pendingOp) {
	for i := range batch {
		batch[i].noteFlush()
	}
	s := b.s
	rs, err := s.opt.Dir.Shard(s.opt.Shard)
	if err != nil {
		for _, p := range batch {
			p.ack <- err
		}
		return
	}
	var peers []string
	for _, a := range rs.Replicas() {
		if a != s.opt.Addr {
			peers = append(peers, a)
		}
	}
	need := rs.F()
	if need > len(peers) {
		need = len(peers)
	}
	if need == 0 {
		for _, p := range batch {
			p.ack <- nil
		}
		return
	}
	ops := make([]wire.DataOp, len(batch))
	for i, p := range batch {
		ops[i] = p.op
	}
	env := wire.Replicated{Epoch: rs.Epoch, Msg: wire.ReplicateData{Ops: ops}}
	// Sends must outlive any caller: they are durability traffic (see
	// ReplicateToBackups). The flush loop itself only waits until every op
	// is resolved, then hands the stragglers to a drain goroutine.
	sendCtx, cancelSends := context.WithTimeout(context.Background(), replicationSendTimeout)
	ackStart := time.Now()
	results := make(chan peerResult, len(peers))
	for _, p := range peers {
		go func(p string) {
			resp, err := s.opt.Net.Call(sendCtx, p, env)
			if err != nil {
				results <- peerResult{err: err}
				return
			}
			// Anything but a well-formed BatchAck fails the whole peer.
			ba, ok := resp.(wire.BatchAck)
			switch {
			case !ok:
				results <- peerResult{err: fmt.Errorf("semel: replicate answered %T, want BatchAck", resp)}
			case ba.Errs != nil && len(ba.Errs) != len(ops):
				results <- peerResult{err: fmt.Errorf("semel: short batch ack (%d/%d)", len(ba.Errs), len(ops))}
			default:
				results <- peerResult{errs: ba.Errs}
			}
		}(p)
	}
	succ := make([]int, len(batch))
	fail := make([]int, len(batch))
	firstErr := make([]string, len(batch))
	resolved := make([]bool, len(batch))
	unresolved := len(batch)
	replied := 0
	for unresolved > 0 && replied < len(peers) {
		r := <-results
		replied++
		for i := range batch {
			if resolved[i] {
				continue
			}
			opErr := ""
			if r.err != nil {
				opErr = r.err.Error()
			} else if r.errs != nil && r.errs[i] != "" {
				opErr = r.errs[i]
			}
			if opErr == "" {
				succ[i]++
				if succ[i] >= need {
					resolved[i] = true
					unresolved--
					batch[i].ack <- nil
				}
				continue
			}
			fail[i]++
			if firstErr[i] == "" {
				firstErr[i] = opErr
			}
			if fail[i] > len(peers)-need {
				resolved[i] = true
				unresolved--
				batch[i].ack <- fmt.Errorf("semel: replication quorum lost (%d/%d failed): %s", fail[i], len(peers), firstErr[i])
			}
		}
	}
	s.om.replAck.ObserveSince(ackStart)
	if replied < len(peers) {
		// Let the remaining sends finish in the background, then release
		// their context.
		remaining := len(peers) - replied
		go func() {
			for i := 0; i < remaining; i++ {
				<-results
			}
			cancelSends()
		}()
	} else {
		cancelSends()
	}
}
