package semel

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/milana"
	"repro/internal/obs"
	"repro/internal/transport"
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
// durability traffic; see sendToBackups) — only the wait is abandoned.
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

// flush ships one coalesced ReplicateData through the fan-out on a
// background context (no caller may cut durability traffic short).
func (b *batcher) flush(batch []pendingOp) {
	ops := make([]wire.DataOp, len(batch))
	for i := range batch {
		batch[i].noteFlush()
		ops[i] = batch[i].op
	}
	t := &batchTally{batch: batch, ops: make([]opTally, len(batch)), open: len(batch)}
	start := time.Now()
	f, err := b.s.sendToBackups(context.Background(), wire.ReplicateData{Ops: ops})
	if f != nil {
		err = b.s.await(context.Background(), f, start, t.add)
	}
	t.finish(err)
}

// batchTally demultiplexes a batch's acknowledgements per op: a batch is
// all-or-nothing on the wire but not in outcome — op i succeeds once need
// backups applied it and fails once need successes are impossible.
type batchTally struct {
	batch []pendingOp
	ops   []opTally
	open  int // ops not yet resolved
}

type opTally struct {
	succ, fail int
	firstErr   string
	done       bool
}

func (t *batchTally) add(need, peers int, resp any, err error) (bool, error) {
	var errs []string // per-op errors from a BatchAck; nil = all applied
	if err == nil {
		// Anything but a well-formed BatchAck fails the whole peer.
		ba, ok := resp.(wire.BatchAck)
		switch {
		case !ok:
			err = fmt.Errorf("semel: replicate answered %T, want BatchAck", resp)
		case ba.Errs != nil && len(ba.Errs) != len(t.batch):
			err = fmt.Errorf("semel: short batch ack (%d/%d)", len(ba.Errs), len(t.batch))
		default:
			errs = ba.Errs
		}
	}
	for i := range t.ops {
		o := &t.ops[i]
		if o.done {
			continue
		}
		opErr := ""
		if err != nil {
			opErr = err.Error()
		} else if errs != nil {
			opErr = errs[i]
		}
		if opErr == "" {
			if o.succ++; o.succ >= need {
				t.resolve(i, nil)
			}
			continue
		}
		o.fail++
		if o.firstErr == "" {
			o.firstErr = opErr
		}
		if o.fail > peers-need {
			t.resolve(i, fmt.Errorf("semel: replication quorum lost (%d/%d failed): %s", o.fail, peers, o.firstErr))
		}
	}
	return t.open == 0, nil
}

func (t *batchTally) resolve(i int, err error) {
	t.ops[i].done = true
	t.open--
	t.batch[i].ack <- err
}

// finish resolves the ops the fan-out left open (directory error, no backups).
func (t *batchTally) finish(err error) {
	for i := range t.ops {
		if !t.ops[i].done {
			t.resolve(i, err)
		}
	}
}

// ---- the fan-out ----

// replicationSendTimeout bounds background replication deliveries that
// continue after the synchronous f-ack wait has been satisfied.
const replicationSendTimeout = 30 * time.Second

// Persist makes one 2PC record (a prepare or a decision) durable on this
// replica and on f of its 2f backups — the relaxed majority rule of §3.2 and
// Figure 5, with the primary's own copy counting toward the f+1. The local
// append and the backup fan-out run concurrently, and Persist returns once
// both have landed: one device wait on the critical path, not two in series.
// When nothing could be sent (a deposed primary, an expired deadline, a
// directory error) the error wraps milana.ErrNotSent, and a prepare is not
// logged: its caller aborts it, and a logged prepare with one participant
// would replay as a commit. A failed local append is reported wrapped in
// milana.ErrNotLogged, whatever the fan-out did; any other error means the
// record is in the local log and was sent but did not reach f backups.
// Remaining deliveries continue in the background.
func (s *Server) Persist(ctx context.Context, msg any) error {
	start := time.Now()
	f, err := s.sendToBackups(ctx, msg)
	if err != nil {
		err = fmt.Errorf("%w: %w", milana.ErrNotSent, err)
		if _, prepare := msg.(wire.ReplicatePrepare); prepare {
			return err
		}
	}
	// The local append runs on this goroutine while the sends are in flight
	// — for a decision even when nothing could be sent: the caller has
	// already applied it, and its log must hold it whatever the backups do.
	if lerr := s.logRecord(msg); lerr != nil {
		return fmt.Errorf("%w: %w", milana.ErrNotLogged, lerr)
	}
	if f == nil {
		return err
	}
	got, failed := 0, 0
	return s.await(ctx, f, start, func(need, peers int, _ any, err error) (bool, error) {
		if err == nil {
			got++
			return got >= need, nil
		}
		failed++
		if failed > peers-need {
			return true, fmt.Errorf("semel: replication quorum lost (%d/%d failed)", failed, peers)
		}
		return false, nil
	})
}

// A tally folds one backup's reply into a fan-out's outcome (need
// acknowledgements out of peers backups). It reports whether the outcome is
// settled and, once it is, the error await returns.
type tally func(need, peers int, resp any, err error) (settled bool, result error)

// await is the wait half of the one f-of-2f replication fan-out (Persist and
// the batcher's flush; sendToBackups is the send half): it feeds f's replies
// to t until t settles, by the last reply at the latest. Only the wait
// honours ctx; stragglers finish in the background. start is when the
// caller's replication began.
func (s *Server) await(ctx context.Context, f *fanout, start time.Time, t tally) error {
	for {
		select {
		case r := <-f.replies:
			settled, result := t(f.need, f.peers, r.resp, r.err)
			if !settled {
				continue
			}
			if result == nil {
				// Time-to-quorum (and, under Persist, to the overlapped local
				// append) is the replication lag a committing write
				// experiences, and the repl-ack stage of whichever
				// transaction is blocked on this call (its ledger rides ctx).
				waited := time.Since(start)
				s.om.replAck.Observe(int64(waited))
				obs.AttributeStage(ctx, obs.StageReplAck, waited)
			}
			return result
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// sendToBackups dispatches msg to every backup and returns the fan-out to
// wait on; nil with a nil error when the shard has no backup to wait for.
func (s *Server) sendToBackups(ctx context.Context, msg any) (*fanout, error) {
	rs, err := s.opt.Dir.Shard(s.opt.Shard)
	if err != nil {
		return nil, err
	}
	// A replica the directory no longer names primary has been deposed: its
	// records would carry the new regime's epoch and slip past the
	// receivers' stale-epoch fence (handleReplicated) into the new primary.
	if rs.Primary != s.opt.Addr {
		return nil, ErrNotPrimary
	}
	peers := slices.DeleteFunc(rs.Replicas(), func(a string) bool { return a == s.opt.Addr })
	need := min(rs.F(), len(peers))
	if need == 0 {
		return nil, nil
	}
	// The caller's propagated deadline caps the sends: once the coordinator
	// has given up on the write, backups should not keep burning cycles on
	// its replication (stragglers beyond the f+1 quorum are repaired by
	// anti-entropy either way).
	sendTimeout := replicationSendTimeout
	if dl, ok := ctx.Deadline(); ok {
		until := time.Until(dl)
		if until <= 0 {
			return nil, transport.ErrDeadlineExceeded
		}
		sendTimeout = min(sendTimeout, until)
	}
	// The sends are durability traffic and must outlive the caller: a
	// client that cancels its context right after its call returns would
	// otherwise silently kill the delivery to the remaining backups,
	// leaving them permanently short of acknowledged operations. Only the
	// *wait* honours the caller's context. Identity and causality cross the
	// detach; the caller's ledger does not — it may be released before the
	// last backup answers.
	f := &fanout{env: wire.Replicated{Epoch: rs.Epoch, Msg: msg}, need: need, peers: len(peers), replies: make(chan replReply, len(peers))}
	f.ctx, f.cancel = context.WithTimeout(obs.ReqFrom(ctx).Detached(), sendTimeout)
	f.pending.Store(int32(len(peers)))
	for _, p := range peers {
		s.senders.Go(replJob{f: f, addr: p})
	}
	return f, nil
}

// fanout is one envelope's delivery to every backup; the last send to
// finish cancels ctx.
type fanout struct {
	env         wire.Replicated
	need, peers int
	ctx         context.Context
	cancel      context.CancelFunc
	pending     atomic.Int32
	replies     chan replReply // buffered for every backup, so a send never blocks
}

type replReply struct {
	resp any
	err  error
}

// replJob is one backup delivery handed to the parked sender pool
// (s.senders): a slow backup only ever ties up its own sender, and reused
// senders keep the stacks a whole inline backup dispatch grows warm.
type replJob struct {
	f    *fanout
	addr string
}

func (s *Server) runRepl(j replJob) {
	f := j.f
	resp, err := s.opt.Net.Call(f.ctx, j.addr, f.env)
	f.replies <- replReply{resp, err}
	if f.pending.Add(-1) == 0 {
		f.cancel()
	}
}
