// Package semel implements the replicated multi-version key-value store of
// §3: storage servers holding one shard replica each, a client library that
// timestamps every operation with precision time, lightweight primary/backup
// *inconsistent* replication (§3.2 — a write commits as soon as a majority
// of replicas hold it, in any order, because ordering is explicit in the
// version stamps), linearizable single-key RPC (§3.3 — stale writes are
// rejected, retransmissions are idempotent), and watermark-driven garbage
// collection (§3.1).
//
// Each Server embeds a milana.Manager so the same process also serves the
// transaction protocol of §4.
package semel

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/milana"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wal"
	"repro/internal/wire"
)

// ErrNotPrimary is returned when a client operation reaches a backup or a
// deposed primary.
var ErrNotPrimary = errors.New("semel: not the primary for this shard")

// ErrLeaseExpired is returned when a primary cannot prove it is still the
// unique reader-serving replica (§4.5 leases).
var ErrLeaseExpired = errors.New("semel: primary lease expired")

// replicationSendTimeout bounds background replication deliveries that
// continue after the synchronous f-ack wait has been satisfied.
const replicationSendTimeout = 30 * time.Second

// ServerOptions configures a Server.
type ServerOptions struct {
	// Addr is this replica's transport address.
	Addr string
	// Shard is the shard this replica belongs to.
	Shard cluster.ShardID
	// Primary marks the initial role.
	Primary bool
	// Backend is the replica's durable store.
	Backend storage.Backend
	// Net reaches the other replicas.
	Net transport.Client
	// Dir is the shard directory.
	Dir *cluster.Directory
	// Clock is the server's local clock (used for leases and recovery
	// waits, never for data versioning — versions are client-stamped).
	Clock clock.Clock
	// LeaseDuration is the read-lease length; 0 means 2 s. Negative
	// disables lease enforcement (useful for microbenchmarks).
	LeaseDuration time.Duration
	// PreparedTimeout is how long a transaction may stay prepared before
	// the backup coordinator terminates it; 0 means 5 s.
	PreparedTimeout time.Duration
	// AntiEntropyInterval is how often a backup pulls versions it may
	// have missed (a crashed or partitioned backup misses replicated
	// writes; inconsistent replication only guarantees f+1 copies).
	// 0 means 1 s; negative disables.
	AntiEntropyInterval time.Duration
	// Metrics is the server's observability registry. Nil means the
	// server creates its own, so StatsRequest{Detailed} always has data.
	Metrics *obs.Registry
	// TraceRing bounds the ring of spans retained for TraceRequest
	// stitching. 0 means 4096; negative disables span recording.
	TraceRing int
	// SlowRequestThreshold makes any RPC whose serve latency exceeds it
	// log one structured line including its trace ID, so traces and logs
	// cross-reference. 0 disables.
	SlowRequestThreshold time.Duration
	// SkewWindow is the timestamp-race margin within which a Late* abort
	// is attributed to clock skew rather than a true data conflict
	// (abort-provenance counters). 0 attributes every abort to conflict.
	// Use 2× the clock profile's Epsilon: a race involves two clocks.
	SkewWindow time.Duration
	// Auditor, when set, is the online audit pipeline this replica feeds
	// (every incoming prepare's commit timestamp is checked against the
	// commit-wait invariant) and serves (wire.AuditRequest). The auditor is
	// typically shared cluster-wide and owned by whoever created it — the
	// server does not close it.
	Auditor *audit.Auditor
	// CommitWait, when positive, makes the primary delay every prepare
	// until its local clock passes the transaction's commit timestamp plus
	// this bound (the profile's ε): server-side commit-wait in the
	// Spanner sense. The paper's protocol does not need it — validation
	// plus client-assigned timestamps already order transactions — so it
	// is off by default; it exists to measure what commit-wait would cost
	// at each precision profile (the stage ledger attributes it) and to
	// drive the watchdog's regression rules in tests. The wait is capped
	// at 4× the bound so a wildly early clock cannot wedge the server.
	CommitWait time.Duration
	// TSDB, when set, is the embedded time-series store this server
	// answers wire.TSDBRequest from (typically sampling the same registry
	// as Metrics). The server does not start, sample, or close it.
	TSDB *obs.TSDB
	// Log, when set, is the replica's write-ahead log: every state change
	// this server acknowledges (prepares, decisions, replicated data ops,
	// lease grants) is appended and fsynced to it first, and NewServer
	// replays checkpoint + log to rebuild state after a cold restart. The
	// caller owns the log's lifetime (open it on the replica's WAL
	// directory, close it after Close). Nil disables durability: a
	// restarted replica then recovers only what anti-entropy and the
	// recovery merge can pull from its peers.
	Log *wal.WAL
	// CheckpointEvery is how many WAL records may accumulate before the
	// server writes a checkpoint and lets the log GC old segments.
	// 0 means 1024; negative disables automatic checkpoints.
	CheckpointEvery int
	// Admission, when set, is this replica's load shedder: every request is
	// admitted (or shed with a RetryAfter pushback) before dispatch, with
	// strict priority — control traffic always, prepares under moderate
	// load, reads first to go. Nil disables admission control.
	Admission *resilience.Admission
}

// serverStats holds the replica's operation counters (see wire.StatsResponse).
type serverStats struct {
	gets, puts, deletes, prepares, commits, aborts, replOps atomic.Int64
}

// serverMetrics holds the replica's pre-created metric handles, so the
// request hot path touches only atomics — no registry lookups.
type serverMetrics struct {
	get, multiGet, put, delete, replData *obs.Histogram
	prepare, decision, status            *obs.Histogram
	replAck                              *obs.Histogram
	commitWait                           *obs.Histogram
	watermarkTs                          *obs.Gauge
	slowRequests                         *obs.Counter

	// time-health gauges, refreshed by timeHealthLoop and on demand by
	// TimeHealth (§2.1: transaction behaviour is a function of clock
	// precision, so the clock's sync state is first-class telemetry).
	clockOffset, clockDrift, clockUncertainty *obs.Gauge
	clockSinceSync, watermarkLag              *obs.Gauge
}

// Server is one shard replica.
type Server struct {
	opt   ServerOptions
	mgr   *milana.Manager
	wm    *clock.WatermarkTracker
	stats serverStats
	reg   *obs.Registry
	om    serverMetrics
	repl  *batcher
	spans *obs.SpanStore // nil when TraceRing < 0

	// WAL state (opt.Log != nil). walSinceCkpt counts records appended
	// since the last checkpoint; walCkptBusy admits one checkpoint writer
	// at a time; walSkipSync is the fsync-skipping durability mutation
	// (tests only). replayRecords/replayNs describe the cold-start replay.
	walSinceCkpt  atomic.Int64
	walCkptBusy   atomic.Bool
	walSkipSync   atomic.Bool
	replayRecords int64
	replayNs      int64

	// replJobs hands replication sends to parked sender goroutines. A
	// fresh goroutine starts on a 2 KiB stack, and one send drives the
	// whole backup dispatch inline on the in-process bus — deep enough to
	// pay several stack growths per operation. Reused senders keep their
	// grown stacks warm; see dispatchRepl.
	replJobs chan replJob

	mu          sync.Mutex
	primary     bool
	leaseUntil  clock.Timestamp // as primary: may serve reads until then
	granted     clock.Timestamp // as backup: lease granted to the primary
	stopRenewal chan struct{}
	wg          sync.WaitGroup
	closed      bool
}

// replJob is one backup delivery queued on the sender pool.
type replJob struct {
	ctx  context.Context
	addr string
	env  wire.Replicated
	acks chan<- error
	done *sync.WaitGroup
}

// dispatchRepl hands a send to an idle parked sender, or spawns a new one
// when all are busy — so a slow backup only ever ties up its own sender,
// never queues behind one.
func (s *Server) dispatchRepl(j replJob) {
	select {
	case s.replJobs <- j:
	default:
		go s.replSender(j)
	}
}

// replSenderIdle is how long a parked sender waits for more work before
// exiting; long enough to stay warm across steady traffic, short enough
// not to linger after shutdown.
const replSenderIdle = time.Second

func (s *Server) replSender(j replJob) {
	s.runRepl(j)
	t := time.NewTimer(replSenderIdle)
	defer t.Stop()
	for {
		select {
		case j := <-s.replJobs:
			s.runRepl(j)
			if !t.Stop() {
				<-t.C
			}
			t.Reset(replSenderIdle)
		case <-t.C:
			return
		}
	}
}

func (s *Server) runRepl(j replJob) {
	_, err := s.opt.Net.Call(j.ctx, j.addr, j.env)
	j.acks <- err
	j.done.Done()
}

// NewServer builds (but does not register) a replica server.
func NewServer(opt ServerOptions) (*Server, error) {
	if opt.Backend == nil || opt.Net == nil || opt.Dir == nil || opt.Clock == nil {
		return nil, fmt.Errorf("semel: incomplete server options")
	}
	if opt.LeaseDuration == 0 {
		opt.LeaseDuration = 2 * time.Second
	}
	if opt.PreparedTimeout == 0 {
		opt.PreparedTimeout = 5 * time.Second
	}
	if opt.AntiEntropyInterval == 0 {
		opt.AntiEntropyInterval = time.Second
	}
	if opt.Metrics == nil {
		opt.Metrics = obs.NewRegistry()
	}
	s := &Server{opt: opt, wm: clock.NewWatermarkTracker(), stopRenewal: make(chan struct{}), replJobs: make(chan replJob)}
	s.reg = opt.Metrics
	s.om = serverMetrics{
		get:         s.reg.Histogram(`semel_serve_ns{op="get"}`),
		multiGet:    s.reg.Histogram(`semel_serve_ns{op="multiget"}`),
		put:         s.reg.Histogram(`semel_serve_ns{op="put"}`),
		delete:      s.reg.Histogram(`semel_serve_ns{op="delete"}`),
		replData:    s.reg.Histogram(`semel_serve_ns{op="replicate-data"}`),
		prepare:     s.reg.Histogram(`semel_serve_ns{op="prepare"}`),
		decision:    s.reg.Histogram(`semel_serve_ns{op="decision"}`),
		status:      s.reg.Histogram(`semel_serve_ns{op="status"}`),
		replAck:     s.reg.Histogram("semel_replication_ack_ns"),
		commitWait:  s.reg.Histogram("semel_commit_wait_ns"),
		watermarkTs: s.reg.Gauge("semel_watermark_ticks"),

		slowRequests:     s.reg.Counter("semel_slow_requests_total"),
		clockOffset:      s.reg.Gauge("clock_offset_ns"),
		clockDrift:       s.reg.Gauge("clock_drift_since_sync_ns"),
		clockUncertainty: s.reg.Gauge("clock_uncertainty_ns"),
		clockSinceSync:   s.reg.Gauge("clock_since_sync_ns"),
		watermarkLag:     s.reg.Gauge("semel_watermark_lag_ns"),
	}
	if opt.TraceRing >= 0 {
		ring := opt.TraceRing
		if ring == 0 {
			ring = 4096
		}
		s.spans = obs.NewSpanStore(opt.Addr, ring)
	}
	s.mgr = milana.NewManager(s)
	s.mgr.SetMetrics(s.reg)
	s.mgr.SetSkewWindow(opt.SkewWindow)
	// Backends that can report device/GC metrics join the same registry.
	if ms, ok := opt.Backend.(interface{ SetMetrics(*obs.Registry) }); ok {
		ms.SetMetrics(s.reg)
	}
	s.repl = newBatcher(s, batchLimits{maxOps: batchMaxOps, maxBytes: batchMaxBytes, workers: batchWorkers})
	s.primary = opt.Primary
	if opt.Primary && opt.LeaseDuration > 0 {
		// A fresh primary may serve immediately; renewal keeps it alive.
		s.leaseUntil = opt.Clock.Now().Add(opt.LeaseDuration)
	}
	if opt.Log != nil {
		if err := s.recoverFromWAL(); err != nil {
			return nil, fmt.Errorf("semel: WAL recovery: %w", err)
		}
	}
	s.startLoops()
	return s, nil
}

// Addr returns the server's transport address.
func (s *Server) Addr() string { return s.opt.Addr }

// Manager exposes the transaction module (tests and recovery drivers).
func (s *Server) Manager() *milana.Manager { return s.mgr }

// Metrics returns the server's observability registry (never nil), for HTTP
// exposition or cross-layer wiring (transport bus, clock synchronizer).
func (s *Server) Metrics() *obs.Registry { return s.reg }

// IsPrimary reports the replica's current role.
func (s *Server) IsPrimary() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.primary
}

// Close stops background loops.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.stopRenewal)
	s.mu.Unlock()
	s.repl.close()
	s.wg.Wait()
}

// startLoops launches lease renewal, the prepared-transaction sweeper and
// anti-entropy.
func (s *Server) startLoops() {
	if s.opt.LeaseDuration > 0 {
		s.wg.Add(1)
		go s.renewalLoop()
	}
	s.wg.Add(1)
	go s.sweeperLoop()
	if s.opt.AntiEntropyInterval > 0 {
		s.wg.Add(1)
		go s.antiEntropyLoop()
	}
	s.wg.Add(1)
	go s.timeHealthLoop()
}

// antiEntropyLoop runs on backups: it periodically pulls the versions and
// transaction records it may have missed while down or partitioned.
// Inconsistent replication only waits for f of 2f backups, so a slow or
// crashed backup can permanently lack acknowledged writes; this loop
// restores the §3.2 assumption that a majority of replicas hold every
// acknowledged update *and* stragglers converge.
func (s *Server) antiEntropyLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.opt.AntiEntropyInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stopRenewal:
			return
		case <-t.C:
			if !s.IsPrimary() {
				s.antiEntropyOnce()
			}
		}
	}
}

// antiEntropyOnce pulls from the current primary everything above the local
// watermark and applies it idempotently. The watermark is the only safe low
// bound: no client ever issues a new operation below it (§3.1/§4.4), while
// a max-seen-version cursor could skip lower-timestamped writes that are
// still in flight under inconsistent replication.
func (s *Server) antiEntropyOnce() {
	primary, err := s.opt.Dir.Primary(s.opt.Shard)
	if err != nil || primary == s.opt.Addr {
		return
	}
	since := s.wm.Watermark()
	ctx, cancel := context.WithTimeout(context.Background(), s.opt.AntiEntropyInterval)
	defer cancel()
	resp, err := s.opt.Net.Call(ctx, primary, wire.RecoveryPullRequest{Since: since})
	if err != nil {
		return
	}
	pull, ok := resp.(wire.RecoveryPullResponse)
	if !ok {
		return
	}
	for _, op := range pull.Data {
		_ = s.applyDataOp(op)
	}
	// Only in-doubt (prepared) records matter here: committed data
	// already arrived through the version dump above, and replaying the
	// primary's entire decided-transaction history every tick would be
	// quadratic busywork.
	for _, rec := range pull.Txns {
		if rec.Status == wire.StatusPrepared {
			_ = s.mgr.HandleReplicatePrepare(rec)
		}
	}
}

func (s *Server) renewalLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.opt.LeaseDuration / 4)
	defer t.Stop()
	for {
		select {
		case <-s.stopRenewal:
			return
		case <-t.C:
			if s.IsPrimary() {
				s.renewLease()
			}
		}
	}
}

// renewLease obtains a fresh read lease from a majority of the replica
// group (§4.5). A deposed primary cannot renew: it is no longer in the
// directory's group, and backups only grant leases to the replica the
// directory names primary.
func (s *Server) renewLease() {
	rs, err := s.opt.Dir.Shard(s.opt.Shard)
	if err != nil || rs.Primary != s.opt.Addr {
		return // not the primary anymore; the lease runs out
	}
	need := rs.F() // majority of the original group, counting ourselves
	expiry := s.opt.Clock.Now().Add(s.opt.LeaseDuration)
	if need > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), s.opt.LeaseDuration/2)
		defer cancel()
		grants := make(chan bool, len(rs.Backups))
		for _, peer := range rs.Backups {
			go func(peer string) {
				resp, err := s.opt.Net.Call(ctx, peer, wire.LeaseRequest{Primary: s.opt.Addr, Expiry: expiry})
				lr, ok := resp.(wire.LeaseResponse)
				grants <- err == nil && ok && lr.Granted
			}(peer)
		}
		got := 0
		for range rs.Backups {
			if <-grants {
				got++
			}
			if got >= need {
				break
			}
		}
		if got < need {
			return // keep the old lease; reads stop when it runs out
		}
	}
	s.mu.Lock()
	if expiry.After(s.leaseUntil) {
		s.leaseUntil = expiry
	}
	s.mu.Unlock()
}

func (s *Server) sweeperLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.opt.PreparedTimeout / 2)
	defer t.Stop()
	for {
		select {
		case <-s.stopRenewal:
			return
		case <-t.C:
			if s.IsPrimary() {
				ctx, cancel := context.WithTimeout(context.Background(), s.opt.PreparedTimeout)
				s.mgr.SweepPrepared(ctx, s.opt.PreparedTimeout)
				cancel()
			}
		}
	}
}

// ---- milana.Host ----

// Backend returns the replica's durable store.
func (s *Server) Backend() storage.Backend { return s.opt.Backend }

// ShardID returns the shard this replica serves.
func (s *Server) ShardID() int { return int(s.opt.Shard) }

// CallPrimary reaches the current primary of another shard.
func (s *Server) CallPrimary(ctx context.Context, shard int, req any) (any, error) {
	addr, err := s.opt.Dir.Primary(cluster.ShardID(shard))
	if err != nil {
		return nil, err
	}
	return s.opt.Net.Call(ctx, addr, req)
}

// LogDecision writes a 2PC decision to the local WAL and waits for it to
// become durable. The manager calls it after applying the decision and
// before acknowledging it, from whichever path delivered it (client, CTP
// sweep, peer notification) — the apply-then-log order logRecord demands.
func (s *Server) LogDecision(id wire.TxnID, commit bool) error {
	return s.logRecord(wire.ReplicateDecision{ID: id, Commit: commit})
}

// ReplicateToBackups delivers msg to this shard's backups and returns once
// f of the 2f backups acknowledged — the relaxed majority rule of §3.2 and
// Figure 5. Remaining deliveries continue in the background.
func (s *Server) ReplicateToBackups(ctx context.Context, msg any) error {
	rs, err := s.opt.Dir.Shard(s.opt.Shard)
	if err != nil {
		return err
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
		return nil
	}
	// The sends are durability traffic and must outlive the caller: a
	// client that cancels its context right after its call returns would
	// otherwise silently kill the delivery to the remaining backups,
	// leaving them permanently short of acknowledged operations. Only the
	// *wait* below honours the caller's context. Identity and causality
	// cross the detach; the caller's ledger does not — it may be released
	// before the last backup answers.
	base := obs.ReqFrom(ctx).Detached()
	// The caller's propagated deadline caps the fan-out: once the
	// coordinator has given up on the write, backups should not keep
	// burning cycles on its replication (stragglers beyond the f+1 quorum
	// are repaired by anti-entropy either way).
	sendTimeout := replicationSendTimeout
	if dl, ok := ctx.Deadline(); ok {
		until := time.Until(dl)
		if until <= 0 {
			return transport.ErrDeadlineExceeded
		}
		if until < sendTimeout {
			sendTimeout = until
		}
	}
	sendCtx, cancelSends := context.WithTimeout(base, sendTimeout)
	env := wire.Replicated{Epoch: rs.Epoch, Msg: msg}
	ackStart := time.Now()
	acks := make(chan error, len(peers))
	var sends sync.WaitGroup
	for _, p := range peers {
		sends.Add(1)
		s.dispatchRepl(replJob{ctx: sendCtx, addr: p, env: env, acks: acks, done: &sends})
	}
	go func() {
		sends.Wait()
		cancelSends()
	}()
	got, failed := 0, 0
	for got < need {
		select {
		case err := <-acks:
			if err == nil {
				got++
			} else {
				failed++
				if failed > len(peers)-need {
					return fmt.Errorf("semel: replication quorum lost (%d/%d failed)", failed, len(peers))
				}
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	// Time-to-quorum is the replication lag a committing write experiences.
	// It is also the repl-ack stage of whichever transaction is blocked on
	// this call (prepare/decision replication runs in the caller's
	// goroutine, so the ledger rides ctx).
	waited := time.Since(ackStart)
	s.om.replAck.Observe(int64(waited))
	obs.AttributeStage(ctx, obs.StageReplAck, waited)
	return nil
}

// ---- durability (write-ahead log) ----

// logRecord makes one acknowledged state change durable: it encodes msg
// with the frozen wire codec, appends it to the WAL, and waits for the
// fsync (group commit batches concurrent callers into one). Call it AFTER
// the state change has been applied and BEFORE acknowledging the caller —
// that order keeps the checkpoint invariant (state gathered after reading
// DurableLSN is a superset of every durable record) and replay idempotent
// (version-stamped writes and the replication handlers tolerate replaying
// an operation the state already holds). A nil Log makes this a no-op.
func (s *Server) logRecord(msg any) error {
	if s.opt.Log == nil {
		return nil
	}
	payload, err := wire.Codec.Append(nil, msg)
	if err != nil {
		return fmt.Errorf("semel: encoding WAL record %T: %w", msg, err)
	}
	if s.walSkipSync.Load() {
		_, err = s.opt.Log.Append(payload) // mutation: ack without durability
	} else {
		_, err = s.opt.Log.AppendSync(payload)
	}
	if err != nil {
		return fmt.Errorf("semel: WAL append: %w", err)
	}
	if every := s.checkpointEvery(); every > 0 && s.walSinceCkpt.Add(1) >= int64(every) {
		s.triggerCheckpoint()
	}
	return nil
}

func (s *Server) checkpointEvery() int {
	switch {
	case s.opt.CheckpointEvery < 0:
		return 0
	case s.opt.CheckpointEvery == 0:
		return 1024
	default:
		return s.opt.CheckpointEvery
	}
}

// triggerCheckpoint starts one background checkpoint unless one is already
// running. The counter resets up front so a slow checkpoint is not
// re-triggered by every append that lands during it.
func (s *Server) triggerCheckpoint() {
	if !s.walCkptBusy.CompareAndSwap(false, true) {
		return
	}
	s.walSinceCkpt.Store(0)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer s.walCkptBusy.Store(false)
		if err := s.CheckpointWAL(); err != nil && !errors.Is(err, wal.ErrClosed) {
			log.Printf("semel: %s: checkpoint failed: %v", s.opt.Addr, err)
		}
	}()
}

// CheckpointWAL writes a checkpoint covering everything durable right now
// and lets the log GC the segments below it. The order is load-bearing:
// DurableLSN is read FIRST, state gathered after — since every record is
// applied to state before it is appended (see logRecord), state gathered
// now reflects at least every record at or below that LSN, so dropping
// those segments loses nothing.
func (s *Server) CheckpointWAL() error {
	if s.opt.Log == nil {
		return nil
	}
	durable := s.opt.Log.DurableLSN()
	ck := wire.WALCheckpoint{
		Watermark: s.wm.Watermark(),
		Txns:      s.mgr.TableRecords(),
	}
	if rs, err := s.opt.Dir.Shard(s.opt.Shard); err == nil {
		ck.Epoch = rs.Epoch
		ck.LeasePrimary = rs.Primary
	}
	s.mu.Lock()
	ck.LeaseExpiry = s.granted
	s.mu.Unlock()
	var err error
	if ck.Data, err = s.dumpData(clock.Timestamp{}); err != nil {
		return err
	}
	payload, err := wire.Codec.Append(nil, ck)
	if err != nil {
		return err
	}
	return s.opt.Log.InstallCheckpoint(durable, payload)
}

// recoverFromWAL rebuilds the replica from its log: decode and apply the
// checkpoint (full data image, transaction table, lease grant, watermark),
// then replay every record above it through the manager's replay handlers,
// which re-arm prepared key marks and re-apply committed write sets —
// state the live backup handlers leave alone because on a backup it is
// inert. Decisions terminated by CTP on a peer, or decided
// while this replica was dead, are NOT here — the sweeper and anti-entropy
// re-converge those. Finally the manager's read floor rises to the local
// clock's now: pre-crash reads (all at timestamps ≤ the crash instant)
// were tracked only in DRAM, so post-restart validations must assume every
// key was read as late as the restart.
func (s *Server) recoverFromWAL() error {
	start := time.Now()
	var records int64
	if _, payload, ok := s.opt.Log.Checkpoint(); ok {
		msg, err := wire.Codec.Decode(payload)
		if err != nil {
			return fmt.Errorf("decoding checkpoint: %w", err)
		}
		ck, okType := msg.(wire.WALCheckpoint)
		if !okType {
			return fmt.Errorf("checkpoint holds %T, want wire.WALCheckpoint", msg)
		}
		for _, op := range ck.Data {
			if err := s.applyDataOp(op); err != nil {
				return err
			}
		}
		for _, rec := range ck.Txns {
			s.mgr.InstallRecovered(rec)
		}
		s.granted = ck.LeaseExpiry
		if !ck.Watermark.IsZero() {
			// Seed the backend's GC floor directly; the tracker refills from
			// live client reports (a recovered report would pin the minimum).
			s.opt.Backend.SetWatermark(ck.Watermark)
		}
	}
	err := s.opt.Log.Replay(func(_ uint64, payload []byte) error {
		msg, err := wire.Codec.Decode(payload)
		if err != nil {
			return fmt.Errorf("decoding WAL record: %w", err)
		}
		records++
		switch r := msg.(type) {
		case wire.ReplicateData:
			for _, op := range r.Ops {
				if err := s.applyDataOp(op); err != nil {
					return err
				}
			}
		case wire.ReplicatePrepare:
			return s.mgr.ReplayPrepare(context.Background(), r.Record)
		case wire.ReplicateDecision:
			return s.mgr.ReplayDecision(context.Background(), r.ID, r.Commit)
		case wire.LeaseRequest:
			if r.Expiry.After(s.granted) {
				s.granted = r.Expiry
			}
		default:
			return fmt.Errorf("unexpected WAL record type %T", msg)
		}
		return nil
	})
	if err != nil {
		return err
	}
	s.replayRecords = records
	s.replayNs = int64(time.Since(start))
	s.mgr.SetRecoveryFloor(s.opt.Clock.Now())
	s.reg.Gauge("recovery_replay_records").Set(records)
	s.reg.Gauge("recovery_replay_ns").Set(s.replayNs)
	return nil
}

// applyDataOp writes one replicated version (or tombstone) to the backend.
func (s *Server) applyDataOp(op wire.DataOp) error {
	if op.Tombstone {
		return s.opt.Backend.Delete(op.Key, op.Version)
	}
	return s.opt.Backend.Put(op.Key, op.Val, op.Version)
}

// dumpData collects every version the backend holds above since, in the
// shape replication ships them.
func (s *Server) dumpData(since clock.Timestamp) ([]wire.DataOp, error) {
	var ops []wire.DataOp
	err := s.opt.Backend.Dump(since, func(key []byte, ver clock.Timestamp, val []byte, tombstone bool) error {
		ops = append(ops, wire.DataOp{Key: key, Val: val, Version: ver, Tombstone: tombstone})
		return nil
	})
	return ops, err
}

// MutateSkipWALFsync deliberately breaks the durability contract by
// acknowledging operations whose WAL records were appended but never
// fsynced — exactly the bug class the crash harness must convict (an
// amnesia-kill then loses acknowledged writes). Never set outside tests.
func (s *Server) MutateSkipWALFsync(skip bool) {
	s.walSkipSync.Store(skip)
}

// handleWALStatus reports the log's position and the last recovery replay.
func (s *Server) handleWALStatus() wire.WALStatusResponse {
	resp := wire.WALStatusResponse{
		Addr:          s.opt.Addr,
		ReplayRecords: s.replayRecords,
		ReplayNs:      s.replayNs,
	}
	if s.opt.Log == nil {
		return resp
	}
	st := s.opt.Log.Stats()
	resp.Enabled = true
	resp.AppendedLSN = st.AppendedLSN
	resp.DurableLSN = st.DurableLSN
	resp.CheckpointLSN = st.CheckpointLSN
	resp.Segments = st.Segments
	resp.Bytes = st.Bytes
	resp.Fsyncs = st.Fsyncs
	return resp
}

// ---- RPC dispatch ----

// serveHist maps a request to its pre-created service-latency histogram
// (nil for request types not worth timing individually).
func (s *Server) serveHist(req any) *obs.Histogram {
	switch req.(type) {
	case wire.GetRequest:
		return s.om.get
	case wire.MultiGetRequest:
		return s.om.multiGet
	case wire.PutRequest:
		return s.om.put
	case wire.DeleteRequest:
		return s.om.delete
	case wire.ReplicateData:
		return s.om.replData
	case wire.PrepareRequest:
		return s.om.prepare
	case wire.DecisionRequest:
		return s.om.decision
	case wire.StatusRequest:
		return s.om.status
	default:
		return nil
	}
}

// spanName maps a request to the operation name its span carries; "" means
// the request records no span (the Replicated envelope defers to its inner
// message, ReplicateData defers to its per-op contexts, and infrastructure
// traffic is not worth a span).
func spanName(req any) string {
	switch req.(type) {
	case wire.GetRequest:
		return "get"
	case wire.MultiGetRequest:
		return "multiget"
	case wire.PutRequest:
		return "put"
	case wire.DeleteRequest:
		return "delete"
	case wire.PrepareRequest:
		return "prepare"
	case wire.DecisionRequest:
		return "decision"
	case wire.StatusRequest:
		return "status"
	case wire.ReplicatePrepare:
		return "replicate-prepare"
	case wire.ReplicateDecision:
		return "replicate-decision"
	default:
		return ""
	}
}

// Serve handles one request; it implements transport.Handler. Timed request
// types feed semel_serve_ns{op=...}; the Replicated envelope recurses so the
// inner operation is the one measured. When the caller's context carries a
// sampled trace, the server records a span stamped with its *own* clock —
// skew and all; the collector aligns it later — and re-parents the context so
// downstream fan-out (replication) nests beneath this span. Requests slower
// than SlowRequestThreshold additionally log one line with their trace ID.
func (s *Server) Serve(ctx context.Context, req any) (any, error) {
	if a := s.opt.Admission; a != nil {
		// The Replicated envelope is just routing: admission applies to the
		// inner message once, on the recursive Serve, so one delivery never
		// holds two inflight slots.
		if _, isEnv := req.(wire.Replicated); !isEnv {
			if err := a.Admit(ctx, req); err != nil {
				return nil, err
			}
			defer a.Done()
		}
	}
	name := spanName(req)
	rec := obs.ReqFrom(ctx)
	tc, traced := rec.TraceContext, rec.Sampled
	record := traced && name != "" && s.spans != nil
	var spanID uint64
	var startTicks int64
	if record {
		// Re-parent: a child record — this server's span as the sender, the
		// same ledger — for everything downstream of this request.
		spanID = s.spans.NextID()
		rec.SpanID = spanID
		ctx = obs.WithReq(ctx, rec)
		startTicks = s.opt.Clock.Now().Ticks
	}
	start := time.Now()
	resp, err := s.dispatch(ctx, req)
	elapsed := time.Since(start)
	if h := s.serveHist(req); h != nil {
		// Traced requests stamp their latency bucket with the trace ID
		// (exemplar): a tail spike in `milctl stats` names a trace to pull,
		// and the slow-request log below prints the same ID.
		if traced {
			h.ObserveExemplar(int64(elapsed), tc.TraceID)
		} else {
			h.Observe(int64(elapsed))
		}
	}
	if record {
		outcome := ""
		if err != nil {
			outcome = err.Error()
		}
		s.spans.Add(obs.SpanRecord{
			TraceID: tc.TraceID, SpanID: spanID, Parent: tc.SpanID,
			Node: s.opt.Addr, Name: name,
			Start: startTicks, End: s.opt.Clock.Now().Ticks,
			Outcome: outcome,
		})
	}
	if thr := s.opt.SlowRequestThreshold; thr > 0 && elapsed >= thr && name != "" {
		s.om.slowRequests.Inc()
		log.Printf("semel: slow-request node=%s op=%s trace=%016x span=%016x dur=%s err=%v",
			s.opt.Addr, name, tc.TraceID, spanID, elapsed, err)
	}
	return resp, err
}

func (s *Server) dispatch(ctx context.Context, req any) (any, error) {
	switch r := req.(type) {
	case wire.Replicated:
		// Fence replication from a deposed regime (§4.5 in spirit): a
		// late delivery sent before a failover must not retroactively
		// change state the new primary has already served reads and
		// validations from. The operation itself is preserved by the
		// recovery merge / anti-entropy, which run under the new epoch.
		if rs, err := s.opt.Dir.Shard(s.opt.Shard); err == nil && r.Epoch < rs.Epoch {
			return nil, fmt.Errorf("semel: stale replication epoch %d < %d", r.Epoch, rs.Epoch)
		}
		return s.Serve(ctx, r.Msg)
	case wire.GetRequest:
		s.stats.gets.Add(1)
		return s.handleGet(ctx, r)
	case wire.MultiGetRequest:
		s.stats.gets.Add(int64(len(r.Keys)))
		return s.handleMultiGet(ctx, r)
	case wire.PutRequest:
		s.stats.puts.Add(1)
		return s.handlePut(ctx, r)
	case wire.DeleteRequest:
		s.stats.deletes.Add(1)
		return s.handleDelete(ctx, r)
	case wire.ReplicateData:
		s.stats.replOps.Add(int64(len(r.Ops)))
		return s.handleReplicateData(r)
	case wire.WatermarkBroadcast:
		return s.handleWatermark(r)
	case wire.PrepareRequest:
		if !s.IsPrimary() {
			return nil, ErrNotPrimary
		}
		// Feed the commit-wait monitor at the earliest observable instant:
		// request receipt, stamped with this replica's own clock.
		s.opt.Auditor.ObservePrepare(r.ID, r.CommitTs, s.opt.Clock.Now())
		s.stats.prepares.Add(1)
		if cw := s.opt.CommitWait; cw > 0 {
			// Opt-in server-side commit-wait: hold the prepare until this
			// replica's clock clears CommitTs+ε, so the wait's true cost at
			// the configured precision shows up as its own ledger stage.
			waited := clock.WaitUntil(ctx, s.opt.Clock, r.CommitTs.Add(cw), 4*cw)
			s.om.commitWait.Observe(int64(waited))
			obs.AttributeStage(ctx, obs.StageCommitWait, waited)
		}
		resp, err := s.mgr.Prepare(ctx, r)
		if err == nil && !resp.OK {
			s.stats.aborts.Add(1)
		}
		if err == nil && resp.OK {
			// The prepared record must survive this process, not just this
			// primary: log it before the vote leaves (same record the
			// backups store, so replay rides HandleReplicatePrepare).
			rec := wire.TxnRecord{
				ID: r.ID, CommitTs: r.CommitTs, WriteSet: r.WriteSet,
				Participants: r.Participants, Status: wire.StatusPrepared,
			}
			if lerr := s.logRecord(wire.ReplicatePrepare{Record: rec}); lerr != nil {
				return nil, lerr
			}
		}
		return resp, err
	case wire.DecisionRequest:
		if r.Commit {
			s.stats.commits.Add(1)
		} else {
			s.stats.aborts.Add(1)
		}
		// Durability rides inside the manager: applyDecision logs through
		// LogDecision before returning, whichever path the decision
		// arrives by.
		return s.mgr.Decision(ctx, r)
	case wire.StatusRequest:
		// Only a serving primary may answer CTP status queries: a
		// freshly designated primary that has not finished its recovery
		// merge would answer Unknown for transactions it personally
		// missed, and CTP rule 2 would then abort a transaction another
		// shard already committed.
		if !s.IsPrimary() {
			return nil, ErrNotPrimary
		}
		return wire.StatusResponse{Status: s.mgr.Status(r.ID)}, nil
	case wire.ReplicatePrepare:
		if err := s.mgr.HandleReplicatePrepare(r.Record); err != nil {
			return nil, err
		}
		if err := s.logRecord(r); err != nil {
			return nil, err
		}
		return wire.Ack{}, nil
	case wire.ReplicateDecision:
		if err := s.mgr.HandleReplicateDecision(r.ID, r.Commit); err != nil {
			return nil, err
		}
		if err := s.logRecord(r); err != nil {
			return nil, err
		}
		return wire.Ack{}, nil
	case wire.LeaseRequest:
		return s.handleLease(r)
	case wire.WALStatusRequest:
		return s.handleWALStatus(), nil
	case wire.StatsRequest:
		resp := wire.StatsResponse{
			Addr:      s.opt.Addr,
			Shard:     int(s.opt.Shard),
			Primary:   s.IsPrimary(),
			Gets:      s.stats.gets.Load(),
			Puts:      s.stats.puts.Load(),
			Deletes:   s.stats.deletes.Load(),
			Prepares:  s.stats.prepares.Load(),
			Commits:   s.stats.commits.Load(),
			Aborts:    s.stats.aborts.Load(),
			ReplOps:   s.stats.replOps.Load(),
			Watermark: s.wm.Watermark(),
		}
		if r.Detailed {
			resp.Obs = s.reg.Snapshot()
		}
		return resp, nil
	case wire.TraceRequest:
		return wire.TraceResponse{
			Addr:  s.opt.Addr,
			Spans: s.spans.ForTrace(r.TraceID),
			Clock: s.clockHealth(),
		}, nil
	case wire.TimeHealthRequest:
		return s.TimeHealth(), nil
	case wire.TSDBRequest:
		if s.opt.TSDB == nil {
			return wire.TSDBResponse{Addr: s.opt.Addr}, nil
		}
		return wire.TSDBResponse{
			Addr:       s.opt.Addr,
			IntervalNs: int64(s.opt.TSDB.Interval()),
			Series:     s.opt.TSDB.Query(r.Patterns, r.LastN),
		}, nil
	case wire.AuditRequest:
		return s.handleAudit(), nil
	case wire.RecoveryPullRequest:
		return s.handleRecoveryPull(r)
	case wire.PromoteRequest:
		if err := s.Promote(ctx); err != nil {
			return nil, err
		}
		return wire.PromoteResponse{}, nil
	default:
		return nil, fmt.Errorf("semel: unknown request type %T", req)
	}
}

var _ transport.Handler = (*Server)(nil)

// Spans exposes the server's span ring (trace collection and tests).
func (s *Server) Spans() *obs.SpanStore { return s.spans }

// Watermark reports the replica's current replication watermark (the
// auditor's truncation source and the audit/timehealth reports read it).
func (s *Server) Watermark() clock.Timestamp { return s.wm.Watermark() }

// handleAudit reports the attached auditor's state; with no auditor the
// response reads Enabled=false.
func (s *Server) handleAudit() wire.AuditResponse {
	sum := s.opt.Auditor.Stats()
	return wire.AuditResponse{
		Addr:              s.opt.Addr,
		Enabled:           sum.Enabled,
		Profile:           sum.Profile,
		Pending:           sum.Pending,
		UnknownRetained:   sum.UnknownRetained,
		WindowsChecked:    sum.WindowsChecked,
		WindowsSkipped:    sum.WindowsSkipped,
		Convictions:       sum.Convictions,
		EpsilonViolations: sum.EpsilonViolations,
		LastCut:           sum.LastCut,
		Artifacts:         s.opt.Auditor.ArtifactsJSON(),
	}
}

// clockHealth reports the local clock's sync state; clocks that cannot
// report (no HealthReporter) read as perfectly synchronized.
func (s *Server) clockHealth() clock.Health {
	if hr, ok := s.opt.Clock.(clock.HealthReporter); ok {
		return hr.Health()
	}
	return clock.Health{}
}

// TimeHealth builds this node's time-health report and refreshes the
// corresponding gauges, so /metrics and /debug/timehealth agree.
func (s *Server) TimeHealth() wire.TimeHealthResponse {
	h := s.clockHealth()
	now := s.opt.Clock.Now()
	wm := s.wm.Watermark()
	resp := wire.TimeHealthResponse{
		Addr:      s.opt.Addr,
		Shard:     int(s.opt.Shard),
		Primary:   s.IsPrimary(),
		Clock:     h,
		Now:       now,
		Watermark: wm,
	}
	if !wm.IsZero() {
		resp.WatermarkLagNs = now.Ticks - wm.Ticks
	}
	s.om.clockOffset.Set(h.OffsetNs)
	s.om.clockDrift.Set(h.DriftNs)
	s.om.clockUncertainty.Set(h.UncertaintyNs)
	s.om.clockSinceSync.Set(h.SinceSyncNs)
	s.om.watermarkLag.Set(resp.WatermarkLagNs)
	return resp
}

// timeHealthLoop keeps the time-health gauges fresh for /metrics scrapes.
func (s *Server) timeHealthLoop() {
	defer s.wg.Done()
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-s.stopRenewal:
			return
		case <-t.C:
			s.TimeHealth()
		}
	}
}

// checkPrimaryLease verifies this replica may serve reads.
func (s *Server) checkPrimaryLease() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.primary {
		return ErrNotPrimary
	}
	if s.opt.LeaseDuration > 0 && s.opt.Clock.Now().After(s.leaseUntil) {
		return ErrLeaseExpired
	}
	return nil
}

// handleGet serves a snapshot read at r.At and piggybacks the prepared bit
// (§4.3). Reads execute only on a lease-holding primary (§3.3, §4.5) —
// unless the client opted into nearest-replica reads (§4.6), in which case
// any replica answers from its backend, possibly slightly stale, and the
// transaction must validate at the primary.
func (s *Server) handleGet(ctx context.Context, r wire.GetRequest) (wire.GetResponse, error) {
	if err := s.checkPrimaryLease(); err != nil {
		if !r.AnyReplica {
			return wire.GetResponse{}, err
		}
		readStart := time.Now()
		val, ver, found, gerr := s.opt.Backend.Get(r.Key, r.At)
		obs.AttributeStage(ctx, obs.StageFlashRead, time.Since(readStart))
		if errors.Is(gerr, storage.ErrSnapshotUnavailable) {
			return wire.GetResponse{SnapshotMiss: true}, nil
		}
		if gerr != nil {
			return wire.GetResponse{}, gerr
		}
		return wire.GetResponse{Val: val, Version: ver, Found: found}, nil
	}
	prepared := s.mgr.OnGet(r.Key, r.At)
	readStart := time.Now()
	val, ver, found, err := s.opt.Backend.Get(r.Key, r.At)
	obs.AttributeStage(ctx, obs.StageFlashRead, time.Since(readStart))
	if errors.Is(err, storage.ErrSnapshotUnavailable) {
		return wire.GetResponse{SnapshotMiss: true}, nil
	}
	if err != nil {
		return wire.GetResponse{}, err
	}
	return wire.GetResponse{Val: val, Version: ver, Found: found, PreparedAtOrBefore: prepared}, nil
}

// handleMultiGet fans a snapshot read out across its keys concurrently, so
// independent keys exercise the flash emulator's channels in parallel
// instead of convoying behind one another's page reads. A single key is read
// inline: there is nothing to overlap.
func (s *Server) handleMultiGet(ctx context.Context, r wire.MultiGetRequest) (wire.MultiGetResponse, error) {
	resp := wire.MultiGetResponse{Items: make([]wire.GetResponse, len(r.Keys))}
	if len(r.Keys) <= 1 {
		for i, key := range r.Keys {
			item, err := s.handleGet(ctx, wire.GetRequest{Key: key, At: r.At, AnyReplica: r.AnyReplica})
			if err != nil {
				return wire.MultiGetResponse{}, err
			}
			resp.Items[i] = item
		}
		return resp, nil
	}
	errs := make([]error, len(r.Keys))
	var wg sync.WaitGroup
	// The per-key reads overlap, so charging each one to the ledger would
	// attribute more than the wall time spent; charge the fan-out's wall
	// time instead and keep the workers off the ledger.
	readStart := time.Now()
	for i, key := range r.Keys {
		wg.Add(1)
		go func(i int, key []byte) {
			defer wg.Done()
			resp.Items[i], errs[i] = s.handleGet(context.Background(), wire.GetRequest{Key: key, At: r.At, AnyReplica: r.AnyReplica})
		}(i, key)
	}
	wg.Wait()
	obs.AttributeStage(ctx, obs.StageFlashRead, time.Since(readStart))
	for _, err := range errs {
		if err != nil {
			return wire.MultiGetResponse{}, err
		}
	}
	return resp, nil
}

// handlePut is the linearizable single-key write of §3.3: writes with
// timestamps at or below the current version are rejected (at-most-once),
// except that an exact duplicate of the current version is acknowledged as
// the repeat of our earlier response (idempotence).
func (s *Server) handlePut(ctx context.Context, r wire.PutRequest) (wire.PutResponse, error) {
	return s.writeVersion(ctx, r.Key, r.Val, r.Version, false)
}

func (s *Server) handleDelete(ctx context.Context, r wire.DeleteRequest) (wire.DeleteResponse, error) {
	resp, err := s.writeVersion(ctx, r.Key, nil, r.Version, true)
	return wire.DeleteResponse{Rejected: resp.Rejected}, err
}

func (s *Server) writeVersion(ctx context.Context, key, val []byte, ver clock.Timestamp, tombstone bool) (wire.PutResponse, error) {
	if !s.IsPrimary() {
		return wire.PutResponse{}, ErrNotPrimary
	}
	latest := s.mgr.LatestCommitted(key)
	if ver == latest {
		return wire.PutResponse{}, nil // retransmission of the accepted write
	}
	if ver.Before(latest) {
		return wire.PutResponse{Rejected: true}, nil
	}
	op := wire.DataOp{Key: key, Val: val, Version: ver, Tombstone: tombstone}
	programStart := time.Now()
	err := s.applyDataOp(op)
	obs.AttributeStage(ctx, obs.StageFlashProgram, time.Since(programStart))
	if err != nil {
		return wire.PutResponse{}, err
	}
	// The write is applied; make it durable before replicating or
	// acknowledging. Logged in the same shape the backups see, so replay
	// shares one code path with replicated data.
	if err := s.logRecord(wire.ReplicateData{Ops: []wire.DataOp{op}}); err != nil {
		return wire.PutResponse{}, err
	}
	// Stamp the op with this request's trace context (the ctx already
	// carries the put/delete span as parent): the batcher coalesces ops from
	// many writers, so causality must ride per op, not per envelope.
	if tc := obs.ReqFrom(ctx).TraceContext; tc.Sampled {
		op.TC = tc
	}
	// Enqueue and wait for this op's own quorum. The batcher coalesces
	// concurrent writes into one ReplicateData envelope per flush (group
	// commit), amortizing the RPC fan-out.
	if err := s.repl.replicate(ctx, op); err != nil {
		return wire.PutResponse{}, err
	}
	s.mgr.OnCommittedWrite(key, ver)
	return wire.PutResponse{}, nil
}

// handleReplicateData applies replicated writes on a backup — in any order,
// because ordering is explicit in the version stamps (§3.2). Batches apply
// concurrently across keys (the backends stripe their metadata locks, so
// distinct keys really do proceed in parallel and exercise independent flash
// channels) and answer with a per-op BatchAck so the primary's batcher can
// demultiplex quorums: one rejected op must not fail its batchmates. A
// one-op batch applies inline, with no goroutine.
func (s *Server) handleReplicateData(r wire.ReplicateData) (any, error) {
	errs := make([]string, len(r.Ops))
	apply := func(i int) {
		op := r.Ops[i]
		var startTicks int64
		record := op.TC.Sampled && s.spans != nil
		if record {
			startTicks = s.opt.Clock.Now().Ticks
		}
		if err := s.applyDataOp(op); err != nil {
			errs[i] = err.Error()
		}
		if record {
			// One span per sampled op: a batch interleaves many writers'
			// traffic, and each writer's trace sees only its own op.
			s.spans.Add(obs.SpanRecord{
				TraceID: op.TC.TraceID, SpanID: s.spans.NextID(), Parent: op.TC.SpanID,
				Node: s.opt.Addr, Name: "replicate-op",
				Start: startTicks, End: s.opt.Clock.Now().Ticks,
				Outcome: errs[i],
			})
		}
	}
	if len(r.Ops) == 1 {
		apply(0)
	} else {
		var wg sync.WaitGroup
		for i := range r.Ops {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				apply(i)
			}(i)
		}
		wg.Wait()
	}
	nerr, first := 0, ""
	for _, e := range errs {
		if e != "" {
			nerr++
			if first == "" {
				first = e
			}
		}
	}
	switch {
	case nerr == 0:
		if err := s.logRecord(r); err != nil {
			return nil, err
		}
		return wire.BatchAck{}, nil
	case nerr == len(r.Ops):
		// Nothing applied: a call-level error fails this peer as a whole.
		return nil, errors.New(first)
	default:
		// Log only the ops this replica actually holds; replaying a write
		// the backend rejected would resurrect it from the dead.
		applied := wire.ReplicateData{Ops: make([]wire.DataOp, 0, len(r.Ops))}
		for i, op := range r.Ops {
			if errs[i] == "" {
				applied.Ops = append(applied.Ops, op)
			}
		}
		if err := s.logRecord(applied); err != nil {
			return nil, err
		}
		return wire.BatchAck{Errs: errs}, nil
	}
}

// handleWatermark folds a client's decided-timestamp report into the local
// watermark and passes it to the backend's garbage collector (§3.1, §4.4).
func (s *Server) handleWatermark(r wire.WatermarkBroadcast) (wire.Ack, error) {
	s.wm.Report(r.Client, r.Ts)
	if w := s.wm.Watermark(); !w.IsZero() {
		s.opt.Backend.SetWatermark(w)
		s.om.watermarkTs.SetMax(w.Ticks)
	}
	return wire.Ack{}, nil
}

// handleLease grants a read lease (backup side) — but only to the replica
// the directory currently names primary, so a deposed primary partitioned
// away from its group can never extend its lease.
func (s *Server) handleLease(r wire.LeaseRequest) (wire.LeaseResponse, error) {
	cur, err := s.opt.Dir.Primary(s.opt.Shard)
	if err != nil || cur != r.Primary {
		return wire.LeaseResponse{Granted: false}, nil
	}
	s.mu.Lock()
	if s.primary {
		s.mu.Unlock()
		return wire.LeaseResponse{Granted: false}, nil
	}
	if r.Expiry.After(s.granted) {
		s.granted = r.Expiry
	}
	s.mu.Unlock()
	// A lease grant is a promise about wall-clock time and must outlive the
	// process: a restarted backup that forgot it could grant a second,
	// overlapping lease to a different primary.
	if err := s.logRecord(r); err != nil {
		return wire.LeaseResponse{}, err
	}
	return wire.LeaseResponse{Granted: true}, nil
}

// handleRecoveryPull returns everything a new primary needs: this replica's
// transaction records, its data versions above the watermark, and the last
// lease it granted.
func (s *Server) handleRecoveryPull(r wire.RecoveryPullRequest) (wire.RecoveryPullResponse, error) {
	resp := wire.RecoveryPullResponse{Txns: s.mgr.TableRecords()}
	s.mu.Lock()
	resp.LeaseExpiry = s.granted
	s.mu.Unlock()
	var err error
	if resp.Data, err = s.dumpData(r.Since); err != nil {
		return wire.RecoveryPullResponse{}, err
	}
	return resp, nil
}

// Promote turns this backup into the shard's primary: pull state from the
// surviving replicas, merge data versions (their order is reconstructed
// from version stamps), merge transaction tables (Algorithm 2), wait out
// the old primary's read lease, and start serving. The directory must
// already name this server as the new primary.
func (s *Server) Promote(ctx context.Context) error {
	if cur, err := s.opt.Dir.Primary(s.opt.Shard); err != nil || cur != s.opt.Addr {
		return fmt.Errorf("semel: directory does not name %s primary (have %s, %v)", s.opt.Addr, cur, err)
	}
	rs, err := s.opt.Dir.Shard(s.opt.Shard)
	if err != nil {
		return err
	}
	since := s.wm.Watermark()
	var pulledTxns [][]wire.TxnRecord
	maxLease := clock.Timestamp{}
	s.mu.Lock()
	if s.granted.After(maxLease) {
		maxLease = s.granted
	}
	s.mu.Unlock()
	reached := 0
	for _, peer := range rs.Backups {
		if peer == s.opt.Addr {
			continue
		}
		resp, err := s.opt.Net.Call(ctx, peer, wire.RecoveryPullRequest{Since: since})
		if err != nil {
			continue // peer down; a majority may still be reachable
		}
		pull, ok := resp.(wire.RecoveryPullResponse)
		if !ok {
			continue
		}
		reached++
		for _, op := range pull.Data {
			_ = s.applyDataOp(op)
		}
		pulledTxns = append(pulledTxns, pull.Txns)
		if pull.LeaseExpiry.After(maxLease) {
			maxLease = pull.LeaseExpiry
		}
	}
	// A new primary needs f+1 replicas (including itself) to guarantee it
	// sees every acknowledged operation (§4.5).
	if reached+1 < rs.F()+1 {
		return fmt.Errorf("semel: only %d replicas reachable, need %d", reached+1, rs.F()+1)
	}
	if err := s.mgr.MergeRecovered(ctx, pulledTxns); err != nil {
		return err
	}
	// Wait for the local clock to pass the old primary's lease so no
	// stale read can be contradicted (§4.5).
	for s.opt.LeaseDuration > 0 && !s.opt.Clock.Now().After(maxLease) {
		wait := maxLease.Sub(s.opt.Clock.Now())
		if wait <= 0 {
			break
		}
		if wait > 50*time.Millisecond {
			wait = 50 * time.Millisecond
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(wait):
		}
	}
	s.mu.Lock()
	s.primary = true
	if s.opt.LeaseDuration > 0 {
		s.leaseUntil = s.opt.Clock.Now().Add(s.opt.LeaseDuration)
	}
	s.mu.Unlock()
	return nil
}
