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
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/milana"
	"repro/internal/obs"
	"repro/internal/park"
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
// request hot path touches only atomics — no registry lookups. The
// per-request-type service histograms live in the route table.
type serverMetrics struct {
	replAck      *obs.Histogram
	commitWait   *obs.Histogram
	watermarkTs  *obs.Gauge
	slowRequests *obs.Counter

	// time-health gauges (§2.1: transaction behaviour is a function of
	// clock precision, so the clock's sync state is first-class telemetry).
	clockOffset, clockDrift, clockUncertainty *obs.Gauge
	clockSinceSync, watermarkLag              *obs.Gauge
}

// traceRing bounds the ring of spans each server retains for TraceRequest
// stitching.
const traceRing = 4096

// Server is one shard replica.
type Server struct {
	opt    ServerOptions
	mgr    *milana.Manager
	wm     *clock.WatermarkTracker
	stats  serverStats
	reg    *obs.Registry
	om     serverMetrics
	routes routes
	repl   *batcher
	spans  *obs.SpanStore

	// WAL state (opt.Log != nil). walSinceCkpt counts records appended
	// since the last checkpoint; walCkptBusy admits one checkpoint writer
	// at a time; walSkipSync is the fsync-skipping durability mutation
	// (tests only). replayRecords/replayNs describe the cold-start replay.
	walSinceCkpt  atomic.Int64
	walCkptBusy   atomic.Bool
	walSkipSync   atomic.Bool
	replayRecords int64
	replayNs      int64

	// senders runs replication sends on parked goroutines (see replJob).
	senders *park.Pool[replJob]

	// regime is held shared by everything that applies state from the
	// primary — replicated deliveries and anti-entropy rounds' apply steps,
	// never a network wait — and taken exclusively by regimeBarrier.
	regime sync.RWMutex

	mu         sync.Mutex
	primary    bool
	leaseUntil clock.Timestamp // as primary: may serve reads until then
	granted    clock.Timestamp // as backup: lease granted to the primary
	stop       chan struct{}   // closed by Close: loops exit
	wg         sync.WaitGroup
	closed     bool
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
	if opt.CheckpointEvery == 0 {
		opt.CheckpointEvery = 1024
	}
	if opt.Metrics == nil {
		opt.Metrics = obs.NewRegistry()
	}
	s := &Server{opt: opt, wm: clock.NewWatermarkTracker(), stop: make(chan struct{})}
	s.senders = park.New(s.runRepl)
	s.reg = opt.Metrics
	s.om = serverMetrics{
		replAck:      s.reg.Histogram("semel_replication_ack_ns"),
		commitWait:   s.reg.Histogram("semel_commit_wait_ns"),
		watermarkTs:  s.reg.Gauge("semel_watermark_ticks"),
		slowRequests: s.reg.Counter("semel_slow_requests_total"),

		clockOffset:      s.reg.Gauge("clock_offset_ns"),
		clockDrift:       s.reg.Gauge("clock_drift_since_sync_ns"),
		clockUncertainty: s.reg.Gauge("clock_uncertainty_ns"),
		clockSinceSync:   s.reg.Gauge("clock_since_sync_ns"),
		watermarkLag:     s.reg.Gauge("semel_watermark_lag_ns"),
	}
	s.routes = newRoutes(s)
	s.spans = obs.NewSpanStore(opt.Addr, traceRing)
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
	if opt.Primary {
		s.mgr.ArmPrepared()
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

// Close stops background loops and parked replication senders.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.stop)
	s.mu.Unlock()
	s.senders.Close()
	s.repl.close()
	s.wg.Wait()
}

// ---- milana.Host (Persist is in batcher.go) ----

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

// ---- request routing ----

// route is everything Serve needs to know about one request type.
type route struct {
	name  string              // span and slow-request name; "" records neither
	hist  *obs.Histogram      // semel_serve_ns{op=...}; nil leaves the type untimed
	stat  *atomic.Int64       // counts each request; nil where the handler counts
	pri   resilience.Priority // admission class; the zero value is control
	serve func(context.Context, any) (any, error)
}

// routes holds one route per request type Serve answers.
type routes struct {
	replicated, get, multiGet, put, delete, replData, watermark, prepare, decision, status,
	replPrepare, replDecision, lease, walStatus, stats, trace, timeHealth, tsdb, audit,
	recoveryPull, promote route
}

// newRoutes builds s's route table. Replication and infrastructure rows are
// unspanned, untimed and never shed. The Replicated envelope is pure routing
// (the recursive Serve admits, times and spans its inner message);
// ReplicateData spans each sampled op (handleReplicateData).
func newRoutes(s *Server) routes {
	hist := func(op string) *obs.Histogram { return s.reg.Histogram(`semel_serve_ns{op="` + op + `"}`) }
	read, prepare := resilience.PriRead, resilience.PriPrepare
	return routes{
		replicated:   route{serve: handler(s.handleReplicated)},
		get:          route{name: "get", hist: hist("get"), stat: &s.stats.gets, pri: read, serve: handler(s.handleGet)},
		multiGet:     route{name: "multiget", hist: hist("multiget"), pri: read, serve: handler(s.handleMultiGet)},
		put:          route{name: "put", hist: hist("put"), stat: &s.stats.puts, pri: read, serve: handler(s.handlePut)},
		delete:       route{name: "delete", hist: hist("delete"), stat: &s.stats.deletes, pri: read, serve: handler(s.handleDelete)},
		replData:     route{hist: hist("replicate-data"), serve: handler(s.handleReplicateData)},
		watermark:    route{serve: handler(s.handleWatermark)},
		prepare:      route{name: "prepare", hist: hist("prepare"), pri: prepare, serve: handler(s.handlePrepare)},
		decision:     route{name: "decision", hist: hist("decision"), serve: handler(s.handleDecision)},
		status:       route{name: "status", hist: hist("status"), serve: handler(s.handleStatus)},
		replPrepare:  route{name: "replicate-prepare", serve: handler(s.handleReplicatePrepare)},
		replDecision: route{name: "replicate-decision", serve: handler(s.handleReplicateDecision)},
		lease:        route{serve: handler(s.handleLease)},
		walStatus:    route{serve: handler(s.handleWALStatus)},
		stats:        route{serve: handler(s.handleStats)},
		trace:        route{serve: handler(s.handleTrace)},
		timeHealth:   route{serve: handler(s.handleTimeHealth)},
		tsdb:         route{serve: handler(s.handleTSDB)},
		audit:        route{serve: handler(s.handleAudit)},
		recoveryPull: route{serve: handler(s.handleRecoveryPull)},
		promote:      route{serve: handler(s.handlePromote)},
	}
}

// routeNames is a server-less copy of the table for semel.Client's spans.
var routeNames = newRoutes(&Server{})

// of is the package's one type switch over request types: it returns req's
// route, or nil for a type Serve does not answer.
func (t *routes) of(req any) *route {
	switch req.(type) {
	case wire.Replicated:
		return &t.replicated
	case wire.GetRequest:
		return &t.get
	case wire.MultiGetRequest:
		return &t.multiGet
	case wire.PutRequest:
		return &t.put
	case wire.DeleteRequest:
		return &t.delete
	case wire.ReplicateData:
		return &t.replData
	case wire.WatermarkBroadcast:
		return &t.watermark
	case wire.PrepareRequest:
		return &t.prepare
	case wire.DecisionRequest:
		return &t.decision
	case wire.StatusRequest:
		return &t.status
	case wire.ReplicatePrepare:
		return &t.replPrepare
	case wire.ReplicateDecision:
		return &t.replDecision
	case wire.LeaseRequest:
		return &t.lease
	case wire.WALStatusRequest:
		return &t.walStatus
	case wire.StatsRequest:
		return &t.stats
	case wire.TraceRequest:
		return &t.trace
	case wire.TimeHealthRequest:
		return &t.timeHealth
	case wire.TSDBRequest:
		return &t.tsdb
	case wire.AuditRequest:
		return &t.audit
	case wire.RecoveryPullRequest:
		return &t.recoveryPull
	case wire.PromoteRequest:
		return &t.promote
	default:
		return nil
	}
}

// handler adapts a typed handler to a route; routes.of has already matched
// the request's type.
func handler[Req, Resp any](f func(context.Context, Req) (Resp, error)) func(context.Context, any) (any, error) {
	return func(ctx context.Context, req any) (any, error) { return f(ctx, req.(Req)) }
}

// Serve handles one request; it implements transport.Handler. The route
// decides admission, counting, timing and the span. When the caller's
// context carries a sampled trace, the server records a span stamped with
// its *own* clock — skew and all; the collector aligns it later — and
// re-parents the context so downstream fan-out (replication) nests beneath
// this span. Requests slower than SlowRequestThreshold additionally log one
// line with their trace ID.
func (s *Server) Serve(ctx context.Context, req any) (any, error) {
	rt := s.routes.of(req)
	if rt == nil {
		return nil, fmt.Errorf("semel: unknown request type %T", req)
	}
	// The Replicated envelope is just routing: admission applies to the
	// inner message once, on the recursive Serve, so one delivery never
	// holds two inflight slots.
	if a := s.opt.Admission; a != nil && rt != &s.routes.replicated {
		if err := a.Admit(ctx, rt.pri); err != nil {
			return nil, err
		}
		defer a.Done()
	}
	if rt.stat != nil {
		rt.stat.Add(1)
	}
	rec := obs.ReqFrom(ctx)
	tc, traced := rec.TraceContext, rec.Sampled
	record := traced && rt.name != ""
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
	resp, err := rt.serve(ctx, req)
	elapsed := time.Since(start)
	if rt.hist != nil {
		// Traced requests stamp their latency bucket with the trace ID
		// (exemplar): a tail spike in `milctl stats` names a trace to pull,
		// and the slow-request log below prints the same ID.
		if traced {
			rt.hist.ObserveExemplar(int64(elapsed), tc.TraceID)
		} else {
			rt.hist.Observe(int64(elapsed))
		}
	}
	if record {
		outcome := ""
		if err != nil {
			outcome = err.Error()
		}
		s.spans.Add(obs.SpanRecord{
			TraceID: tc.TraceID, SpanID: spanID, Parent: tc.SpanID,
			Node: s.opt.Addr, Name: rt.name,
			Start: startTicks, End: s.opt.Clock.Now().Ticks,
			Outcome: outcome,
		})
	}
	if thr := s.opt.SlowRequestThreshold; thr > 0 && elapsed >= thr && rt.name != "" {
		s.om.slowRequests.Inc()
		log.Printf("semel: slow-request node=%s op=%s trace=%016x span=%016x dur=%s err=%v",
			s.opt.Addr, rt.name, tc.TraceID, spanID, elapsed, err)
	}
	return resp, err
}

var _ transport.Handler = (*Server)(nil)

// ---- data-path handlers ----

// handleReplicated fences replication from a deposed regime (§4.5 in
// spirit), then serves the inner message: a late delivery sent before a
// failover must not retroactively change state the new primary has already
// served reads and validations from. The operation itself is preserved by
// the recovery merge / anti-entropy, which run under the new epoch. The
// epoch check and the delivery happen under one shared hold of s.regime, so
// a delivery that passed the check is complete before a recovery pull or a
// promotion reads this replica's state (see regimeBarrier).
func (s *Server) handleReplicated(ctx context.Context, r wire.Replicated) (any, error) {
	s.regime.RLock()
	defer s.regime.RUnlock()
	if rs, err := s.opt.Dir.Shard(s.opt.Shard); err == nil && r.Epoch < rs.Epoch {
		return nil, fmt.Errorf("semel: stale replication epoch %d < %d", r.Epoch, rs.Epoch)
	}
	return s.Serve(ctx, r.Msg)
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
// (§4.3). Only the backend read is charged to the ledger (flash-read); a park
// on a prepared version (see milana.Manager.OnGet) is charged to no stage,
// and milana_park_ns counts it.
func (s *Server) handleGet(ctx context.Context, r wire.GetRequest) (wire.GetResponse, error) {
	var prepared [1]bool
	if err := s.admitReads(ctx, [][]byte{r.Key}, r.At, r.AnyReplica, prepared[:]); err != nil {
		return wire.GetResponse{}, err
	}
	readStart := time.Now()
	resp, err := s.readVersion(r.Key, r.At, prepared[0])
	obs.AttributeStage(ctx, obs.StageFlashRead, time.Since(readStart))
	return resp, err
}

// handleMultiGet serves a snapshot read of r.Keys at r.At. It records every
// key's read, and parks on the prepared marks they meet under one bound,
// before it reads any of them, so no key's read is recorded late; then it
// reads the backend through storage.ForEach — concurrently on flash, where
// independent keys exercise the emulator's channels in parallel instead of
// convoying behind one another's page reads, and inline on DRAM. The read
// phase's wall time is charged to the ledger once; parks stay unattributed,
// as in handleGet.
func (s *Server) handleMultiGet(ctx context.Context, r wire.MultiGetRequest) (wire.MultiGetResponse, error) {
	s.stats.gets.Add(int64(len(r.Keys)))
	prepared := make([]bool, len(r.Keys))
	if err := s.admitReads(ctx, r.Keys, r.At, r.AnyReplica, prepared); err != nil {
		return wire.MultiGetResponse{}, err
	}
	items := make([]wire.GetResponse, len(r.Keys))
	readStart := time.Now()
	err := storage.ForEach(s.opt.Backend, len(r.Keys), func(i int) (err error) {
		items[i], err = s.readVersion(r.Keys[i], r.At, prepared[i])
		return err
	})
	obs.AttributeStage(ctx, obs.StageFlashRead, time.Since(readStart))
	if err != nil {
		return wire.MultiGetResponse{}, err
	}
	return wire.MultiGetResponse{Items: items}, nil
}

// admitReads admits one request's reads of keys at `at`. Reads execute only
// on a lease-holding primary (§3.3, §4.5), which records them with the
// manager and sets prepared — unless the client opted into nearest-replica
// reads (§4.6), in which case any replica answers from its backend, possibly
// slightly stale, with no prepared bits, and the transaction must validate at
// the primary. The lease is checked once per request.
func (s *Server) admitReads(ctx context.Context, keys [][]byte, at clock.Timestamp, anyReplica bool, prepared []bool) error {
	if err := s.checkPrimaryLease(); err != nil {
		if anyReplica {
			return nil
		}
		return err
	}
	s.mgr.OnGet(ctx, keys, at, prepared)
	return nil
}

// readVersion reads key at `at` from the backend into a response carrying
// the prepared bit admitReads found.
func (s *Server) readVersion(key []byte, at clock.Timestamp, prepared bool) (wire.GetResponse, error) {
	val, ver, found, err := s.opt.Backend.Get(key, at)
	if errors.Is(err, storage.ErrSnapshotUnavailable) {
		return wire.GetResponse{SnapshotMiss: true}, nil
	}
	if err != nil {
		return wire.GetResponse{}, err
	}
	return wire.GetResponse{Val: val, Version: ver, Found: found, PreparedAtOrBefore: prepared}, nil
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

// handlePrepare is 2PC phase one at this shard's primary (§4.3).
func (s *Server) handlePrepare(ctx context.Context, r wire.PrepareRequest) (wire.PrepareResponse, error) {
	if !s.IsPrimary() {
		return wire.PrepareResponse{}, ErrNotPrimary
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
	// The manager persists the prepared record — local log and backups
	// together, through Persist — before it votes.
	resp, err := s.mgr.Prepare(ctx, r)
	if err == nil && !resp.OK {
		s.stats.aborts.Add(1)
	}
	return resp, err
}

// handleDecision is 2PC phase two. Durability rides inside the manager:
// applyDecision persists the decision before returning, whichever path it
// arrives by.
func (s *Server) handleDecision(ctx context.Context, r wire.DecisionRequest) (wire.DecisionResponse, error) {
	if r.Commit {
		s.stats.commits.Add(1)
	} else {
		s.stats.aborts.Add(1)
	}
	return s.mgr.Decision(ctx, r)
}

// handleStatus answers a CTP status query. Only a serving primary may: a
// freshly designated primary that has not finished its recovery merge would
// answer Unknown for transactions it personally missed, and CTP rule 2
// would then abort a transaction another shard already committed.
func (s *Server) handleStatus(_ context.Context, r wire.StatusRequest) (wire.StatusResponse, error) {
	if !s.IsPrimary() {
		return wire.StatusResponse{}, ErrNotPrimary
	}
	return wire.StatusResponse{Status: s.mgr.Status(r.ID)}, nil
}

// handleReplicatePrepare stores a prepared record on a backup.
func (s *Server) handleReplicatePrepare(ctx context.Context, r wire.ReplicatePrepare) (wire.Ack, error) {
	if err := s.mgr.Learn(ctx, r.Record); err != nil {
		return wire.Ack{}, err
	}
	return wire.Ack{}, s.logRecord(r)
}

// handleReplicateDecision applies a decision on a backup.
func (s *Server) handleReplicateDecision(ctx context.Context, r wire.ReplicateDecision) (wire.Ack, error) {
	if err := s.mgr.Learn(ctx, r.Record()); err != nil {
		return wire.Ack{}, err
	}
	return wire.Ack{}, s.logRecord(r)
}

// handleReplicateData applies replicated writes on a backup — in any order,
// because ordering is explicit in the version stamps (§3.2). Batches apply
// through storage.ForEach: concurrently across keys on flash (the backends
// stripe their metadata locks, so distinct keys really do proceed in
// parallel and exercise independent flash channels), inline on DRAM. The
// answer is a per-op BatchAck so the primary's batcher can demultiplex
// quorums: one rejected op must not fail its batchmates.
func (s *Server) handleReplicateData(_ context.Context, r wire.ReplicateData) (any, error) {
	s.stats.replOps.Add(int64(len(r.Ops)))
	errs := make([]string, len(r.Ops))
	// Each op's outcome lands in errs, so ForEach itself has none to return.
	_ = storage.ForEach(s.opt.Backend, len(r.Ops), func(i int) error {
		op := r.Ops[i]
		var startTicks int64
		record := op.TC.Sampled
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
		return nil
	})
	applied, ack := r, wire.BatchAck{}
	if slices.ContainsFunc(errs, func(e string) bool { return e != "" }) {
		// Log only the ops this replica actually holds; replaying a write
		// the backend rejected would resurrect it from the dead.
		applied.Ops, ack.Errs = make([]wire.DataOp, 0, len(r.Ops)), errs
		for i, op := range r.Ops {
			if errs[i] == "" {
				applied.Ops = append(applied.Ops, op)
			}
		}
		if len(applied.Ops) == 0 {
			// Nothing applied: a call-level error fails this peer as a whole.
			return nil, errors.New(errs[0])
		}
	}
	if err := s.logRecord(applied); err != nil {
		return nil, err
	}
	return ack, nil
}

// handleWatermark folds a client's decided-timestamp report into the local
// watermark and passes it to the backend's garbage collector (§3.1, §4.4).
func (s *Server) handleWatermark(_ context.Context, r wire.WatermarkBroadcast) (wire.Ack, error) {
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
func (s *Server) handleLease(_ context.Context, r wire.LeaseRequest) (wire.LeaseResponse, error) {
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

// applyDataOp writes one replicated version (or tombstone) to the backend.
func (s *Server) applyDataOp(op wire.DataOp) error {
	if op.Tombstone {
		return s.opt.Backend.Delete(op.Key, op.Version)
	}
	return s.opt.Backend.Put(op.Key, op.Val, op.Version)
}
