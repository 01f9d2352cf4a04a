package milana

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/check"
	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/park"
	"repro/internal/transport"
	"repro/internal/wire"
)

// ErrAborted is returned when a transaction fails validation (a
// serializability conflict) and must be retried by the application.
var ErrAborted = errors.New("milana: transaction aborted")

// ErrUnknown is returned when the client could not learn a transaction's
// outcome: a prepare vote was lost in transit, no participant voted
// ABORT, and §4.5's cooperative termination may later commit the fully
// prepared transaction. The application must NOT retry as if aborted —
// the writes may yet take effect.
var ErrUnknown = errors.New("milana: transaction outcome unknown")

// ErrTxnDone guards against reusing a finished transaction.
var ErrTxnDone = errors.New("milana: transaction already committed or aborted")

// Stats counts a client's transaction outcomes.
type Stats struct {
	Committed      int64
	Aborted        int64
	LocalValidated int64 // read-only transactions committed without any RPC
	ReadOnly       int64
	CacheHits      int64 // reads served from the inter-transaction cache
	NearestReads   int64 // reads served by a non-primary replica
	// AbortsByReason classifies aborts by the Algorithm 1 branch that
	// fired (local-validation failures count as AbortReadPrepared).
	AbortsByReason [wire.NumAbortReasons]int64
}

// Client is the MILANA application library (§4.1). Each transaction
// executes on a single client: the client issues reads and buffered writes,
// assigns the begin and commit timestamps from its precision clock, and
// coordinates two-phase commit.
type Client struct {
	clk clock.Clock
	net transport.Client
	dir *cluster.Directory

	// LocalValidation enables client-local validation of read-only
	// transactions (§4.3). Disabling it forces read-only transactions
	// through server-side 2PC validation — the "w/o LV" configurations
	// of Figure 8.
	LocalValidation bool
	// SyncDecisions makes Commit wait for phase-two acknowledgements
	// instead of notifying primaries asynchronously (used by tests that
	// need determinism; the paper's client notifies asynchronously). A
	// single-shard commit has no phase two to wait for.
	SyncDecisions bool
	// ReadNearest sends transactional reads to a random replica instead
	// of the primary (§4.6's relaxation for read-write transactions).
	// Reads answered by a backup carry no prepared bit, so a transaction
	// that used one cannot validate locally and always runs 2PC.
	ReadNearest bool
	// CacheReads enables the inter-transaction value cache (§4.3's
	// tradeoff): transactions declared read-write in advance (see
	// BeginReadWrite) may read from the cache, and must then validate
	// remotely.
	CacheReads bool

	cache *valueCache

	// spans, when attached via EnableTracing, makes every transaction a
	// sampled distributed trace: its request record carries a TraceContext
	// on every RPC, every server they touch records spans, and the client
	// records the root span stamped with its own (skewed) clock. Nil
	// disables (default).
	spans *obs.SpanStore

	// stages, when attached via EnableStages, gives every transaction a
	// pooled stage ledger: its request record carries the ledger on every
	// RPC (and requests the server's stage block over TCP), and finish
	// folds it into milana_stage_ledger_ns{stage=...} against the
	// transaction's wall time. Nil disables (default).
	stages *obs.StageSet

	// sinks receive every finished transaction: the offline History
	// (SetHistory) and the online auditor (AddSink) both plug in here.
	// Empty = off.
	sinks []check.Sink
	// beginSinks is the subset of sinks also wanting begin notifications
	// (check.BeginSink — the online auditor's in-flight tracking).
	beginSinks []check.BeginSink

	// notifier sends asynchronous phase-two decisions on parked goroutines
	// (see decisionJob).
	notifier *park.Pool[decisionJob]

	seq atomic.Uint64

	mu          sync.Mutex
	lastDecided clock.Timestamp

	committed      atomic.Int64
	aborted        atomic.Int64
	localValidated atomic.Int64
	readOnly       atomic.Int64
	cacheHits      atomic.Int64
	nearestReads   atomic.Int64
	abortReasons   [wire.NumAbortReasons]atomic.Int64
}

// NewClient builds a transaction client. Local validation is on by
// default, as in the paper.
//
// The client's watermark contribution starts at its creation time: until
// its first transaction decides, it reports "everything before I existed",
// which keeps the garbage collector from reclaiming versions an early
// long-running transaction may still need (§4.4 requires every client to
// hold the watermark down, including ones that have decided nothing yet).
func NewClient(clk clock.Clock, net transport.Client, dir *cluster.Directory) *Client {
	c := &Client{clk: clk, net: net, dir: dir, LocalValidation: true, cache: newValueCache()}
	c.notifier = park.New(c.notify)
	c.lastDecided = clk.Now()
	return c
}

// ID returns the client's ID.
func (c *Client) ID() uint32 { return c.clk.Client() }

// Stats returns a snapshot of the outcome counters.
func (c *Client) Stats() Stats {
	st := Stats{
		Committed:      c.committed.Load(),
		Aborted:        c.aborted.Load(),
		LocalValidated: c.localValidated.Load(),
		ReadOnly:       c.readOnly.Load(),
		CacheHits:      c.cacheHits.Load(),
		NearestReads:   c.nearestReads.Load(),
	}
	for i := range st.AbortsByReason {
		st.AbortsByReason[i] = c.abortReasons[i].Load()
	}
	return st
}

// EnableTracing turns on distributed tracing: every subsequent transaction
// propagates a TraceContext on its RPCs (trace ID = Txn.ID().TraceID()) and
// the client keeps the last ring root spans. Call before issuing
// transactions; not safe to toggle concurrently with them.
func (c *Client) EnableTracing(ring int) {
	c.spans = obs.NewSpanStore(fmt.Sprintf("client-%d", c.ID()), ring)
}

// Spans returns the client's root-span store (nil until EnableTracing).
func (c *Client) Spans() *obs.SpanStore { return c.spans }

// EnableStages turns on per-transaction stage-latency attribution: every
// subsequent transaction carries a pooled obs.Ledger through all of its
// RPCs, collecting client-queue/encode/network/dispatch/validate/flash/
// commit-wait/replication/decode waits, folded on finish into reg's
// milana_stage_ledger_ns{stage=...} histograms with the accounting identity
// (stage sum + unattributed residual = wall time). Call before issuing
// transactions; not safe to toggle concurrently with them.
func (c *Client) EnableStages(reg *obs.Registry) {
	c.stages = obs.NewStageSet(reg, "milana_stage_ledger")
}

// Stages returns the client's stage-histogram set (nil until EnableStages).
func (c *Client) Stages() *obs.StageSet { return c.stages }

// SetHistory attaches a history recorder: every transaction this client
// finishes is recorded with its begin and commit timestamps, the exact
// versions its reads observed, the keys it wrote, and its outcome
// (committed / aborted / unknown), ready for check.Serializability. Many
// clients may share one History. Call before issuing transactions; not
// safe to swap concurrently with them.
func (c *Client) SetHistory(h *check.History) {
	if h == nil {
		return
	}
	c.AddSink(h)
}

// AddSink attaches one more transaction sink (the online auditor, a test
// recorder, ...). Sinks that also implement check.BeginSink are notified
// when transactions begin. Call before issuing transactions; not safe to
// add concurrently with them.
func (c *Client) AddSink(s check.Sink) {
	if s == nil {
		return
	}
	c.sinks = append(c.sinks, s)
	if bs, ok := s.(check.BeginSink); ok {
		c.beginSinks = append(c.beginSinks, bs)
	}
}

// Clock exposes the client's clock (trace collection reads its Health to
// align the client's spans with the servers').
func (c *Client) Clock() clock.Clock { return c.clk }

// LastDecided returns the timestamp of this client's most recently decided
// transaction — the value it broadcasts for watermarking (§4.4).
func (c *Client) LastDecided() clock.Timestamp {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastDecided
}

func (c *Client) noteDecided(ts clock.Timestamp) {
	c.mu.Lock()
	if ts.After(c.lastDecided) {
		c.lastDecided = ts
	}
	c.mu.Unlock()
}

// BroadcastWatermark reports the client's last decided timestamp to every
// replica of every shard.
func (c *Client) BroadcastWatermark(ctx context.Context) {
	ts := c.LastDecided()
	if ts.IsZero() {
		return
	}
	msg := wire.WatermarkBroadcast{Client: c.ID(), Ts: ts}
	for i := 0; i < c.dir.NumShards(); i++ {
		rs, err := c.dir.Shard(cluster.ShardID(i))
		if err != nil {
			continue
		}
		for _, addr := range rs.Replicas() {
			_, _ = c.net.Call(ctx, addr, msg)
		}
	}
}

type readInfo struct {
	val      []byte
	ver      clock.Timestamp
	found    bool
	prepared bool
	shard    int
}

// Txn is one optimistic transaction: reads from a consistent snapshot at
// ts_begin, writes buffered at the client until commit (§4.1).
type Txn struct {
	c     *Client
	id    wire.TxnID
	begin clock.Timestamp
	reads map[string]readInfo
	write map[string][]byte
	done  bool
	// declaredRW marks a transaction declared read-write in advance
	// (BeginReadWrite), making it eligible for cached reads.
	declaredRW bool
	// nonLocal forces remote validation: some read bypassed the primary
	// (cache or backup replica), so the prepared bits are unreliable.
	nonLocal bool
	// cachedKeys are reads served from the cache, invalidated on abort.
	cachedKeys []string
	// req is the transaction's request record, attached to every RPC's
	// context: the trace context (EnableTracing) under which spanEnd records
	// the root span, and the stage ledger (EnableStages), folded and released
	// exactly once by finish. wallStart anchors the ledger's end-to-end side
	// of the accounting identity.
	req       obs.Req
	wallStart time.Time
	// commitTs is the serialization point recorded into the history: the
	// 2PC commit timestamp, or begin for a locally validated read-only
	// transaction. Zero until assigned.
	commitTs clock.Timestamp
	// unknown marks a transaction whose outcome the client never learned.
	unknown bool
}

// Begin starts a transaction at the client's current time.
func (c *Client) Begin() *Txn {
	t := &Txn{
		c:     c,
		id:    wire.TxnID{Client: c.ID(), Seq: c.seq.Add(1)},
		begin: c.clk.Now(),
		reads: make(map[string]readInfo),
		write: make(map[string][]byte),
	}
	if c.spans != nil {
		t.req.TraceContext = obs.TraceContext{TraceID: t.id.TraceID(), SpanID: c.spans.NextID(), Sampled: true}
	}
	if c.stages != nil {
		t.req.Ledger = obs.NewLedger()
		t.wallStart = time.Now()
	}
	for _, bs := range c.beginSinks {
		bs.TxnBegan(t.id, t.begin)
	}
	return t
}

// rpcCtx annotates ctx with the transaction's request record, so the RPC
// (and, over TCP, the frame header) carries it to the server. It is for read
// and 2PC calls, which finish awaits; the async decision notify runs on
// req.Detached() instead.
func (t *Txn) rpcCtx(ctx context.Context) context.Context {
	return obs.WithReq(ctx, t.req)
}

// BeginReadWrite starts a transaction declared read-write in advance. Such
// a transaction may serve reads from the inter-transaction cache when
// Client.CacheReads is on — and must then validate remotely (§4.3).
func (c *Client) BeginReadWrite() *Txn {
	t := c.Begin()
	t.declaredRW = true
	return t
}

// ID returns the transaction's identifier.
func (t *Txn) ID() wire.TxnID { return t.id }

// BeginTs returns ts_begin.
func (t *Txn) BeginTs() clock.Timestamp { return t.begin }

// Get returns the value of key as of ts_begin. Reads of keys in the write
// or read set are served from the client cache (§4.1).
func (t *Txn) Get(ctx context.Context, key []byte) (val []byte, found bool, err error) {
	if t.done {
		return nil, false, ErrTxnDone
	}
	k := string(key)
	if v, ok := t.write[k]; ok {
		if v == nil {
			return nil, false, nil // transaction-local delete
		}
		return append([]byte(nil), v...), true, nil
	}
	if ri, ok := t.reads[k]; ok {
		return append([]byte(nil), ri.val...), ri.found, nil
	}
	shard := t.c.dir.ShardFor(key)
	if t.c.CacheReads && t.declaredRW {
		if e, ok := t.c.cache.get(k); ok {
			t.c.cacheHits.Add(1)
			t.nonLocal = true
			t.cachedKeys = append(t.cachedKeys, k)
			t.reads[k] = readInfo{val: e.val, ver: e.ver, found: e.found, shard: int(shard)}
			return append([]byte(nil), e.val...), e.found, nil
		}
	}
	addr, anyReplica, err := t.c.readTarget(shard)
	if err != nil {
		return nil, false, err
	}
	resp, err := t.c.net.Call(t.rpcCtx(ctx), addr, wire.GetRequest{Key: key, At: t.begin, AnyReplica: anyReplica})
	if err != nil {
		return nil, false, err
	}
	if anyReplica {
		t.c.nearestReads.Add(1)
		t.nonLocal = true
	}
	g, ok := resp.(wire.GetResponse)
	if !ok {
		return nil, false, fmt.Errorf("milana: unexpected response %T", resp)
	}
	if g.SnapshotMiss {
		// The snapshot at ts_begin is gone (single-version storage):
		// the transaction cannot read consistently and must abort.
		t.finish(false)
		return nil, false, ErrAborted
	}
	t.reads[k] = readInfo{val: g.Val, ver: g.Version, found: g.Found, prepared: g.PreparedAtOrBefore, shard: int(shard)}
	if t.c.CacheReads {
		t.c.cache.store(k, cacheEntry{val: append([]byte(nil), g.Val...), ver: g.Version, found: g.Found})
	}
	return append([]byte(nil), g.Val...), g.Found, nil
}

// readTarget picks the replica a read goes to: the primary normally, or a
// uniformly random replica of the shard under ReadNearest. Reads the
// primary happens to serve keep their full validation metadata.
func (c *Client) readTarget(shard cluster.ShardID) (addr string, anyReplica bool, err error) {
	if !c.ReadNearest {
		addr, err = c.dir.Primary(shard)
		return addr, false, err
	}
	rs, err := c.dir.Shard(shard)
	if err != nil {
		return "", false, err
	}
	replicas := rs.Replicas()
	pick := replicas[int(c.seq.Add(1))%len(replicas)]
	return pick, pick != rs.Primary, nil
}

// Put buffers a write; it becomes visible only if the transaction commits.
func (t *Txn) Put(key, val []byte) error {
	if t.done {
		return ErrTxnDone
	}
	t.write[string(key)] = append([]byte(nil), val...)
	return nil
}

// ReadOnly reports whether the transaction has buffered no writes.
func (t *Txn) ReadOnly() bool { return len(t.write) == 0 }

// Abort discards the transaction's read and write sets.
func (t *Txn) Abort() {
	if !t.done {
		t.finish(false)
	}
}

func (t *Txn) finish(committed bool) {
	t.done = true
	if committed {
		t.c.committed.Add(1)
	} else {
		t.c.aborted.Add(1)
	}
	if t.ReadOnly() {
		t.c.readOnly.Add(1)
	}
	if len(t.c.sinks) > 0 {
		out := check.Aborted
		switch {
		case committed:
			out = check.Committed
		case t.unknown:
			out = check.Unknown
		}
		rec := check.Txn{ID: t.id, Begin: t.begin, Commit: t.commitTs, Outcome: out}
		for k, ri := range t.reads {
			rec.Reads = append(rec.Reads, check.Read{Key: k, Version: ri.ver})
		}
		for k := range t.write {
			rec.Writes = append(rec.Writes, k)
		}
		for _, s := range t.c.sinks {
			s.Record(rec)
		}
	}
	// Fallback root span for paths that didn't set a richer outcome
	// (application Abort, snapshot-miss aborts).
	if committed {
		t.spanEnd("commit")
	} else {
		t.spanEnd("abort")
	}
	// Fold the stage ledger against the transaction's wall time and return
	// it to the pool. Every RPC that could touch the ledger has completed
	// by now: reads and prepares are awaited before finish, and the
	// async-decision context is detached, so it carries no ledger.
	if led := t.req.Ledger; led != nil {
		t.c.stages.Fold(led, time.Since(t.wallStart), t.id.TraceID())
		led.Release()
		t.req.Ledger = nil
	}
}

// spanEnd records the trace's root span, exactly once, with the given
// outcome: stamped begin→now with the client's own (skewed) clock, so the
// stitched timeline has a client anchor alongside the server spans. A no-op
// without distributed tracing.
func (t *Txn) spanEnd(outcome string) {
	if tc := t.req.TraceContext; tc.Sampled {
		t.c.spans.Add(obs.SpanRecord{
			TraceID: tc.TraceID, SpanID: tc.SpanID,
			Node: t.c.spans.Node(), Name: "txn",
			Start: t.begin.Ticks, End: t.c.clk.Now().Ticks,
			Outcome: outcome,
		})
		t.req.TraceContext = obs.TraceContext{}
	}
}

// Commit validates and commits the transaction. Read-only transactions
// validate locally when enabled (§4.3): the transaction read a consistent
// snapshot at ts_begin iff no key in its read set had a prepared version at
// or before ts_begin. Read-write transactions run client-coordinated 2PC
// (§4.2).
func (t *Txn) Commit(ctx context.Context) error {
	if t.done {
		return ErrTxnDone
	}
	if t.ReadOnly() && t.c.LocalValidation && !t.nonLocal {
		for _, ri := range t.reads {
			if ri.prepared {
				t.c.abortReasons[wire.AbortReadPrepared].Add(1)
				t.spanEnd("abort-" + wire.AbortReadPrepared.String())
				t.finish(false)
				return fmt.Errorf("%w: read a key with a prepared version", ErrAborted)
			}
		}
		t.c.localValidated.Add(1)
		t.c.noteDecided(t.begin)
		t.commitTs = t.begin // §4.3: the snapshot is the serialization point
		t.spanEnd("commit-local")
		t.finish(true)
		return nil
	}
	return t.commit2PC(ctx)
}

// commit2PC runs two-phase commit with the client as coordinator.
func (t *Txn) commit2PC(ctx context.Context) error {
	ctx = t.rpcCtx(ctx)
	commitTs := t.c.clk.Now()
	t.commitTs = commitTs

	type shardSets struct {
		reads  []wire.ReadKey
		writes []wire.KV
	}
	byShard := make(map[int]*shardSets)
	sets := func(shard int) *shardSets {
		ss := byShard[shard]
		if ss == nil {
			ss = &shardSets{}
			byShard[shard] = ss
		}
		return ss
	}
	for k, ri := range t.reads {
		ss := sets(ri.shard)
		ss.reads = append(ss.reads, wire.ReadKey{Key: []byte(k), Version: ri.ver})
	}
	for k, v := range t.write {
		shard := int(t.c.dir.ShardFor([]byte(k)))
		ss := sets(shard)
		ss.writes = append(ss.writes, wire.KV{Key: []byte(k), Val: v})
	}
	participants := make([]int, 0, len(byShard))
	for shard := range byShard {
		participants = append(participants, shard)
	}
	sort.Ints(participants)

	// Phase one: prepare at every participant primary, in parallel — the
	// last one on this goroutine, so a single-shard transaction starts no
	// goroutine (a fresh one would run the whole server call on a 2 KiB
	// stack and pay its growth on every transaction).
	type vote struct {
		shard int
		ok    bool
		code  wire.AbortReason
		err   error
	}
	votes := make(chan vote, len(participants))
	prepare := func(shard int) {
		addr, err := t.c.dir.Primary(cluster.ShardID(shard))
		if err != nil {
			votes <- vote{shard: shard, err: err}
			return
		}
		ss := byShard[shard]
		req := wire.PrepareRequest{
			ID:           t.id,
			CommitTs:     commitTs,
			ReadSet:      ss.reads,
			WriteSet:     ss.writes,
			Participants: participants,
		}
		resp, err := t.c.net.Call(ctx, addr, req)
		if err != nil {
			votes <- vote{shard: shard, err: err}
			return
		}
		p, ok := resp.(wire.PrepareResponse)
		if !ok {
			votes <- vote{shard: shard, err: fmt.Errorf("milana: unexpected response %T", resp)}
			return
		}
		votes <- vote{shard: shard, ok: p.OK, code: p.Code}
	}
	for i, shard := range participants {
		if i < len(participants)-1 {
			go prepare(shard)
		} else {
			prepare(shard)
		}
	}
	commit := true
	explicitAbort := false
	var firstErr error
	reason := wire.AbortNone
	// decide lists the participants phase two must reach: all but those that
	// voted ABORT, which hold nothing to decide (a NO vote leaves no
	// prepared record behind). A transaction with one participant has no
	// phase two: that participant's YES vote is the commit, since its
	// prepared record commits wherever it lands.
	var decide []int
	for range participants {
		v := <-votes
		if v.err != nil && firstErr == nil {
			firstErr = v.err
		}
		if v.err == nil && !v.ok {
			explicitAbort = true // a participant voted ABORT
		} else if len(participants) > 1 {
			decide = append(decide, v.shard)
		}
		if v.err != nil || !v.ok {
			commit = false
			if v.code != wire.AbortNone && reason == wire.AbortNone {
				reason = v.code
			}
		}
	}
	if !commit {
		if reason == wire.AbortNone {
			reason = wire.AbortOther
		}
		t.c.abortReasons[reason].Add(1)
	}

	// A prepare whose outcome we never learned (transport error, not an
	// ABORT vote) must be left in doubt — for any participant count.
	// Every replica commits a prepared single-shard transaction, and the
	// Cooperative Termination Protocol commits a
	// multi-shard transaction all of whose participants prepared; a lost
	// *reply* means exactly that may have happened. Issuing an abort
	// decision here (the messages could be lost too) while reporting
	// "aborted" to the application would let CTP contradict us — the
	// retried transaction plus the recovered original is a lost-update
	// anomaly the fault injector reliably produces. The outcome is
	// reported unknown; the prepared records, if any, are terminated by
	// the participants' sweepers.
	if !commit && !explicitAbort {
		t.unknown = true
		t.spanEnd("unknown")
		t.finish(false)
		return fmt.Errorf("%w: transaction %v: %v", ErrUnknown, t.id, firstErr)
	}
	// Phase two: report the outcome, then notify participants — by
	// default asynchronously (§4.2: "reports the outcome to the
	// application and then asynchronously notifies all primaries"), on a
	// parked notifier and a detached context. The job carries copies: the
	// Txn's fields are single-goroutine.
	j := decisionJob{ctx: ctx, participants: decide, id: t.id, commit: commit}
	switch {
	case len(decide) == 0:
	case t.c.SyncDecisions:
		t.c.notify(j)
	default:
		j.ctx = t.req.Detached()
		t.c.notifier.Go(j)
	}

	t.c.noteDecided(commitTs)
	switch {
	case commit && t.ReadOnly():
		t.spanEnd("commit-ro")
	case commit:
		t.spanEnd("commit-rw")
	default:
		t.spanEnd("abort-" + reason.String())
	}
	t.finish(commit)
	if !commit {
		// Cached reads may have been the stale culprits; drop them so
		// the retry re-reads fresh versions.
		for _, k := range t.cachedKeys {
			t.c.cache.invalidate(k)
		}
		if firstErr != nil {
			return fmt.Errorf("%w: %v", ErrAborted, firstErr)
		}
		return ErrAborted
	}
	// Committed writes refresh the cache.
	if t.c.CacheReads {
		for k, v := range t.write {
			t.c.cache.store(k, cacheEntry{val: append([]byte(nil), v...), ver: commitTs, found: true})
		}
	}
	return nil
}

// decisionJob is one phase-two notification: the decision for id, sent to
// the primary of every participant shard.
type decisionJob struct {
	ctx          context.Context
	participants []int
	id           wire.TxnID
	commit       bool
}

// notify delivers a decision to every participant primary, ignoring
// failures: a participant that misses it terminates the transaction through
// its sweeper (§4.5).
func (c *Client) notify(j decisionJob) {
	for _, shard := range j.participants {
		addr, err := c.dir.Primary(cluster.ShardID(shard))
		if err != nil {
			continue
		}
		_, _ = c.net.Call(j.ctx, addr, wire.DecisionRequest{ID: j.id, Commit: j.commit})
	}
}

// RunTransaction executes fn inside a transaction, retrying a conflict
// abort (ErrAborted) at once with the same keys until ctx expires — the
// Retwis clients of §5.2. Every other error is returned: an
// admission-control shed (the caller may wait out its RetryAfter hint), a
// transport failure, and ErrUnknown, which is never retried (§4.5:
// cooperative termination may yet commit the writes).
func (c *Client) RunTransaction(ctx context.Context, fn func(t *Txn) error) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		t := c.Begin()
		err := fn(t)
		if err == nil {
			err = t.Commit(ctx)
		}
		if err == nil {
			return nil
		}
		t.Abort()
		if !errors.Is(err, ErrAborted) {
			return err
		}
	}
}

// GetMany reads several keys of the transaction's snapshot with one round
// trip per shard instead of one per key — the natural way to issue a
// Retwis Get-Timeline (§5.2) or any other fan-out read. Results are keyed
// by the input key strings; missing keys are absent. Cached and
// already-read keys are served locally; the rest are fetched batched and
// join the read set exactly as Get would record them.
func (t *Txn) GetMany(ctx context.Context, keys [][]byte) (map[string][]byte, error) {
	if t.done {
		return nil, ErrTxnDone
	}
	out := make(map[string][]byte, len(keys))
	byShard := make(map[cluster.ShardID][][]byte)
	for _, key := range keys {
		k := string(key)
		if v, ok := t.write[k]; ok {
			if v != nil {
				out[k] = append([]byte(nil), v...)
			}
			continue
		}
		if ri, ok := t.reads[k]; ok {
			if ri.found {
				out[k] = append([]byte(nil), ri.val...)
			}
			continue
		}
		shard := t.c.dir.ShardFor(key)
		byShard[shard] = append(byShard[shard], key)
	}
	if len(byShard) == 0 {
		return out, nil
	}
	// Fan the per-shard RPCs out concurrently — a cross-shard timeline read
	// costs one (slowest) round trip, not the sum; the first shard's on this
	// goroutine, so a single-shard read starts no goroutine — then fold the
	// responses into the read set serially (Txn state is single-goroutine).
	type shardFetch struct {
		shard      cluster.ShardID
		keys       [][]byte
		anyReplica bool
		resp       wire.MultiGetResponse
		err        error
	}
	fetches := make([]shardFetch, 0, len(byShard))
	for shard, shardKeys := range byShard {
		fetches = append(fetches, shardFetch{shard: shard, keys: shardKeys})
	}
	ctx = t.rpcCtx(ctx)
	fetch := func(f *shardFetch) {
		addr, anyReplica, err := t.c.readTarget(f.shard)
		if err != nil {
			f.err = err
			return
		}
		f.anyReplica = anyReplica
		resp, err := t.c.net.Call(ctx, addr, wire.MultiGetRequest{Keys: f.keys, At: t.begin, AnyReplica: anyReplica})
		if err != nil {
			f.err = err
			return
		}
		mg, ok := resp.(wire.MultiGetResponse)
		if !ok || len(mg.Items) != len(f.keys) {
			f.err = fmt.Errorf("milana: malformed multi-get response %T", resp)
			return
		}
		f.resp = mg
	}
	var wg sync.WaitGroup
	for i := range fetches[1:] {
		wg.Add(1)
		go func(f *shardFetch) {
			defer wg.Done()
			fetch(f)
		}(&fetches[i+1])
	}
	fetch(&fetches[0])
	wg.Wait()
	for _, f := range fetches {
		if f.err != nil {
			return nil, f.err
		}
		if f.anyReplica {
			t.c.nearestReads.Add(int64(len(f.keys)))
			t.nonLocal = true
		}
		for i, g := range f.resp.Items {
			if g.SnapshotMiss {
				t.finish(false)
				return nil, ErrAborted
			}
			k := string(f.keys[i])
			t.reads[k] = readInfo{val: g.Val, ver: g.Version, found: g.Found, prepared: g.PreparedAtOrBefore, shard: int(f.shard)}
			if g.Found {
				out[k] = append([]byte(nil), g.Val...)
			}
		}
	}
	return out, nil
}
