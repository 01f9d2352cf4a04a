// Package milana implements the paper's transaction layer (§4): a
// client-coordinated optimistic concurrency control protocol over SEMEL.
//
// The Manager runs inside every SEMEL server. On a primary it maintains the
// per-key OCC state (ts_latestRead, ts_prepared, ts_latestCommitted — all
// DRAM-only, §4.1), validates transactions with Algorithm 1, keeps the
// transaction table, and drives 2PC phase two. On a backup it stores
// replicated prepare records and applies decisions. During failover it
// merges replica transaction tables (Algorithm 2) and terminates in-doubt
// transactions with the Cooperative Termination Protocol.
//
// A record may reach a replica by any route and in any order (§3.2): the
// primary's client door (Prepare, Decision), or Learn — backup delivery,
// anti-entropy, WAL replay, checkpoint install and the failover merge. Every
// route ends in the same two state changes, the prepared transition
// (prepareLocked) and the decided transition (decide), so a prepare and a
// decision leave a replica in the same state whichever way they came. The
// prepared record of a transaction with one participant is its commit
// (§4.5: such a transaction "would have been committed"): every route that
// brings one takes the decided transition right after the prepared one
// (commitOnePhase), and no decision for it is ever sent or logged.
// Prepared marks live only where reads and validation consult them, on a
// serving primary: Prepare arms its own, ArmPrepared arms the table when a
// replica becomes primary, and no other route arms.
//
// The Client (client.go) is the application-facing transaction API: it
// assigns begin/commit timestamps from the local precision clock, buffers
// writes, reads from a consistent snapshot at ts_begin, validates read-only
// transactions locally (§4.3), and coordinates 2PC for read-write
// transactions.
package milana

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/park"
	"repro/internal/storage"
	"repro/internal/wire"
)

// Host is the SEMEL server a Manager runs inside. Besides serving the
// methods below, it hands the Manager every 2PC record that arrives other
// than through the primary's client door — backup deliveries, anti-entropy
// pulls, WAL replay and checkpoint install — through Learn, and calls
// ArmPrepared whenever the replica becomes a serving primary.
type Host interface {
	// Backend is the replica's durable store.
	Backend() storage.Backend
	// Persist makes a 2PC record — a wire.ReplicatePrepare or a
	// wire.ReplicateDecision the manager has already applied — durable: it
	// appends the record to the local log (a no-op without one) while
	// delivering it to the shard's backups, and returns once the append
	// and f backup acknowledgements have both landed. An error wrapping
	// ErrNotSent means no backup was sent the record, and a prepare that was
	// not sent is not logged either; one wrapping ErrNotLogged means the
	// local append failed; any other error means the record is in the local
	// log and was sent, but did not reach f backups.
	Persist(ctx context.Context, msg any) error
	// CallPrimary sends req to the current primary of another shard.
	CallPrimary(ctx context.Context, shard int, req any) (any, error)
	// ShardID identifies the shard this replica belongs to.
	ShardID() int
}

// ErrNotLogged marks a Host.Persist failure in which the record did not
// reach the local log.
var ErrNotLogged = errors.New("milana: record not logged")

// ErrNotSent marks a Host.Persist failure in which no backup was sent the
// record: the replica was deposed, the caller's deadline had passed, or the
// shard directory failed.
var ErrNotSent = errors.New("milana: record not sent")

// decidedRetention bounds the memory of the decided-transactions map: a
// decision is queryable by CTP for at least this long. It is far larger
// than the prepared-transaction timeout, so a participant resolving an
// in-doubt transaction always finds the decision.
const decidedRetention = 60 * time.Second

// DecisionWait bounds how long a read of a prepared version, or a prepare
// that meets an older transaction's prepared mark, parks on that
// transaction's decision before it answers as it would have without
// waiting.
const DecisionWait = 50 * time.Millisecond

// keyMeta is the DRAM-only per-key state of §4.1. Only a serving primary
// holds prepared marks (see ArmPrepared).
type keyMeta struct {
	latestRead      clock.Timestamp
	latestCommitted clock.Timestamp
	committedInit   bool
	mark            mark
}

// mark is a prepared mark: transaction by holds a version prepared at ts.
// decided is closed when the mark is released; reads (OnGet) and younger
// prepares (Prepare) park on it. A key is marked iff decided != nil.
type mark struct {
	ts      clock.Timestamp
	by      wire.TxnID
	decided chan struct{}
}

// The two kinds of request that park on a mark, indexing managerMetrics.park.
const (
	parkRead = iota
	parkPrepare
)

// parkMetrics counts one kind of park: one wait observation per park, the
// requests parked now, and the parks the bound or ctx ended first.
type parkMetrics struct {
	ns      *obs.Histogram
	parked  *obs.Gauge
	expired *obs.Counter
}

// decisionWaiter is the one wait on a prepared mark: every park of a request
// goes through await, under one DecisionWait bound armed at its first park.
type decisionWaiter struct {
	pm    *parkMetrics
	bound *time.Timer
}

// await parks on a mark's decided channel and reports whether the decision
// landed before the request's bound fired or its ctx ended.
func (w *decisionWaiter) await(ctx context.Context, decided <-chan struct{}) bool {
	if w.bound == nil {
		w.bound = time.NewTimer(DecisionWait)
	}
	start := time.Now()
	defer w.pm.ns.ObserveSince(start)
	w.pm.parked.Add(1)
	defer w.pm.parked.Add(-1)
	select {
	case <-decided:
		return true
	case <-w.bound.C:
	case <-ctx.Done():
	}
	w.pm.expired.Inc()
	return false
}

func (w *decisionWaiter) stop() {
	if w.bound != nil {
		w.bound.Stop()
	}
}

type txnState struct {
	rec        wire.TxnRecord
	preparedAt time.Time

	// persisted is closed once the Prepare that validated rec has its
	// Persist outcome; vote and voteErr are then the answer every
	// retransmitted copy of that prepare gets. nil for records that reached
	// the table already durable, through Learn.
	persisted chan struct{}
	vote      wire.PrepareResponse
	voteErr   error
}

type decidedEntry struct {
	status wire.TxnStatus
	at     time.Time
}

// managerMetrics are the Manager's cached observability handles — the
// server-side halves of the txn lifecycle (validate / prepare / decision),
// the Algorithm 1 abort-reason breakdown, the CTP sweeper outcomes, and the
// parks on prepared marks.
// All handles are nil-safe, so an uninstrumented Manager pays one nil check
// per site.
type managerMetrics struct {
	validateNs   *obs.Histogram
	prepareNs    *obs.Histogram
	decisionNs   *obs.Histogram
	preparedTxns *obs.Gauge
	abortReason  [wire.NumAbortReasons]*obs.Counter
	sweep        [3]*obs.Counter // recovered-commit / recovered-abort / still-pending

	// abort provenance: skew-induced (a Late* timestamp race whose losing
	// margin fits inside the clock-uncertainty window) vs. a true data
	// conflict. The paper's thesis in counter form: better clocks shrink
	// the skew share.
	provSkew     *obs.Counter
	provConflict *obs.Counter

	park [2]parkMetrics // parkRead, parkPrepare
}

// Manager is the per-replica transaction module.
type Manager struct {
	host Host
	om   managerMetrics

	// appliers take one-phase commits on a blocking backend (see
	// commitOnePhase).
	appliers *park.Pool[*txnState]

	// skewWindow is the Late*-abort margin at or below which the race is
	// attributed to clock skew (see SetSkewWindow). Atomic: read per abort.
	skewWindow atomic.Int64

	// skipReadValidation deliberately disables Algorithm 1's read-set
	// checks (see MutateSkipReadValidation). Tests only.
	skipReadValidation atomic.Bool

	mu        sync.Mutex
	keys      map[string]*keyMeta
	table     map[wire.TxnID]*txnState
	decided   map[wire.TxnID]decidedEntry
	lastPrune time.Time
	// recoveryFloor primes latestRead for keys first touched after a cold
	// restart (see SetRecoveryFloor).
	recoveryFloor clock.Timestamp
}

// NewManager creates a Manager bound to its host server.
func NewManager(host Host) *Manager {
	m := &Manager{
		host:    host,
		keys:    make(map[string]*keyMeta),
		table:   make(map[wire.TxnID]*txnState),
		decided: make(map[wire.TxnID]decidedEntry),
	}
	m.appliers = park.New(func(st *txnState) { _ = m.commit(context.Background(), st) })
	return m
}

// Close makes the parked appliers exit; a commit being applied finishes.
func (m *Manager) Close() { m.appliers.Close() }

// SetMetrics wires the manager's instrumentation into reg (the hosting
// server's registry). Call before serving traffic.
func (m *Manager) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	m.om.validateNs = reg.Histogram(`milana_txn_stage_ns{stage="validate"}`)
	m.om.prepareNs = reg.Histogram(`milana_txn_stage_ns{stage="prepare"}`)
	m.om.decisionNs = reg.Histogram(`milana_txn_stage_ns{stage="decision"}`)
	m.om.preparedTxns = reg.Gauge("milana_prepared_txns")
	for r := 0; r < wire.NumAbortReasons; r++ {
		m.om.abortReason[r] = reg.Counter(`milana_aborts_total{reason="` + wire.AbortReason(r).String() + `"}`)
	}
	for i, outcome := range []string{"recovered-commit", "recovered-abort", "still-pending"} {
		m.om.sweep[i] = reg.Counter(`milana_sweep_total{outcome="` + outcome + `"}`)
	}
	m.om.provSkew = reg.Counter(`milana_abort_provenance_total{cause="skew"}`)
	m.om.provConflict = reg.Counter(`milana_abort_provenance_total{cause="conflict"}`)
	for i, op := range []string{"read", "prepare"} {
		m.om.park[i] = parkMetrics{
			ns:      reg.Histogram(`milana_park_ns{op="` + op + `"}`),
			parked:  reg.Gauge(`milana_parked{op="` + op + `"}`),
			expired: reg.Counter(`milana_park_expired_total{op="` + op + `"}`),
		}
	}
}

// SetSkewWindow sets the margin at or below which a losing Late* timestamp
// race is classified as skew-induced rather than a true data conflict. The
// natural choice is 2× the clock profile's Epsilon — a race involves two
// independently disciplined clocks. 0 (the default) classifies every abort
// as conflict, which is correct for perfect clocks.
func (m *Manager) SetSkewWindow(w time.Duration) {
	m.skewWindow.Store(int64(w))
}

// classifyAbort attributes a validation abort to clock skew or to a true
// data conflict. Only the Late* reasons can be skew-induced: they are the
// races a commit timestamp loses by a margin, and when that margin fits
// inside the combined clock-uncertainty window, better clocks would have
// ordered the operations the other way.
func (m *Manager) classifyAbort(code wire.AbortReason, margin time.Duration) {
	w := time.Duration(m.skewWindow.Load())
	late := code == wire.AbortLateWriteRead || code == wire.AbortLateWrite
	if late && w > 0 && margin >= 0 && margin <= w {
		m.om.provSkew.Inc()
		return
	}
	m.om.provConflict.Inc()
}

// countAbort records one server-side validation abort by reason.
func (m *Manager) countAbort(code wire.AbortReason) {
	if code < 0 || int(code) >= wire.NumAbortReasons {
		code = wire.AbortOther
	}
	m.om.abortReason[code].Inc()
}

// meta returns (creating if needed) the key's OCC state, lazily priming
// latestCommitted from the backend — after failover these values "can be
// inferred ... from the version stamps included with each write" (§4.5).
// The lookup converts key without allocating; only an insert copies it.
func (m *Manager) metaLocked(key []byte) *keyMeta {
	km := m.keys[string(key)]
	if km == nil {
		km = &keyMeta{latestRead: m.recoveryFloor}
		m.keys[string(key)] = km
	}
	if !km.committedInit {
		if ver, _, found := m.host.Backend().LatestVersion(key); found {
			km.latestCommitted = ver
		}
		km.committedInit = true
	}
	return km
}

// OnGet records a read of keys at timestamp `at` — one key for a Get, a
// request's keys for a MultiGet — and sets prepared[i] to the bit a MILANA
// client needs for local validation (§4.3): whether keys[i] still has a
// prepared version at or before `at`. A read that meets such marks parks on
// their transactions' decisions and looks again — so it reads the decided
// values instead of sending its client into an abort-and-retry spin — for at
// most DecisionWait in all, or until ctx ends; then it answers with the marks
// that remain. Parking is serializable for the reason client-local
// validation is: latestRead is raised to `at` on every key, under one hold of
// m.mu, before the first park, so no writer at or below `at` can validate
// after it, and once the prepared transactions decide, the snapshot at `at`
// is final.
func (m *Manager) OnGet(ctx context.Context, keys [][]byte, at clock.Timestamp, prepared []bool) {
	held := m.recordReads(keys, at, prepared)
	if len(held) == 0 {
		return
	}
	w := decisionWaiter{pm: &m.om.park[parkRead]}
	defer w.stop()
	for len(held) > 0 {
		for _, decided := range held {
			if !w.await(ctx, decided) {
				m.recordReads(keys, at, prepared)
				return
			}
		}
		held = m.recordReads(keys, at, prepared)
	}
}

// recordReads raises latestRead to at on every key, sets prepared[i] to
// whether keys[i] has a mark at or before at, and returns those marks'
// decided channels.
func (m *Manager) recordReads(keys [][]byte, at clock.Timestamp, prepared []bool) (held []<-chan struct{}) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, key := range keys {
		km := m.metaLocked(key)
		if at.After(km.latestRead) {
			km.latestRead = at
		}
		prepared[i] = km.mark.decided != nil && km.mark.ts.AtOrBefore(at)
		if prepared[i] {
			held = append(held, km.mark.decided)
		}
	}
	return held
}

// OnCommittedWrite records that a version of key committed (used by both
// the SEMEL put path and transactional commits).
func (m *Manager) OnCommittedWrite(key []byte, ver clock.Timestamp) {
	m.mu.Lock()
	defer m.mu.Unlock()
	km := m.metaLocked(key)
	if ver.After(km.latestCommitted) {
		km.latestCommitted = ver
	}
}

// LatestCommitted returns the youngest committed version stamp of key.
func (m *Manager) LatestCommitted(key []byte) clock.Timestamp {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.metaLocked(key).latestCommitted
}

// Prepare is 2PC phase one on a participant primary: validate with
// Algorithm 1, persist the prepared record (local log and f backups), and
// vote. For a transaction with one participant the YES vote is the commit:
// the primary commits it once the record is durable (commitOnePhase).
//
// A prepare whose only obstacle is an older transaction's prepared mark on a
// key it writes parks on that transaction's decision (wait-die ordering on
// the marks) and then runs the whole locked section again — retransmit
// check, known-decision check, Algorithm 1 — for at most DecisionWait in all
// or until ctx ends, after which it votes NO as it would have at once.
// Waiting only on smaller timestamps keeps the wait-for graph acyclic across
// shards, and the vote is still one Algorithm 1 run under m.mu, which the
// park only delays.
func (m *Manager) Prepare(ctx context.Context, req wire.PrepareRequest) (wire.PrepareResponse, error) {
	prepStart := time.Now()
	defer func() { m.om.prepareNs.ObserveSince(prepStart) }()
	rec := wire.TxnRecord{
		ID:           req.ID,
		CommitTs:     req.CommitTs,
		WriteSet:     req.WriteSet,
		Participants: req.Participants,
		Status:       wire.StatusPrepared,
	}
	w := decisionWaiter{pm: &m.om.park[parkPrepare]}
	defer w.stop()
	mayPark := true
	for {
		m.mu.Lock()
		if st, ok := m.table[req.ID]; ok { // retransmitted prepare
			m.mu.Unlock()
			if st.persisted == nil {
				return wire.PrepareResponse{OK: true}, nil
			}
			// A YES vote needs the record in the local log: answer what the
			// first copy's Persist earned, once it has.
			select {
			case <-st.persisted:
				return st.vote, st.voteErr
			case <-ctx.Done():
				return wire.PrepareResponse{}, ctx.Err()
			}
		}
		if d, ok := m.decided[req.ID]; ok { // prepare after decision
			m.mu.Unlock()
			if d.status != wire.StatusCommitted {
				return wire.PrepareResponse{OK: false}, nil
			}
			// The prepared transition: a commit that outran its prepare could
			// apply no write set, so the prepare applies it.
			rec.Status = wire.StatusCommitted
			if err := m.decide(ctx, nil, rec); err != nil {
				return wire.PrepareResponse{}, err
			}
			return wire.PrepareResponse{OK: true}, nil
		}
		valStart := time.Now()
		reason, code, margin, holder := m.validateLocked(req)
		m.om.validateNs.ObserveSince(valStart)
		obs.AttributeStage(ctx, obs.StageValidate, time.Since(valStart))
		if holder != nil && mayPark {
			m.mu.Unlock()
			mayPark = w.await(ctx, holder)
			continue
		}
		if reason != "" {
			m.decideLocked(wire.TxnRecord{ID: req.ID, Status: wire.StatusAborted})
			m.mu.Unlock()
			m.countAbort(code)
			m.classifyAbort(code, margin)
			return wire.PrepareResponse{OK: false, Reason: reason, Code: code}, nil
		}
		st := &txnState{rec: rec, preparedAt: time.Now(), persisted: make(chan struct{})}
		m.prepareLocked(st)
		m.markPreparedLocked(rec)
		m.mu.Unlock()

		st.vote, st.voteErr = m.persistPrepare(ctx, st)
		close(st.persisted)
		return st.vote, st.voteErr
	}
}

// persistPrepare makes a validated, marked prepare durable and returns the
// vote it earns.
func (m *Manager) persistPrepare(ctx context.Context, st *txnState) (wire.PrepareResponse, error) {
	// The prepared record must survive this process and this primary:
	// persist it — local log and f of 2f backups together (Figure 4/5) —
	// before voting.
	err := m.host.Persist(ctx, wire.ReplicatePrepare{Record: st.rec})
	single := onePhase(st.rec)
	if err == nil {
		if single {
			// A failed apply leaves the record prepared for the sweeper,
			// which commits it: the vote stands.
			_ = m.commitOnePhase(ctx, st)
		}
		return wire.PrepareResponse{OK: true}, nil
	}
	if errors.Is(err, ErrNotLogged) || single && !errors.Is(err, ErrNotSent) {
		// No vote: the transaction stays prepared, in doubt, for the
		// sweeper to terminate. A single-participant record that was sent
		// may be held by a backup, which committed it on receipt, so it must
		// never be aborted; the sweeper commits it.
		return wire.PrepareResponse{}, err
	}
	// No backup holds the record (and a prepare that was not sent is not
	// logged), or it has several participants and did not reach f backups.
	// Voting NO is only safe once the log says so too: replayed alone, a
	// logged prepare would let the prepared record commit under §4.5's rule
	// or CTP while its client was told it aborted. applyDecision aborts in
	// memory first and logs second — logging before the release would let a
	// concurrent checkpoint cover the abort's LSN with a table image that
	// still shows the transaction prepared.
	if lerr := m.applyDecision(ctx, st, wire.ReplicateDecision{ID: st.rec.ID}); errors.Is(lerr, ErrNotLogged) {
		return wire.PrepareResponse{}, lerr
	}
	m.countAbort(wire.AbortOther)
	return wire.PrepareResponse{OK: false, Reason: fmt.Sprintf("replication failed: %v", err)}, nil
}

// MutateSkipReadValidation deliberately weakens Algorithm 1 by skipping
// the read-set checks (read-prepared, read-stale). It exists ONLY so the
// serializability checker's mutation test can prove it detects the
// resulting anomalies: without read validation, two transactions that both
// read a key's old version and then overwrite it can both commit — the
// classic lost update, a ww/rw cycle in the dependency graph. Never set
// outside tests.
func (m *Manager) MutateSkipReadValidation(skip bool) {
	m.skipReadValidation.Store(skip)
}

// validateLocked is Algorithm 1. It returns ("", AbortNone, -1, nil) on
// success or an abort reason with its classification and, for the Late*
// reasons, the margin by which the commit timestamp lost its race (abort
// provenance). When the only obstacles are prepared marks of older
// transactions on write keys — marks whose commit would leave this
// transaction valid — the abort is write-prepared and holder is the first
// such mark's decided channel. A younger holder, whose commit would make
// this write late, and a read-set conflict, which its holder's commit would
// make stale, are not worth waiting for: they return no holder.
func (m *Manager) validateLocked(req wire.PrepareRequest) (reason string, code wire.AbortReason, margin time.Duration, holder <-chan struct{}) {
	if !m.skipReadValidation.Load() {
		for _, rk := range req.ReadSet {
			km := m.metaLocked(rk.Key)
			if km.mark.decided != nil && km.mark.by != req.ID {
				return fmt.Sprintf("read key %q has a prepared version", rk.Key), wire.AbortReadPrepared, -1, nil
			}
			if km.latestCommitted != rk.Version {
				return fmt.Sprintf("read key %q changed: read %v, latest %v", rk.Key, rk.Version, km.latestCommitted), wire.AbortReadStale, -1, nil
			}
		}
	}
	newVersion := req.CommitTs
	var heldKey []byte
	for _, kv := range req.WriteSet {
		km := m.metaLocked(kv.Key)
		if km.mark.decided != nil && km.mark.by != req.ID {
			if !km.mark.ts.Before(newVersion) {
				return fmt.Sprintf("write key %q has a prepared version", kv.Key), wire.AbortWritePrepared, -1, nil
			}
			if holder == nil {
				heldKey, holder = kv.Key, km.mark.decided
			}
		}
		if km.latestRead.Compare(newVersion) >= 0 {
			return fmt.Sprintf("write key %q read at %v ≥ commit %v", kv.Key, km.latestRead, newVersion), wire.AbortLateWriteRead, tickMargin(km.latestRead, newVersion), nil
		}
		if km.latestCommitted.Compare(newVersion) >= 0 {
			return fmt.Sprintf("write key %q committed at %v ≥ commit %v", kv.Key, km.latestCommitted, newVersion), wire.AbortLateWrite, tickMargin(km.latestCommitted, newVersion), nil
		}
	}
	if holder != nil {
		return fmt.Sprintf("write key %q has a prepared version", heldKey), wire.AbortWritePrepared, -1, holder
	}
	return "", wire.AbortNone, -1, nil
}

// tickMargin is how far winner leads loser on the tick axis (0 for a pure
// client-ID tiebreak): the margin the loser's clock would have needed to
// make up to win the race.
func tickMargin(winner, loser clock.Timestamp) time.Duration {
	d := winner.Ticks - loser.Ticks
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// markPreparedLocked arms rec's prepared marks on its write set; every site
// that sets a mark goes through it. A mark another transaction still holds
// (only ArmPrepared can overwrite one) is released first, so reads parked on
// it wake and look again.
func (m *Manager) markPreparedLocked(rec wire.TxnRecord) {
	for _, kv := range rec.WriteSet {
		km := m.metaLocked(kv.Key)
		if km.mark.decided != nil {
			if km.mark.by == rec.ID {
				continue
			}
			close(km.mark.decided)
		}
		km.mark = mark{ts: rec.CommitTs, by: rec.ID, decided: make(chan struct{})}
	}
}

// prepareLocked is the prepared transition, under m.mu: it inserts st into
// the table unless its transaction is already there or already decided, and
// returns the known decision, or StatusPrepared. A known commit's write set
// is the caller's to apply, through decide once m.mu is released: the
// decision that outran this prepare had none to apply.
func (m *Manager) prepareLocked(st *txnState) wire.TxnStatus {
	if d, ok := m.decided[st.rec.ID]; ok {
		return d.status
	}
	if _, ok := m.table[st.rec.ID]; !ok {
		m.table[st.rec.ID] = st
		m.om.preparedTxns.Set(int64(len(m.table)))
	}
	return wire.StatusPrepared
}

// decide is the decided transition for rec.ID with rec.Status. st is the
// table entry the caller found for the transaction (nil if none): its record,
// not rec, says what the transaction wrote. On commit the write set is
// applied first — so a read parked on a mark wakes to the decided value, and
// a decision's log record follows its apply — then decideLocked runs. A
// prepare that reaches the table while the commit is being applied has its
// write set applied too before the decision is recorded, so a decision never
// drops a write set it raced with.
func (m *Manager) decide(ctx context.Context, st *txnState, rec wire.TxnRecord) error {
	for {
		if st != nil {
			status := rec.Status
			rec = st.rec
			rec.Status = status
		}
		if rec.Status == wire.StatusCommitted {
			// Apply writes in parallel: they pack into shared flash pages, so
			// the prepared window (during which validations against these
			// keys abort) stays near one device write, not one per key.
			if err := m.applyWriteSet(ctx, rec); err != nil {
				return fmt.Errorf("milana: applying commit of %v: %w", rec.ID, err)
			}
		}
		m.mu.Lock()
		cur := m.table[rec.ID]
		if cur == nil || cur == st {
			m.decideLocked(rec)
			m.mu.Unlock()
			return nil
		}
		m.mu.Unlock()
		st = cur
	}
}

// commitOnePhase takes the decided transition for st, the table entry of a
// transaction with one participant, as a commit: its prepared record is its
// commit, so no decision is sent or logged for it. It runs the way
// storage.ForEach runs per-key work. On a backend that never waits it runs
// inline, on ctx, before the caller answers, and the apply is charged to
// ctx's ledger. On one that waits it runs on a parked applier once the caller
// has answered, so a vote or an ack never waits on a flash program. Either
// way the entry stays in the table, and its marks stay armed, until the write
// set is applied: a read parks on the marks, a checkpoint lists the record,
// and a replay of it commits it. An apply that fails leaves the record
// prepared; on a primary the sweeper commits it.
func (m *Manager) commitOnePhase(ctx context.Context, st *txnState) error {
	if m.host.Backend().Blocking() {
		m.appliers.Go(st)
		return nil
	}
	return m.commit(ctx, st)
}

// onePhase reports whether rec's transaction has one participant, so that its
// prepared record is its commit.
func onePhase(rec wire.TxnRecord) bool { return len(rec.Participants) <= 1 }

// commit takes the decided transition for st as a commit.
func (m *Manager) commit(ctx context.Context, st *txnState) error {
	return m.decide(ctx, st, wire.TxnRecord{ID: st.rec.ID, Status: wire.StatusCommitted})
}

// decideLocked records rec's decision, under m.mu: it releases the prepared
// marks rec's transaction holds and wakes the reads parked on them, raises
// latestCommitted on a commit, drops the table entry and remembers the
// outcome. It touches only key state that already exists — creating or
// priming an entry would read the device under m.mu, and a key with no entry
// is primed on first touch from a backend that already holds the write set.
// It is the only function that deletes from the table or records a decision.
func (m *Manager) decideLocked(rec wire.TxnRecord) {
	for _, kv := range rec.WriteSet {
		km := m.keys[string(kv.Key)]
		if km == nil {
			continue
		}
		if km.mark.decided != nil && km.mark.by == rec.ID {
			close(km.mark.decided)
			km.mark = mark{}
		}
		if rec.Status == wire.StatusCommitted && rec.CommitTs.After(km.latestCommitted) {
			km.latestCommitted = rec.CommitTs
		}
	}
	delete(m.table, rec.ID)
	m.decided[rec.ID] = decidedEntry{status: rec.Status, at: time.Now()}
	m.pruneDecidedLocked()
	m.om.preparedTxns.Set(int64(len(m.table)))
}

// Decision is 2PC phase two on a participant primary. A decision for a
// transaction this primary never prepared (a CTP abort that outran the
// prepare) is remembered, so the late prepare follows it.
func (m *Manager) Decision(ctx context.Context, req wire.DecisionRequest) (wire.DecisionResponse, error) {
	m.mu.Lock()
	st := m.table[req.ID]
	_, decided := m.decided[req.ID]
	m.mu.Unlock()
	if st == nil && decided {
		return wire.DecisionResponse{}, nil // duplicate decision: idempotent
	}
	return wire.DecisionResponse{}, m.applyDecision(ctx, st, wire.ReplicateDecision{ID: req.ID, Commit: req.Commit})
}

// applyDecision is how a primary decides — for its client door, its CTP
// sweeper, a peer's notification and the recovery merge: the decided
// transition, then Persist. Durability comes before the decision is
// acknowledged on every one of those paths, and strictly AFTER the state
// change, because the WAL checkpoint assumes state gathered after reading
// DurableLSN covers every durable record: logging first would let a
// concurrent checkpoint GC the prepare's write set while the backend image
// predates the apply. The same Persist propagates the decision so backups
// apply the write set; like prepares, only f acknowledgements are required
// and order with other records is irrelevant (Figure 5).
func (m *Manager) applyDecision(ctx context.Context, st *txnState, d wire.ReplicateDecision) error {
	decStart := time.Now()
	defer func() { m.om.decisionNs.ObserveSince(decStart) }()
	if err := m.decide(ctx, st, d.Record()); err != nil {
		return err
	}
	if err := m.host.Persist(ctx, d); err != nil {
		return fmt.Errorf("milana: persisting decision of %v: %w", d.ID, err)
	}
	return nil
}

// applyWriteSet writes every key of a committed transaction to the backend
// through storage.ForEach — concurrently on flash, where the puts pack into
// shared pages and the prepared window (during which validations against
// these keys abort) stays near one device write, not one per key; inline on
// DRAM, which never waits — and returns the lowest-index error. The whole
// apply is charged to the caller's flash-program stage when ctx carries a
// ledger.
func (m *Manager) applyWriteSet(ctx context.Context, rec wire.TxnRecord) error {
	if led := obs.ReqFrom(ctx).Ledger; led != nil {
		start := time.Now()
		defer func() { led.Add(obs.StageFlashProgram, time.Since(start)) }()
	}
	b := m.host.Backend()
	return storage.ForEach(b, len(rec.WriteSet), func(i int) error {
		kv := rec.WriteSet[i]
		return b.Put(kv.Key, kv.Val, rec.CommitTs)
	})
}

// Status serves CTP queries (§4.5).
func (m *Manager) Status(id wire.TxnID) wire.TxnStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.table[id]; ok {
		return wire.StatusPrepared
	}
	if d, ok := m.decided[id]; ok {
		return d.status
	}
	return wire.StatusUnknown
}

// pruneDecidedLocked bounds decided-map memory. Decisions older than
// decidedRetention can no longer be queried; an in-doubt participant asking
// about one would see Unknown and abort — impossible in practice because
// in-doubt transactions are terminated within the prepared timeout, far
// inside the retention window. The sweep is rate-limited so bursts of
// decisions stay amortized O(1) per insert.
func (m *Manager) pruneDecidedLocked() {
	if len(m.decided) < 4096 || time.Since(m.lastPrune) < time.Second {
		return
	}
	m.lastPrune = time.Now()
	cutoff := time.Now().Add(-decidedRetention)
	for id, d := range m.decided {
		if d.at.Before(cutoff) {
			delete(m.decided, id)
		}
	}
}

// ---- every other route: backup delivery, anti-entropy, replay, recovery ----

// Learn brings one transaction record to this replica by any route but the
// primary's client door — backup delivery, anti-entropy, WAL replay,
// checkpoint install and the recovery merge — in any order, since
// inconsistent replication may deliver a decision before its prepare
// (Figure 5). A prepared record takes the prepared transition: the late
// prepare of a committed transaction applies the write set its decision
// could not, and that of an aborted one is dropped; one with a single
// participant then commits (commitOnePhase). A decided record (a
// ReplicateDecision is TxnRecord{ID, Status}) takes the decided transition,
// which applies a commit's write set from the table entry — on replay, the
// only way back for data a primary wrote straight to its backend. Learn
// neither validates nor persists (the caller logs the record if it must)
// and arms no prepared marks (see ArmPrepared).
func (m *Manager) Learn(ctx context.Context, rec wire.TxnRecord) error {
	switch rec.Status {
	case wire.StatusPrepared:
		st := &txnState{rec: rec, preparedAt: time.Now()}
		m.mu.Lock()
		status := m.prepareLocked(st)
		m.mu.Unlock()
		switch {
		case status == wire.StatusCommitted:
			rec.Status = status
			return m.decide(ctx, nil, rec)
		case status == wire.StatusPrepared && onePhase(rec):
			return m.commitOnePhase(ctx, st)
		}
		return nil
	case wire.StatusCommitted, wire.StatusAborted:
		m.mu.Lock()
		st := m.table[rec.ID]
		m.mu.Unlock()
		return m.decide(ctx, st, rec)
	default:
		return fmt.Errorf("milana: cannot learn %v in status %v", rec.ID, rec.Status)
	}
}

// ArmPrepared arms the prepared marks of every transaction in the table. Call
// it when this replica becomes a serving primary — after the recovery merge,
// or after WAL replay when it starts as one: reads and validation consult
// marks only there, so a restarted or promoted primary that validated
// against the unmarked keys of an in-doubt prepare would let a write slide
// between the prepare and its eventual commit — an rw/ww cycle.
func (m *Manager) ArmPrepared() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, st := range m.table {
		m.markPreparedLocked(st.rec)
	}
}

// tableStates snapshots the transaction table.
func (m *Manager) tableStates() []*txnState {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*txnState, 0, len(m.table))
	for _, st := range m.table {
		out = append(out, st)
	}
	return out
}

// ---- in-doubt termination (client failure, §4.5) ----

// SweepResult classifies the outcomes of one CTP sweep: how many stale
// prepared transactions were terminated as commits, how many as aborts, and
// how many stayed in doubt (a participant unreachable, or the decision
// could not be applied) for a later sweep to retry.
type SweepResult struct {
	RecoveredCommit int
	RecoveredAbort  int
	StillPending    int
}

// Terminated returns the number of transactions the sweep resolved.
func (r SweepResult) Terminated() int { return r.RecoveredCommit + r.RecoveredAbort }

// SweepPrepared terminates transactions that have been prepared for longer
// than timeout, implementing the Cooperative Termination Protocol. The
// designated backup coordinator (the lowest-numbered participant) sweeps
// first; the other participants hold off for one extra timeout and then
// run CTP themselves — without that second line, a transaction whose
// coordinator shard already decided (a client decision that reached only
// some participants before its messages were lost) leaves the others
// prepared forever, since the coordinator's table no longer holds it. CTP's
// rules are participant-symmetric, so any participant may terminate: a
// decision seen anywhere is adopted, and concurrent terminations converge.
// Reports the per-outcome breakdown, which also feeds the
// milana_sweep_total{outcome=...} counters.
func (m *Manager) SweepPrepared(ctx context.Context, timeout time.Duration) SweepResult {
	var res SweepResult
	now := time.Now()
	for _, st := range m.tableStates() {
		age := now.Sub(st.preparedAt)
		if age <= timeout {
			continue
		}
		if coordinatorShard(st.rec.Participants) != m.host.ShardID() && age <= 2*timeout {
			continue // give the designated coordinator the first shot
		}
		commit, ok := m.terminate(ctx, st.rec)
		if !ok {
			res.StillPending++ // a participant is unreachable; stay blocked
			continue
		}
		if err := m.applyDecision(ctx, st, wire.ReplicateDecision{ID: st.rec.ID, Commit: commit}); err != nil {
			res.StillPending++
			continue
		}
		m.notifyParticipants(ctx, st.rec, commit)
		if commit {
			res.RecoveredCommit++
		} else {
			res.RecoveredAbort++
		}
	}
	m.om.sweep[0].Add(int64(res.RecoveredCommit))
	m.om.sweep[1].Add(int64(res.RecoveredAbort))
	m.om.sweep[2].Add(int64(res.StillPending))
	return res
}

func coordinatorShard(participants []int) int {
	if len(participants) == 0 {
		return -1
	}
	minShard := participants[0]
	for _, p := range participants[1:] {
		if p < minShard {
			minShard = p
		}
	}
	return minShard
}

// terminate runs the CTP decision rules against the other participants:
//
//  1. any participant saw a decision → adopt it;
//  2. any participant never received the prepare → abort;
//  3. any participant voted abort → abort;
//  4. all participants prepared successfully → commit.
func (m *Manager) terminate(ctx context.Context, rec wire.TxnRecord) (commit, ok bool) {
	if onePhase(rec) {
		// §4.5: a prepared single-shard transaction "would have been
		// committed" — here only one whose apply failed or whose Persist
		// sent the record without the acknowledgements to vote (see
		// persistPrepare). Its client sends no decision: the prepared
		// record is the commit.
		return true, true
	}
	for _, p := range rec.Participants {
		if p == m.host.ShardID() {
			continue
		}
		resp, err := m.host.CallPrimary(ctx, p, wire.StatusRequest{ID: rec.ID})
		if err != nil {
			return false, false
		}
		sr, isStatus := resp.(wire.StatusResponse)
		if !isStatus {
			return false, false
		}
		switch sr.Status {
		case wire.StatusCommitted:
			return true, true
		case wire.StatusAborted, wire.StatusUnknown:
			return false, true
		case wire.StatusPrepared:
			// keep polling the rest
		}
	}
	return true, true
}

// notifyParticipants pushes a termination decision to the other primaries.
func (m *Manager) notifyParticipants(ctx context.Context, rec wire.TxnRecord, commit bool) {
	for _, p := range rec.Participants {
		if p == m.host.ShardID() {
			continue
		}
		_, _ = m.host.CallPrimary(ctx, p, wire.DecisionRequest{ID: rec.ID, Commit: commit})
	}
}

// ---- cold-restart recovery (WAL replay) ----

// SetRecoveryFloor declares that reads at or below ts may have been served
// before a restart. latestRead is DRAM-only (§4.1) and vanishes with the
// process; without a floor, a write validated after restart could slide
// under a pre-crash read and break serializability. Every key whose OCC
// state is created after this call starts with latestRead = ts; keys
// already tracked are raised to it.
func (m *Manager) SetRecoveryFloor(ts clock.Timestamp) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ts.After(m.recoveryFloor) {
		m.recoveryFloor = ts
	}
	for _, km := range m.keys {
		if ts.After(km.latestRead) {
			km.latestRead = ts
		}
	}
}

// ---- failover (Algorithm 2) ----

// TableRecords snapshots this replica's transaction table (both prepared
// and recently decided entries) for a recovery pull.
func (m *Manager) TableRecords() []wire.TxnRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]wire.TxnRecord, 0, len(m.table)+len(m.decided))
	for _, st := range m.table {
		out = append(out, st.rec)
	}
	for id, d := range m.decided {
		out = append(out, wire.TxnRecord{ID: id, Status: d.status})
	}
	return out
}

// MergeRecovered is Algorithm 2: it merges the transaction records gathered
// from f+1 replicas into the new primary's table, Learns each merged record
// — committed transactions are re-applied idempotently, since some replicas
// (this one included) may have missed the writes — and then terminates the
// transactions still prepared: single-shard ones commit, multi-shard ones
// go through CTP. The caller arms the marks of those that stay in doubt
// (ArmPrepared) once the merge is done.
func (m *Manager) MergeRecovered(ctx context.Context, pulled [][]wire.TxnRecord) error {
	// Reduce to the strongest known status per transaction while never
	// losing a write set: one replica may know only the decision (a
	// ReplicateDecision that outran its prepare) while another holds the
	// prepared record carrying the writes. Dropping the write set here
	// would lose a committed transaction's data on the new primary.
	best := make(map[wire.TxnID]wire.TxnRecord)
	merge := func(rec wire.TxnRecord) {
		cur, seen := best[rec.ID]
		if !seen {
			best[rec.ID] = rec
			return
		}
		if rank(rec.Status) > rank(cur.Status) {
			if len(rec.WriteSet) == 0 && len(cur.WriteSet) > 0 {
				rec.WriteSet = cur.WriteSet
				rec.CommitTs = cur.CommitTs
				rec.Participants = cur.Participants
			}
			best[rec.ID] = rec
			return
		}
		if len(cur.WriteSet) == 0 && len(rec.WriteSet) > 0 {
			cur.WriteSet = rec.WriteSet
			cur.CommitTs = rec.CommitTs
			cur.Participants = rec.Participants
			best[rec.ID] = cur
		}
	}
	for _, records := range pulled {
		for _, rec := range records {
			merge(rec)
		}
	}
	for _, st := range m.tableStates() {
		merge(st.rec)
	}
	for _, rec := range best {
		if err := m.Learn(ctx, rec); err != nil {
			return err
		}
	}
	for _, st := range m.tableStates() {
		commit, ok := m.terminate(ctx, st.rec)
		if !ok {
			continue // stays in doubt; the sweeper retries
		}
		if err := m.applyDecision(ctx, st, wire.ReplicateDecision{ID: st.rec.ID, Commit: commit}); err != nil {
			return err
		}
		m.notifyParticipants(ctx, st.rec, commit)
	}
	return nil
}

func rank(s wire.TxnStatus) int {
	switch s {
	case wire.StatusCommitted:
		return 3
	case wire.StatusAborted:
		return 2
	case wire.StatusPrepared:
		return 1
	default:
		return 0
	}
}

// PreparedCount reports the number of in-doubt transactions (tests).
func (m *Manager) PreparedCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.table)
}
