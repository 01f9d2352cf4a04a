// Package wire defines every RPC message exchanged between SEMEL/MILANA
// clients and servers. Messages are plain structs so they travel unchanged
// over both the in-process bus and (encoded by codec.go) the TCP transport.
package wire

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/obs"
)

// ---- SEMEL key-value operations (§3) ----

// GetRequest reads the youngest version of Key with timestamp ≤ At.
type GetRequest struct {
	Key []byte
	At  clock.Timestamp
	// AnyReplica permits a backup to serve the read (§4.6: read-write
	// transactions "can read data from the nearest replica and validate
	// at the primary before commit"). Backup reads return no prepared
	// bit and record no read timestamp, so they are NOT safe for
	// client-local validation — the transaction must validate remotely.
	AnyReplica bool
}

// GetResponse carries the version read plus the prepared bit MILANA clients
// use for local validation (§4.3).
type GetResponse struct {
	Val     []byte
	Version clock.Timestamp
	Found   bool
	// PreparedAtOrBefore reports whether the key still had a prepared (but
	// not yet decided) version with timestamp ≤ At after a bounded park on
	// that transaction's decision.
	PreparedAtOrBefore bool
	// SnapshotMiss reports that the snapshot at At is no longer
	// available (single-version backends only); the reader must abort.
	SnapshotMiss bool
}

// MultiGetRequest reads several keys of one shard in a single round trip,
// all at the same snapshot timestamp.
type MultiGetRequest struct {
	Keys       [][]byte
	At         clock.Timestamp
	AnyReplica bool
}

// MultiGetResponse carries one GetResponse per requested key, in order.
type MultiGetResponse struct {
	Items []GetResponse
}

// PutRequest creates a new version of Key (non-transactional SEMEL write).
type PutRequest struct {
	Key     []byte
	Val     []byte
	Version clock.Timestamp
}

// PutResponse reports acceptance. Rejected means the version was older
// than the key's current version (§3.3 at-most-once rule).
type PutResponse struct {
	Rejected bool
}

// DeleteRequest writes a tombstone for Key.
type DeleteRequest struct {
	Key     []byte
	Version clock.Timestamp
}

// DeleteResponse mirrors PutResponse.
type DeleteResponse struct {
	Rejected bool
}

// ---- replication (primary → backup, unordered; §3.2) ----

// DataOp is one replicated version write. TC is the originating request's
// trace context: the replication batcher coalesces ops from many concurrent
// writers into one ReplicateData envelope, so causality must travel per op,
// not per envelope — each op on a backup records its span under the writer
// that produced it.
type DataOp struct {
	Key       []byte
	Val       []byte
	Version   clock.Timestamp
	Tombstone bool
	TC        obs.TraceContext
}

// ReplicateData applies version writes on a backup, in any order.
type ReplicateData struct {
	Ops []DataOp
}

// Replicated wraps primary→backup replication traffic with the sender's
// shard epoch: a replica that has observed a newer epoch rejects the
// message, so a deposed regime's in-flight deliveries cannot retroactively
// mutate state the new primary is already serializing against. The fenced
// operation is not lost — it was f-acknowledged before the failover, so the
// recovery merge (or anti-entropy against the new primary) already carries
// it.
type Replicated struct {
	Epoch uint64
	Msg   any
}

// Ack is the empty success response.
type Ack struct{}

// BatchAck is a backup's per-op response to a batched ReplicateData: Errs[i]
// is the error string for Ops[i], or "" if that op applied cleanly. A nil
// Errs slice means every op applied. Per-op granularity lets the primary's
// replication batcher demultiplex acknowledgements, so one rejected op does
// not fail its batchmates.
type BatchAck struct {
	Errs []string
}

// ---- watermarks (§3.1, §4.4) ----

// WatermarkBroadcast reports a client's latest decided timestamp.
type WatermarkBroadcast struct {
	Client uint32
	Ts     clock.Timestamp
}

// ---- MILANA transactions (§4) ----

// TxnID names a transaction: coordinating client plus a client-local
// sequence number.
type TxnID struct {
	Client uint32
	Seq    uint64
}

// String renders the ID as "client.seq".
func (id TxnID) String() string { return fmt.Sprintf("%d.%d", id.Client, id.Seq) }

// TraceID derives the deterministic trace ID of this transaction's spans:
// anyone holding the TxnID (e.g. `milctl trace <client.seq>`) can compute it
// without a lookup. The top bit keeps it disjoint from SpanStore.NextID.
func (id TxnID) TraceID() uint64 {
	return 1<<63 | uint64(id.Client)<<40 | (id.Seq & (1<<40 - 1))
}

// TxnStatus is a transaction's state in a primary's transaction table.
type TxnStatus int

// Transaction states, in the CTP sense of §4.5.
const (
	StatusUnknown TxnStatus = iota
	StatusPrepared
	StatusCommitted
	StatusAborted
)

// String names the status.
func (s TxnStatus) String() string {
	switch s {
	case StatusPrepared:
		return "PREPARED"
	case StatusCommitted:
		return "COMMITTED"
	case StatusAborted:
		return "ABORTED"
	default:
		return "UNKNOWN"
	}
}

// KV is one buffered transactional write.
type KV struct {
	Key []byte
	Val []byte
}

// ReadKey is one read-set entry: the key and the version the client read.
type ReadKey struct {
	Key     []byte
	Version clock.Timestamp
}

// PrepareRequest is phase one of 2PC, sent to the primary of each
// participant shard with that shard's slice of the read and write sets
// (§4.2).
type PrepareRequest struct {
	ID       TxnID
	CommitTs clock.Timestamp
	ReadSet  []ReadKey
	WriteSet []KV
	// Participants lists all shards involved, for recovery (§4.5).
	Participants []int
}

// AbortReason classifies why validation failed (Algorithm 1's branches),
// for instrumentation.
type AbortReason int

// Abort reasons. The "Late" reasons are the clock-skew-sensitive ones: a
// commit timestamp that lost the race against a later read or commit.
const (
	AbortNone          AbortReason = iota
	AbortReadPrepared              // read-set key has a prepared version (line 3)
	AbortReadStale                 // read-set version no longer latest (line 5)
	AbortWritePrepared             // write-set key has a prepared version (line 11)
	AbortLateWriteRead             // key read at ts ≥ commit ts (line 13)
	AbortLateWrite                 // committed version ts ≥ commit ts (line 15)
	AbortOther
)

// NumAbortReasons sizes per-reason counters.
const NumAbortReasons = int(AbortOther) + 1

// String names the reason.
func (r AbortReason) String() string {
	switch r {
	case AbortNone:
		return "none"
	case AbortReadPrepared:
		return "read-prepared"
	case AbortReadStale:
		return "read-stale"
	case AbortWritePrepared:
		return "write-prepared"
	case AbortLateWriteRead:
		return "late-write-vs-read"
	case AbortLateWrite:
		return "late-write-vs-commit"
	default:
		return "other"
	}
}

// PrepareResponse is a participant's vote.
type PrepareResponse struct {
	OK     bool
	Reason string
	Code   AbortReason
}

// DecisionRequest is phase two: the coordinator's commit/abort decision.
type DecisionRequest struct {
	ID     TxnID
	Commit bool
}

// DecisionResponse acknowledges a decision.
type DecisionResponse struct{}

// StatusRequest queries a participant for a transaction's status
// (Cooperative Termination Protocol, §4.5).
type StatusRequest struct {
	ID TxnID
}

// StatusResponse carries the participant's view.
type StatusResponse struct {
	Status TxnStatus
}

// TxnRecord is the transaction-table entry replicated to backups.
type TxnRecord struct {
	ID           TxnID
	CommitTs     clock.Timestamp
	WriteSet     []KV
	Participants []int
	Status       TxnStatus
}

// ReplicatePrepare ships a prepared transaction record to a backup.
type ReplicatePrepare struct {
	Record TxnRecord
}

// ReplicateDecision ships a commit/abort decision to a backup, which
// applies the write set it stored at prepare time.
type ReplicateDecision struct {
	ID     TxnID
	Commit bool
}

// Record is the decision as a bare transaction record: TxnRecord{ID, Status}.
func (d ReplicateDecision) Record() TxnRecord {
	if d.Commit {
		return TxnRecord{ID: d.ID, Status: StatusCommitted}
	}
	return TxnRecord{ID: d.ID, Status: StatusAborted}
}

// ---- recovery and leases (§4.5) ----

// LeaseRequest renews the primary's read lease on a backup until Expiry
// (backup-local clock).
type LeaseRequest struct {
	Primary string
	Expiry  clock.Timestamp
}

// LeaseResponse grants or refuses the lease.
type LeaseResponse struct {
	Granted bool
}

// RecoveryPullRequest asks a replica for everything a new primary needs to
// rebuild shard state.
type RecoveryPullRequest struct {
	// Since bounds the data returned: versions at or below this
	// timestamp are already safe everywhere (watermark).
	Since clock.Timestamp
}

// RecoveryPullResponse is a replica's full contribution to the merge of
// Algorithm 2.
type RecoveryPullResponse struct {
	Txns        []TxnRecord
	Data        []DataOp
	LeaseExpiry clock.Timestamp
}

// StatsRequest asks a replica for its metrics snapshot.
type StatsRequest struct{}

// StatsResponse carries a replica's full obs.Registry snapshot — op and
// decision counters, latency histograms, clock, watermark, WAL and audit
// gauges — the one source of every number a replica view prints. Snapshots
// from many replicas merge client-side (obs.Snapshot.Merge) into
// cluster-wide distributions.
type StatsResponse struct {
	Addr string
	Obs  obs.Snapshot
}

// TraceRequest asks a replica for its retained spans of one trace.
type TraceRequest struct {
	TraceID uint64
}

// TraceResponse carries the replica's spans — stamped with its own, possibly
// skewed, clock — plus its clock-health estimate so the collector can align
// them and annotate the residual uncertainty.
type TraceResponse struct {
	Addr  string
	Spans []obs.SpanRecord
	Clock clock.Health
}

// AuditRequest asks a replica for its retained flight-recorder artifacts;
// the auditor's counters are audit_* series in the StatsResponse snapshot.
type AuditRequest struct{}

// AuditResponse carries the flight-recorder dumps JSON-encoded
// (audit.Artifact), oldest first — wire cannot name the audit types
// directly (audit builds on check, which builds on wire), so they travel as
// opaque blobs and are decoded by the tools that display them.
type AuditResponse struct {
	Addr      string
	Artifacts [][]byte
}

// TSDBRequest asks a replica for recent samples from its embedded
// time-series store. Patterns are substring filters over series names (none
// = every series); LastN caps how many samples each series returns (0 = the
// full retained window).
type TSDBRequest struct {
	Patterns []string
	LastN    int
}

// TSDBResponse carries the matching series, delta-encoded exactly as the
// store keeps them (obs.SeriesDump). IntervalNs is the sampling period, so
// a consumer can put wall-time on the x axis; zero means no store attached.
type TSDBResponse struct {
	Addr       string
	IntervalNs int64
	Series     []obs.SeriesDump
}

// ---- durability (write-ahead log checkpoints) ----

// WALCheckpoint is the snapshot a replica writes as its write-ahead-log
// checkpoint: everything needed to rebuild the server without replaying the
// records the checkpoint covers. It never crosses the network — it is
// framed into a checkpoint file — but it rides the frozen codec v1 so
// on-disk state is as version-stable as the wire.
type WALCheckpoint struct {
	// Epoch is the replication epoch at checkpoint time.
	Epoch uint64
	// Watermark is the GC watermark; versions at or below it are safe
	// everywhere and the backend may keep only the youngest.
	Watermark clock.Timestamp
	// LeasePrimary/LeaseExpiry capture the read lease this replica had
	// granted (backups), so a restart cannot forget a promise it made.
	LeasePrimary string
	LeaseExpiry  clock.Timestamp
	// Txns is the prepared/decided transaction table (Algorithm 2 input).
	Txns []TxnRecord
	// Data is the full multi-version store above the watermark.
	Data []DataOp
}
