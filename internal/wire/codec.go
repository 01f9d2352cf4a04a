// Codec v1: explicit, versioned, length-free binary encoding for every
// registered wire message. The transport's frame layer length-prefixes and
// tags each message (internal/transport/frame.go); this file owns only the
// payload bytes:
//
//	payload := typeID(uvarint) fields...
//
// Field encodings (frozen; see the golden-bytes test):
//
//	bool        one byte, 0 or 1
//	intN        zig-zag varint (binary.AppendVarint)
//	uintN       uvarint
//	string      uvarint length + raw bytes
//	[]byte      0 = nil, else uvarint(len+1) + raw bytes
//	slice       0 = nil, else uvarint(len+1) + elements
//	map         0 = nil, else uvarint(len+1) + entries in sorted key order
//	Timestamp   varint ticks + uvarint client
//
// Versioning rules: type IDs and field order are append-only — a new field
// goes at the end of its message under a NEW type ID (vN+1 message) or a
// new message type; existing IDs never change meaning. A peer that does
// not know a type ID cannot decode the frame and drops the connection, so
// a new message is deployed to receivers before any sender uses it.
//
// There is no reflection anywhere on these paths, and encoding appends to
// a caller-owned (pooled) buffer, so a steady-state encode allocates
// nothing.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/transport"
)

// Codec is the codec-v1 implementation installed into the transport by this
// package's init. Exported so benchmarks and tests can drive it directly.
var Codec transport.Codec = codecV1{}

type codecV1 struct{}

func (codecV1) Append(buf []byte, msg any) ([]byte, error) { return appendMessage(buf, msg) }

func (codecV1) Decode(data []byte) (any, error) {
	r := reader{b: data}
	v, err := decMessage(&r)
	if err != nil {
		return nil, err
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after message", len(r.b))
	}
	return v, nil
}

// Type IDs are part of the on-wire format: append-only, never renumbered.
const (
	tGetRequest uint64 = iota + 1
	tGetResponse
	tMultiGetRequest
	tMultiGetResponse
	tPutRequest
	tPutResponse
	tDeleteRequest
	tDeleteResponse
	tReplicateData
	tReplicated
	tAck
	tBatchAck
	tWatermarkBroadcast
	tPrepareRequest
	tPrepareResponse
	tDecisionRequest
	tDecisionResponse
	tStatusRequest
	tStatusResponse
	tReplicatePrepare
	tReplicateDecision
	tLeaseRequest
	tLeaseResponse
	tRecoveryPullRequest
	tRecoveryPullResponse
	_ // 26, 27: retired (PromoteRequest/PromoteResponse); never reuse
	_
	_ // 28, 29: retired (StatsRequest/StatsResponse v1, with counters); never reuse
	_
	tTraceRequest
	tTraceResponse
	_ // 32, 33: retired (TimeHealthRequest/TimeHealthResponse); never reuse
	_
	_ // 34, 35: retired (AuditRequest/AuditResponse v1, with a summary); never reuse
	_
	tTSDBRequest
	tTSDBResponse
	tWALCheckpoint
	_ // 39, 40: retired (WALStatusRequest/WALStatusResponse); never reuse
	_
	tStatsRequest
	tStatsResponse
	tAuditRequest
	tAuditResponse
)

var (
	errTruncated   = errors.New("wire: truncated message")
	errBadLength   = errors.New("wire: implausible collection length")
	errUnknownType = errors.New("wire: unknown message type id")
)

// ---- append primitives ----

func au(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func ai(b []byte, v int64) []byte  { return binary.AppendVarint(b, v) }
func aStr(b []byte, s string) []byte {
	b = au(b, uint64(len(s)))
	return append(b, s...)
}

// aBytes keeps the nil/empty distinction: 0 = nil, n+1 = n payload bytes.
func aBytes(b, p []byte) []byte {
	if p == nil {
		return append(b, 0)
	}
	b = au(b, uint64(len(p))+1)
	return append(b, p...)
}

// aLen encodes a slice/map length with the same nil/empty scheme.
func aLen(b []byte, n int, isNil bool) []byte {
	if isNil {
		return append(b, 0)
	}
	return au(b, uint64(n)+1)
}

func aBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func aTs(b []byte, t clock.Timestamp) []byte {
	b = ai(b, t.Ticks)
	return au(b, uint64(t.Client))
}

func aTC(b []byte, tc obs.TraceContext) []byte {
	b = au(b, tc.TraceID)
	b = au(b, tc.SpanID)
	return aBool(b, tc.Sampled)
}

// ---- decode primitives ----

type reader struct {
	b   []byte
	err error
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.err = errTruncated
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.err = errTruncated
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) bool() bool {
	if r.err != nil {
		return false
	}
	if len(r.b) < 1 {
		r.err = errTruncated
		return false
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v != 0
}

func (r *reader) raw(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b) {
		r.err = errTruncated
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

// str copies, because the frame buffer is pooled and recycled after decode.
func (r *reader) str() string {
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.b)) {
		r.err = errTruncated
		return ""
	}
	return string(r.raw(int(n)))
}

func (r *reader) bytes() []byte {
	n := r.uvarint()
	if n == 0 || r.err != nil {
		return nil
	}
	p := r.raw(int(n - 1))
	if r.err != nil {
		return nil
	}
	out := make([]byte, len(p))
	copy(out, p)
	return out
}

// length decodes a slice/map length, rejecting counts that cannot fit in
// the remaining bytes (each element costs at least one byte).
func (r *reader) length() (n int, isNil bool) {
	v := r.uvarint()
	if r.err != nil || v == 0 {
		return 0, true
	}
	v--
	if v > uint64(len(r.b)) {
		r.err = errBadLength
		return 0, true
	}
	return int(v), false
}

func (r *reader) ts() clock.Timestamp {
	t := r.varint()
	c := r.uvarint()
	return clock.Timestamp{Ticks: t, Client: uint32(c)}
}

func (r *reader) tc() obs.TraceContext {
	return obs.TraceContext{TraceID: r.uvarint(), SpanID: r.uvarint(), Sampled: r.bool()}
}

// ---- message dispatch ----

// appendMessage encodes typeID + fields for every registered message. It
// returns transport.ErrUnsupportedType for anything else, which fails that
// one call.
func appendMessage(b []byte, msg any) ([]byte, error) {
	switch m := msg.(type) {
	case GetRequest:
		return appendGetRequest(au(b, tGetRequest), &m), nil
	case *GetRequest:
		return appendGetRequest(au(b, tGetRequest), m), nil
	case GetResponse:
		return appendGetResponse(au(b, tGetResponse), &m), nil
	case *GetResponse:
		return appendGetResponse(au(b, tGetResponse), m), nil
	case MultiGetRequest:
		return appendMultiGetRequest(au(b, tMultiGetRequest), &m), nil
	case *MultiGetRequest:
		return appendMultiGetRequest(au(b, tMultiGetRequest), m), nil
	case MultiGetResponse:
		return appendMultiGetResponse(au(b, tMultiGetResponse), &m), nil
	case *MultiGetResponse:
		return appendMultiGetResponse(au(b, tMultiGetResponse), m), nil
	case PutRequest:
		return appendPutRequest(au(b, tPutRequest), &m), nil
	case *PutRequest:
		return appendPutRequest(au(b, tPutRequest), m), nil
	case PutResponse:
		return aBool(au(b, tPutResponse), m.Rejected), nil
	case *PutResponse:
		return aBool(au(b, tPutResponse), m.Rejected), nil
	case DeleteRequest:
		return appendDeleteRequest(au(b, tDeleteRequest), &m), nil
	case *DeleteRequest:
		return appendDeleteRequest(au(b, tDeleteRequest), m), nil
	case DeleteResponse:
		return aBool(au(b, tDeleteResponse), m.Rejected), nil
	case *DeleteResponse:
		return aBool(au(b, tDeleteResponse), m.Rejected), nil
	case ReplicateData:
		return appendReplicateData(au(b, tReplicateData), &m), nil
	case *ReplicateData:
		return appendReplicateData(au(b, tReplicateData), m), nil
	case Replicated:
		return appendReplicated(au(b, tReplicated), &m)
	case *Replicated:
		return appendReplicated(au(b, tReplicated), m)
	case Ack:
		return au(b, tAck), nil
	case *Ack:
		return au(b, tAck), nil
	case BatchAck:
		return appendBatchAck(au(b, tBatchAck), &m), nil
	case *BatchAck:
		return appendBatchAck(au(b, tBatchAck), m), nil
	case WatermarkBroadcast:
		return aTs(au(au(b, tWatermarkBroadcast), uint64(m.Client)), m.Ts), nil
	case *WatermarkBroadcast:
		return aTs(au(au(b, tWatermarkBroadcast), uint64(m.Client)), m.Ts), nil
	case PrepareRequest:
		return appendPrepareRequest(au(b, tPrepareRequest), &m), nil
	case *PrepareRequest:
		return appendPrepareRequest(au(b, tPrepareRequest), m), nil
	case PrepareResponse:
		return appendPrepareResponse(au(b, tPrepareResponse), &m), nil
	case *PrepareResponse:
		return appendPrepareResponse(au(b, tPrepareResponse), m), nil
	case DecisionRequest:
		return aBool(appendTxnID(au(b, tDecisionRequest), m.ID), m.Commit), nil
	case *DecisionRequest:
		return aBool(appendTxnID(au(b, tDecisionRequest), m.ID), m.Commit), nil
	case DecisionResponse:
		return au(b, tDecisionResponse), nil
	case *DecisionResponse:
		return au(b, tDecisionResponse), nil
	case StatusRequest:
		return appendTxnID(au(b, tStatusRequest), m.ID), nil
	case *StatusRequest:
		return appendTxnID(au(b, tStatusRequest), m.ID), nil
	case StatusResponse:
		return ai(au(b, tStatusResponse), int64(m.Status)), nil
	case *StatusResponse:
		return ai(au(b, tStatusResponse), int64(m.Status)), nil
	case ReplicatePrepare:
		return appendTxnRecord(au(b, tReplicatePrepare), &m.Record), nil
	case *ReplicatePrepare:
		return appendTxnRecord(au(b, tReplicatePrepare), &m.Record), nil
	case ReplicateDecision:
		return aBool(appendTxnID(au(b, tReplicateDecision), m.ID), m.Commit), nil
	case *ReplicateDecision:
		return aBool(appendTxnID(au(b, tReplicateDecision), m.ID), m.Commit), nil
	case LeaseRequest:
		return aTs(aStr(au(b, tLeaseRequest), m.Primary), m.Expiry), nil
	case *LeaseRequest:
		return aTs(aStr(au(b, tLeaseRequest), m.Primary), m.Expiry), nil
	case LeaseResponse:
		return aBool(au(b, tLeaseResponse), m.Granted), nil
	case *LeaseResponse:
		return aBool(au(b, tLeaseResponse), m.Granted), nil
	case RecoveryPullRequest:
		return aTs(au(b, tRecoveryPullRequest), m.Since), nil
	case *RecoveryPullRequest:
		return aTs(au(b, tRecoveryPullRequest), m.Since), nil
	case RecoveryPullResponse:
		return appendRecoveryPullResponse(au(b, tRecoveryPullResponse), &m), nil
	case *RecoveryPullResponse:
		return appendRecoveryPullResponse(au(b, tRecoveryPullResponse), m), nil
	case StatsRequest, *StatsRequest:
		return au(b, tStatsRequest), nil
	case StatsResponse:
		return appendStatsResponse(au(b, tStatsResponse), &m), nil
	case *StatsResponse:
		return appendStatsResponse(au(b, tStatsResponse), m), nil
	case TraceRequest:
		return au(au(b, tTraceRequest), m.TraceID), nil
	case *TraceRequest:
		return au(au(b, tTraceRequest), m.TraceID), nil
	case TraceResponse:
		return appendTraceResponse(au(b, tTraceResponse), &m), nil
	case *TraceResponse:
		return appendTraceResponse(au(b, tTraceResponse), m), nil
	case AuditRequest, *AuditRequest:
		return au(b, tAuditRequest), nil
	case AuditResponse:
		return appendAuditResponse(au(b, tAuditResponse), &m), nil
	case *AuditResponse:
		return appendAuditResponse(au(b, tAuditResponse), m), nil
	case TSDBRequest:
		return appendTSDBRequest(au(b, tTSDBRequest), &m), nil
	case *TSDBRequest:
		return appendTSDBRequest(au(b, tTSDBRequest), m), nil
	case TSDBResponse:
		return appendTSDBResponse(au(b, tTSDBResponse), &m), nil
	case *TSDBResponse:
		return appendTSDBResponse(au(b, tTSDBResponse), m), nil
	case WALCheckpoint:
		return appendWALCheckpoint(au(b, tWALCheckpoint), &m), nil
	case *WALCheckpoint:
		return appendWALCheckpoint(au(b, tWALCheckpoint), m), nil
	default:
		return b, transport.ErrUnsupportedType
	}
}

func decMessage(r *reader) (any, error) {
	id := r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	var v any
	switch id {
	case tGetRequest:
		v = decGetRequest(r)
	case tGetResponse:
		v = decGetResponse(r)
	case tMultiGetRequest:
		v = decMultiGetRequest(r)
	case tMultiGetResponse:
		v = decMultiGetResponse(r)
	case tPutRequest:
		v = decPutRequest(r)
	case tPutResponse:
		v = PutResponse{Rejected: r.bool()}
	case tDeleteRequest:
		v = DeleteRequest{Key: r.bytes(), Version: r.ts()}
	case tDeleteResponse:
		v = DeleteResponse{Rejected: r.bool()}
	case tReplicateData:
		v = decReplicateData(r)
	case tReplicated:
		rep := Replicated{Epoch: r.uvarint()}
		if r.err != nil {
			return nil, r.err
		}
		inner, err := decMessage(r)
		if err != nil {
			return nil, err
		}
		rep.Msg = inner
		v = rep
	case tAck:
		v = Ack{}
	case tBatchAck:
		v = decBatchAck(r)
	case tWatermarkBroadcast:
		v = WatermarkBroadcast{Client: uint32(r.uvarint()), Ts: r.ts()}
	case tPrepareRequest:
		v = decPrepareRequest(r)
	case tPrepareResponse:
		v = PrepareResponse{OK: r.bool(), Reason: r.str(), Code: AbortReason(r.varint())}
	case tDecisionRequest:
		v = DecisionRequest{ID: decTxnID(r), Commit: r.bool()}
	case tDecisionResponse:
		v = DecisionResponse{}
	case tStatusRequest:
		v = StatusRequest{ID: decTxnID(r)}
	case tStatusResponse:
		v = StatusResponse{Status: TxnStatus(r.varint())}
	case tReplicatePrepare:
		v = ReplicatePrepare{Record: decTxnRecord(r)}
	case tReplicateDecision:
		v = ReplicateDecision{ID: decTxnID(r), Commit: r.bool()}
	case tLeaseRequest:
		v = LeaseRequest{Primary: r.str(), Expiry: r.ts()}
	case tLeaseResponse:
		v = LeaseResponse{Granted: r.bool()}
	case tRecoveryPullRequest:
		v = RecoveryPullRequest{Since: r.ts()}
	case tRecoveryPullResponse:
		v = decRecoveryPullResponse(r)
	case tStatsRequest:
		v = StatsRequest{}
	case tStatsResponse:
		v = decStatsResponse(r)
	case tTraceRequest:
		v = TraceRequest{TraceID: r.uvarint()}
	case tTraceResponse:
		v = decTraceResponse(r)
	case tAuditRequest:
		v = AuditRequest{}
	case tAuditResponse:
		v = decAuditResponse(r)
	case tTSDBRequest:
		v = decTSDBRequest(r)
	case tTSDBResponse:
		v = decTSDBResponse(r)
	case tWALCheckpoint:
		v = decWALCheckpoint(r)
	default:
		return nil, fmt.Errorf("%w: %d", errUnknownType, id)
	}
	if r.err != nil {
		return nil, r.err
	}
	return v, nil
}

// ---- per-message field encodings ----

func appendGetRequest(b []byte, m *GetRequest) []byte {
	b = aBytes(b, m.Key)
	b = aTs(b, m.At)
	return aBool(b, m.AnyReplica)
}

func decGetRequest(r *reader) GetRequest {
	return GetRequest{Key: r.bytes(), At: r.ts(), AnyReplica: r.bool()}
}

func appendGetResponse(b []byte, m *GetResponse) []byte {
	b = aBytes(b, m.Val)
	b = aTs(b, m.Version)
	var flags byte
	if m.Found {
		flags |= 1
	}
	if m.PreparedAtOrBefore {
		flags |= 2
	}
	if m.SnapshotMiss {
		flags |= 4
	}
	return append(b, flags)
}

func decGetResponse(r *reader) GetResponse {
	m := GetResponse{Val: r.bytes(), Version: r.ts()}
	flags := byte(0)
	if len(r.b) >= 1 && r.err == nil {
		flags = r.b[0]
		r.b = r.b[1:]
	} else if r.err == nil {
		r.err = errTruncated
	}
	m.Found = flags&1 != 0
	m.PreparedAtOrBefore = flags&2 != 0
	m.SnapshotMiss = flags&4 != 0
	return m
}

func appendMultiGetRequest(b []byte, m *MultiGetRequest) []byte {
	b = aLen(b, len(m.Keys), m.Keys == nil)
	for _, k := range m.Keys {
		b = aBytes(b, k)
	}
	b = aTs(b, m.At)
	return aBool(b, m.AnyReplica)
}

func decMultiGetRequest(r *reader) MultiGetRequest {
	n, isNil := r.length()
	m := MultiGetRequest{}
	if !isNil {
		m.Keys = make([][]byte, n)
		for i := range m.Keys {
			m.Keys[i] = r.bytes()
		}
	}
	m.At = r.ts()
	m.AnyReplica = r.bool()
	return m
}

func appendMultiGetResponse(b []byte, m *MultiGetResponse) []byte {
	b = aLen(b, len(m.Items), m.Items == nil)
	for i := range m.Items {
		b = appendGetResponse(b, &m.Items[i])
	}
	return b
}

func decMultiGetResponse(r *reader) MultiGetResponse {
	n, isNil := r.length()
	m := MultiGetResponse{}
	if !isNil {
		m.Items = make([]GetResponse, n)
		for i := range m.Items {
			m.Items[i] = decGetResponse(r)
		}
	}
	return m
}

func appendPutRequest(b []byte, m *PutRequest) []byte {
	b = aBytes(b, m.Key)
	b = aBytes(b, m.Val)
	return aTs(b, m.Version)
}

func decPutRequest(r *reader) PutRequest {
	return PutRequest{Key: r.bytes(), Val: r.bytes(), Version: r.ts()}
}

func appendDeleteRequest(b []byte, m *DeleteRequest) []byte {
	b = aBytes(b, m.Key)
	return aTs(b, m.Version)
}

func appendDataOp(b []byte, op *DataOp) []byte {
	b = aBytes(b, op.Key)
	b = aBytes(b, op.Val)
	b = aTs(b, op.Version)
	b = aBool(b, op.Tombstone)
	return aTC(b, op.TC)
}

func decDataOp(r *reader) DataOp {
	return DataOp{Key: r.bytes(), Val: r.bytes(), Version: r.ts(), Tombstone: r.bool(), TC: r.tc()}
}

func appendReplicateData(b []byte, m *ReplicateData) []byte {
	b = aLen(b, len(m.Ops), m.Ops == nil)
	for i := range m.Ops {
		b = appendDataOp(b, &m.Ops[i])
	}
	return b
}

func decReplicateData(r *reader) ReplicateData {
	n, isNil := r.length()
	m := ReplicateData{}
	if !isNil {
		m.Ops = make([]DataOp, n)
		for i := range m.Ops {
			m.Ops[i] = decDataOp(r)
		}
	}
	return m
}

// appendReplicated nests the inner message with the same dispatch; an inner
// type without a v1 codec makes the whole envelope unencodable. The
// any-typed field is last, so no inner length prefix is needed.
func appendReplicated(b []byte, m *Replicated) ([]byte, error) {
	b = au(b, m.Epoch)
	return appendMessage(b, m.Msg)
}

func appendBatchAck(b []byte, m *BatchAck) []byte {
	b = aLen(b, len(m.Errs), m.Errs == nil)
	for _, e := range m.Errs {
		b = aStr(b, e)
	}
	return b
}

func decBatchAck(r *reader) BatchAck {
	n, isNil := r.length()
	m := BatchAck{}
	if !isNil {
		m.Errs = make([]string, n)
		for i := range m.Errs {
			m.Errs[i] = r.str()
		}
	}
	return m
}

func appendTxnID(b []byte, id TxnID) []byte {
	b = au(b, uint64(id.Client))
	return au(b, id.Seq)
}

func decTxnID(r *reader) TxnID {
	return TxnID{Client: uint32(r.uvarint()), Seq: r.uvarint()}
}

func appendKVs(b []byte, kvs []KV) []byte {
	b = aLen(b, len(kvs), kvs == nil)
	for i := range kvs {
		b = aBytes(b, kvs[i].Key)
		b = aBytes(b, kvs[i].Val)
	}
	return b
}

func decKVs(r *reader) []KV {
	n, isNil := r.length()
	if isNil {
		return nil
	}
	kvs := make([]KV, n)
	for i := range kvs {
		kvs[i] = KV{Key: r.bytes(), Val: r.bytes()}
	}
	return kvs
}

func appendInts(b []byte, xs []int) []byte {
	b = aLen(b, len(xs), xs == nil)
	for _, x := range xs {
		b = ai(b, int64(x))
	}
	return b
}

func decInts(r *reader) []int {
	n, isNil := r.length()
	if isNil {
		return nil
	}
	xs := make([]int, n)
	for i := range xs {
		xs[i] = int(r.varint())
	}
	return xs
}

func appendPrepareRequest(b []byte, m *PrepareRequest) []byte {
	b = appendTxnID(b, m.ID)
	b = aTs(b, m.CommitTs)
	b = aLen(b, len(m.ReadSet), m.ReadSet == nil)
	for i := range m.ReadSet {
		b = aBytes(b, m.ReadSet[i].Key)
		b = aTs(b, m.ReadSet[i].Version)
	}
	b = appendKVs(b, m.WriteSet)
	return appendInts(b, m.Participants)
}

func decPrepareRequest(r *reader) PrepareRequest {
	m := PrepareRequest{ID: decTxnID(r), CommitTs: r.ts()}
	n, isNil := r.length()
	if !isNil {
		m.ReadSet = make([]ReadKey, n)
		for i := range m.ReadSet {
			m.ReadSet[i] = ReadKey{Key: r.bytes(), Version: r.ts()}
		}
	}
	m.WriteSet = decKVs(r)
	m.Participants = decInts(r)
	return m
}

func appendPrepareResponse(b []byte, m *PrepareResponse) []byte {
	b = aBool(b, m.OK)
	b = aStr(b, m.Reason)
	return ai(b, int64(m.Code))
}

func appendTxnRecord(b []byte, m *TxnRecord) []byte {
	b = appendTxnID(b, m.ID)
	b = aTs(b, m.CommitTs)
	b = appendKVs(b, m.WriteSet)
	b = appendInts(b, m.Participants)
	return ai(b, int64(m.Status))
}

func decTxnRecord(r *reader) TxnRecord {
	return TxnRecord{
		ID:           decTxnID(r),
		CommitTs:     r.ts(),
		WriteSet:     decKVs(r),
		Participants: decInts(r),
		Status:       TxnStatus(r.varint()),
	}
}

func appendRecoveryPullResponse(b []byte, m *RecoveryPullResponse) []byte {
	b = aLen(b, len(m.Txns), m.Txns == nil)
	for i := range m.Txns {
		b = appendTxnRecord(b, &m.Txns[i])
	}
	b = aLen(b, len(m.Data), m.Data == nil)
	for i := range m.Data {
		b = appendDataOp(b, &m.Data[i])
	}
	return aTs(b, m.LeaseExpiry)
}

func decRecoveryPullResponse(r *reader) RecoveryPullResponse {
	m := RecoveryPullResponse{}
	n, isNil := r.length()
	if !isNil {
		m.Txns = make([]TxnRecord, n)
		for i := range m.Txns {
			m.Txns[i] = decTxnRecord(r)
		}
	}
	n, isNil = r.length()
	if !isNil {
		m.Data = make([]DataOp, n)
		for i := range m.Data {
			m.Data[i] = decDataOp(r)
		}
	}
	m.LeaseExpiry = r.ts()
	return m
}

func appendWALCheckpoint(b []byte, m *WALCheckpoint) []byte {
	b = au(b, m.Epoch)
	b = aTs(b, m.Watermark)
	b = aStr(b, m.LeasePrimary)
	b = aTs(b, m.LeaseExpiry)
	b = aLen(b, len(m.Txns), m.Txns == nil)
	for i := range m.Txns {
		b = appendTxnRecord(b, &m.Txns[i])
	}
	b = aLen(b, len(m.Data), m.Data == nil)
	for i := range m.Data {
		b = appendDataOp(b, &m.Data[i])
	}
	return b
}

func decWALCheckpoint(r *reader) WALCheckpoint {
	m := WALCheckpoint{Epoch: r.uvarint(), Watermark: r.ts(), LeasePrimary: r.str(), LeaseExpiry: r.ts()}
	n, isNil := r.length()
	if !isNil {
		m.Txns = make([]TxnRecord, n)
		for i := range m.Txns {
			m.Txns[i] = decTxnRecord(r)
		}
	}
	n, isNil = r.length()
	if !isNil {
		m.Data = make([]DataOp, n)
		for i := range m.Data {
			m.Data[i] = decDataOp(r)
		}
	}
	return m
}

// ---- obs/clock composites (stats, traces, audit) ----

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func appendI64Map(b []byte, m map[string]int64) []byte {
	b = aLen(b, len(m), m == nil)
	for _, k := range sortedKeys(m) {
		b = aStr(b, k)
		b = ai(b, m[k])
	}
	return b
}

func decI64Map(r *reader) map[string]int64 {
	n, isNil := r.length()
	if isNil {
		return nil
	}
	m := make(map[string]int64, n)
	for i := 0; i < n; i++ {
		k := r.str()
		m[k] = r.varint()
		if r.err != nil {
			return nil
		}
	}
	return m
}

func appendHistSnapshot(b []byte, h *obs.HistogramSnapshot) []byte {
	b = au(b, h.Count)
	b = ai(b, h.Sum)
	b = aLen(b, len(h.Buckets), h.Buckets == nil)
	for i := range h.Buckets {
		b = ai(b, int64(h.Buckets[i].Idx))
		b = au(b, h.Buckets[i].N)
		b = au(b, h.Buckets[i].Exemplar)
	}
	return b
}

func decHistSnapshot(r *reader) obs.HistogramSnapshot {
	h := obs.HistogramSnapshot{Count: r.uvarint(), Sum: r.varint()}
	n, isNil := r.length()
	if !isNil {
		h.Buckets = make([]obs.Bucket, n)
		for i := range h.Buckets {
			h.Buckets[i] = obs.Bucket{Idx: int32(r.varint()), N: r.uvarint(), Exemplar: r.uvarint()}
		}
	}
	return h
}

func appendSnapshot(b []byte, s *obs.Snapshot) []byte {
	b = appendI64Map(b, s.Counters)
	b = appendI64Map(b, s.Gauges)
	b = aLen(b, len(s.Hists), s.Hists == nil)
	for _, k := range sortedKeys(s.Hists) {
		h := s.Hists[k]
		b = aStr(b, k)
		b = appendHistSnapshot(b, &h)
	}
	return b
}

func decSnapshot(r *reader) obs.Snapshot {
	s := obs.Snapshot{Counters: decI64Map(r), Gauges: decI64Map(r)}
	n, isNil := r.length()
	if !isNil {
		s.Hists = make(map[string]obs.HistogramSnapshot, n)
		for i := 0; i < n; i++ {
			k := r.str()
			s.Hists[k] = decHistSnapshot(r)
			if r.err != nil {
				return s
			}
		}
	}
	return s
}

func appendStatsResponse(b []byte, m *StatsResponse) []byte {
	return appendSnapshot(aStr(b, m.Addr), &m.Obs)
}

func decStatsResponse(r *reader) StatsResponse {
	return StatsResponse{Addr: r.str(), Obs: decSnapshot(r)}
}

func appendHealth(b []byte, h *clock.Health) []byte {
	b = ai(b, h.OffsetNs)
	b = ai(b, h.ResidualNs)
	b = ai(b, h.DriftNs)
	b = ai(b, h.SinceSyncNs)
	return ai(b, h.UncertaintyNs)
}

func decHealth(r *reader) clock.Health {
	return clock.Health{
		OffsetNs:      r.varint(),
		ResidualNs:    r.varint(),
		DriftNs:       r.varint(),
		SinceSyncNs:   r.varint(),
		UncertaintyNs: r.varint(),
	}
}

func appendTraceResponse(b []byte, m *TraceResponse) []byte {
	b = aStr(b, m.Addr)
	b = aLen(b, len(m.Spans), m.Spans == nil)
	for i := range m.Spans {
		sp := &m.Spans[i]
		b = au(b, sp.TraceID)
		b = au(b, sp.SpanID)
		b = au(b, sp.Parent)
		b = aStr(b, sp.Node)
		b = aStr(b, sp.Name)
		b = ai(b, sp.Start)
		b = ai(b, sp.End)
		b = aStr(b, sp.Outcome)
	}
	return appendHealth(b, &m.Clock)
}

func decTraceResponse(r *reader) TraceResponse {
	m := TraceResponse{Addr: r.str()}
	n, isNil := r.length()
	if !isNil {
		m.Spans = make([]obs.SpanRecord, n)
		for i := range m.Spans {
			m.Spans[i] = obs.SpanRecord{
				TraceID: r.uvarint(),
				SpanID:  r.uvarint(),
				Parent:  r.uvarint(),
				Node:    r.str(),
				Name:    r.str(),
				Start:   r.varint(),
				End:     r.varint(),
				Outcome: r.str(),
			}
		}
	}
	m.Clock = decHealth(r)
	return m
}

func appendAuditResponse(b []byte, m *AuditResponse) []byte {
	b = aStr(b, m.Addr)
	b = aLen(b, len(m.Artifacts), m.Artifacts == nil)
	for _, a := range m.Artifacts {
		b = aBytes(b, a)
	}
	return b
}

func decAuditResponse(r *reader) AuditResponse {
	m := AuditResponse{Addr: r.str()}
	n, isNil := r.length()
	if !isNil {
		m.Artifacts = make([][]byte, n)
		for i := range m.Artifacts {
			m.Artifacts[i] = r.bytes()
		}
	}
	return m
}

func appendTSDBRequest(b []byte, m *TSDBRequest) []byte {
	b = aLen(b, len(m.Patterns), m.Patterns == nil)
	for _, p := range m.Patterns {
		b = aStr(b, p)
	}
	return ai(b, int64(m.LastN))
}

func decTSDBRequest(r *reader) TSDBRequest {
	var m TSDBRequest
	n, isNil := r.length()
	if !isNil {
		m.Patterns = make([]string, n)
		for i := range m.Patterns {
			m.Patterns[i] = r.str()
		}
	}
	m.LastN = int(r.varint())
	return m
}

func appendTSDBResponse(b []byte, m *TSDBResponse) []byte {
	b = aStr(b, m.Addr)
	b = ai(b, m.IntervalNs)
	b = aLen(b, len(m.Series), m.Series == nil)
	for i := range m.Series {
		s := &m.Series[i]
		b = aStr(b, s.Name)
		b = ai(b, s.Seq)
		b = ai(b, s.First)
		b = aLen(b, len(s.Deltas), s.Deltas == nil)
		for _, d := range s.Deltas {
			b = ai(b, d)
		}
	}
	return b
}

func decTSDBResponse(r *reader) TSDBResponse {
	m := TSDBResponse{Addr: r.str(), IntervalNs: r.varint()}
	n, isNil := r.length()
	if isNil {
		return m
	}
	m.Series = make([]obs.SeriesDump, n)
	for i := range m.Series {
		s := &m.Series[i]
		s.Name = r.str()
		s.Seq = r.varint()
		s.First = r.varint()
		dn, dNil := r.length()
		if dNil {
			continue
		}
		s.Deltas = make([]int64, dn)
		for j := range s.Deltas {
			s.Deltas[j] = r.varint()
		}
	}
	return m
}

func init() {
	transport.SetCodec(Codec)
}
