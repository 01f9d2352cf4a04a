package wire

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/transport"
)

// gob survives only as the tests' independent oracle (TestCodecGobEquivalence,
// FuzzCodecRoundTrip); it carries interface payloads by registered name.
func init() {
	for _, m := range codecExemplars() {
		gob.Register(m)
	}
}

// codecExemplars returns one populated value per wire message type. Every
// slice/map is either nil or non-empty: codec v1 preserves the nil/empty
// distinction, gob does not, and the equivalence test below runs both over
// the same inputs.
func codecExemplars() []any {
	ts := func(t int64, c uint32) clock.Timestamp { return clock.Timestamp{Ticks: t, Client: c} }
	tc := obs.TraceContext{TraceID: 9, SpanID: 8, Sampled: true}
	return []any{
		GetRequest{Key: []byte("k1"), At: ts(100, 7), AnyReplica: true},
		GetResponse{Val: []byte("v"), Version: ts(42, 3), Found: true, PreparedAtOrBefore: true},
		MultiGetRequest{Keys: [][]byte{[]byte("a"), []byte("bb"), []byte("c")}, At: ts(5, 1)},
		MultiGetResponse{Items: []GetResponse{{Val: []byte("x"), Version: ts(1, 2), Found: true}, {SnapshotMiss: true}}},
		PutRequest{Key: []byte("k"), Val: []byte("val"), Version: ts(-3, 9)},
		PutResponse{Rejected: true},
		DeleteRequest{Key: []byte("dk"), Version: ts(77, 2)},
		DeleteResponse{},
		ReplicateData{Ops: []DataOp{{Key: []byte("rk"), Val: []byte("rv"), Version: ts(11, 4), Tombstone: true, TC: tc}}},
		Replicated{Epoch: 3, Msg: ReplicateData{Ops: []DataOp{{Key: []byte("n"), Version: ts(1, 1)}}}},
		Ack{},
		BatchAck{Errs: []string{"", "boom"}},
		WatermarkBroadcast{Client: 12, Ts: ts(99, 12)},
		PrepareRequest{
			ID: TxnID{Client: 1, Seq: 2}, CommitTs: ts(1000, 1),
			ReadSet:  []ReadKey{{Key: []byte("r"), Version: ts(9, 1)}},
			WriteSet: []KV{{Key: []byte("w"), Val: []byte("wv")}}, Participants: []int{0, 2},
		},
		PrepareResponse{OK: false, Reason: "conflict", Code: AbortLateWrite},
		DecisionRequest{ID: TxnID{Client: 3, Seq: 4}, Commit: true},
		DecisionResponse{},
		StatusRequest{ID: TxnID{Client: 5, Seq: 6}},
		StatusResponse{Status: StatusCommitted},
		ReplicatePrepare{Record: TxnRecord{
			ID: TxnID{Client: 7, Seq: 8}, CommitTs: ts(123, 7),
			WriteSet: []KV{{Key: []byte("tk"), Val: []byte("tv")}}, Participants: []int{1}, Status: StatusPrepared,
		}},
		ReplicateDecision{ID: TxnID{Client: 9, Seq: 10}},
		LeaseRequest{Primary: "p:1", Expiry: ts(555, 1)},
		LeaseResponse{Granted: true},
		RecoveryPullRequest{Since: ts(1, 1)},
		RecoveryPullResponse{
			Txns:        []TxnRecord{{ID: TxnID{Client: 1, Seq: 1}, CommitTs: ts(4, 1), Status: StatusAborted}},
			Data:        []DataOp{{Key: []byte("d"), Val: []byte("dv"), Version: ts(2, 2)}},
			LeaseExpiry: ts(3, 3),
		},
		TraceRequest{TraceID: 77},
		TraceResponse{
			Addr:  "n1",
			Spans: []obs.SpanRecord{{TraceID: 1, SpanID: 2, Parent: 3, Node: "n1", Name: "get", Start: 10, End: 20, Outcome: "ok"}},
			Clock: clock.Health{OffsetNs: 1, ResidualNs: -2, DriftNs: 3, SinceSyncNs: 4, UncertaintyNs: 5},
		},
		TSDBRequest{Patterns: []string{"stage_ledger", "aborts"}, LastN: 30},
		TSDBResponse{
			Addr: "n4", IntervalNs: 1e9,
			Series: []obs.SeriesDump{
				{Name: "milana_commits_total", Seq: 12, First: 100, Deltas: []int64{5, 0, -1}},
				{Name: "go_goroutines", Seq: 12, First: 42},
			},
		},
		WALCheckpoint{
			Epoch: 3, Watermark: ts(90, 1), LeasePrimary: "shard0/r0", LeaseExpiry: ts(95, 1),
			Txns: []TxnRecord{{
				ID: TxnID{Client: 5, Seq: 6}, CommitTs: ts(70, 5),
				WriteSet: []KV{{Key: []byte("k"), Val: []byte("v")}}, Participants: []int{0},
				Status: StatusCommitted,
			}},
			Data: []DataOp{{Key: []byte("a"), Val: []byte("1"), Version: ts(80, 5)}},
		},
		StatsRequest{},
		StatsResponse{
			Addr: "a:1",
			Obs: obs.Snapshot{
				Counters: map[string]int64{"c1": 10, "c2": -2},
				Gauges:   map[string]int64{"g": 5},
				Hists: map[string]obs.HistogramSnapshot{
					"h": {Count: 2, Sum: 30, Buckets: []obs.Bucket{{Idx: 4, N: 2, Exemplar: 19}}},
				},
			},
		},
		AuditRequest{},
		AuditResponse{Addr: "n3", Artifacts: [][]byte{[]byte("{}")}},
	}
}

// roundTripExtras are further populated samples for TestCodecRoundTrip: a
// second value of every message type, trace contexts riding a replication
// batch next to an untraced op, and a stats snapshot taken from a live
// registry rather than written out by hand.
func roundTripExtras() []any {
	ts := clock.Timestamp{Ticks: 99, Client: 3}
	tc := obs.TraceContext{TraceID: 0xdeadbeefcafe, SpanID: 0x1234, Sampled: true}
	health := clock.Health{OffsetNs: -1500, ResidualNs: -1200, DriftNs: -300, SinceSyncNs: 7e8, UncertaintyNs: 1500}
	reg := obs.NewRegistry()
	reg.Counter(`aborts_total{reason="read-stale"}`).Add(4)
	reg.Histogram("lat_ns").Observe(12345)
	return []any{
		GetRequest{Key: []byte("k"), At: ts, AnyReplica: true},
		GetResponse{Val: []byte("v"), Version: ts, Found: true, PreparedAtOrBefore: true},
		MultiGetRequest{Keys: [][]byte{[]byte("a"), []byte("b")}, At: ts},
		MultiGetResponse{Items: []GetResponse{{Found: true}}},
		PutRequest{Key: []byte("k"), Val: []byte("v"), Version: ts},
		PutResponse{Rejected: true},
		DeleteRequest{Key: []byte("k"), Version: ts},
		DeleteResponse{},
		ReplicateData{Ops: []DataOp{
			{Key: []byte("k"), Val: []byte("v"), Version: ts, Tombstone: true,
				TC: obs.TraceContext{TraceID: 8, SpanID: 9, Sampled: true}},
		}},
		Replicated{Epoch: 7, Msg: ReplicateData{Ops: []DataOp{{Key: []byte("k"), Version: ts}}}},
		Ack{},
		BatchAck{Errs: []string{"", "rejected: stale version", ""}},
		WatermarkBroadcast{Client: 1, Ts: ts},
		PrepareRequest{ID: TxnID{Client: 1, Seq: 2}, CommitTs: ts, ReadSet: []ReadKey{{Key: []byte("r"), Version: ts}}, WriteSet: []KV{{Key: []byte("w"), Val: []byte("x")}}, Participants: []int{0, 1}},
		PrepareResponse{OK: false, Reason: "x", Code: AbortLateWrite},
		DecisionRequest{ID: TxnID{Client: 1, Seq: 2}, Commit: true},
		DecisionResponse{},
		StatusRequest{ID: TxnID{Client: 1, Seq: 2}},
		StatusResponse{Status: StatusCommitted},
		ReplicatePrepare{Record: TxnRecord{ID: TxnID{Client: 1, Seq: 2}, CommitTs: ts, Status: StatusPrepared}},
		ReplicateDecision{ID: TxnID{Client: 1, Seq: 2}, Commit: true},
		LeaseRequest{Primary: "p", Expiry: ts},
		LeaseResponse{Granted: true},
		RecoveryPullRequest{Since: ts},
		RecoveryPullResponse{Txns: []TxnRecord{{ID: TxnID{Client: 9}}}, LeaseExpiry: ts},
		TraceRequest{TraceID: 11},
		TraceResponse{Addr: "shard0/r1",
			Spans: []obs.SpanRecord{{TraceID: 11, SpanID: 2, Parent: 1, Node: "shard0/r1", Name: "serve", Start: 5, End: 9, Outcome: "ok"}},
			Clock: clock.Health{OffsetNs: 120, ResidualNs: 50, DriftNs: 10, SinceSyncNs: 100, UncertaintyNs: 60}},
		AuditRequest{},
		AuditResponse{Addr: "shard0/r0", Artifacts: [][]byte{[]byte(`{"kind":"conviction"}`)}},
		TSDBRequest{Patterns: []string{"semel_"}, LastN: 10},
		TSDBResponse{Addr: "shard0/r0", IntervalNs: 1e9,
			Series: []obs.SeriesDump{{Name: "semel_watermark_lag_ns", Seq: 3, First: 7, Deltas: []int64{1, -2}}}},
		StatsRequest{},
		StatsResponse{Addr: "a",
			Obs: obs.Snapshot{
				Counters: map[string]int64{`milana_aborts_total{reason="READ_STALE"}`: 2},
				Gauges:   map[string]int64{"semel_watermark_ticks": 99},
				Hists: map[string]obs.HistogramSnapshot{
					`semel_serve_ns{op="get"}`: {Count: 1, Sum: 40, Buckets: []obs.Bucket{{Idx: 4, N: 1}}},
				},
			}},
		WALCheckpoint{Epoch: 4, Watermark: ts, LeasePrimary: "shard0/r0", LeaseExpiry: ts,
			Txns: []TxnRecord{{ID: TxnID{Client: 2, Seq: 5}, CommitTs: ts, WriteSet: []KV{{Key: []byte("k"), Val: []byte("v")}}, Status: StatusCommitted}},
			Data: []DataOp{{Key: []byte("d"), Val: []byte("1"), Version: ts}}},

		ReplicateData{Ops: []DataOp{
			{Key: []byte("a"), Version: ts, TC: tc},
			{Key: []byte("b"), Version: ts}, // untraced op in the same batch
		}},
		TraceRequest{TraceID: tc.TraceID},
		TraceResponse{Addr: "shard0/r1", Clock: health, Spans: []obs.SpanRecord{{
			TraceID: tc.TraceID, SpanID: 5, Parent: 4,
			Node: "shard0/r1", Name: "replicate-op",
			Start: 100, End: 250, Outcome: "ok",
		}}},
		StatsResponse{Addr: "live", Obs: reg.Snapshot()},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for _, m := range append(codecExemplars(), roundTripExtras()...) {
		name := fmt.Sprintf("%T", m)
		buf, err := Codec.Append(nil, m)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		out, err := Codec.Decode(buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(out, m) {
			t.Errorf("%s: round trip mismatch\n got %#v\nwant %#v", name, out, m)
		}
	}
}

// TestCodecOverTCP echoes every exemplar through a real TCP server and
// client: the transport's frames around this codec's payloads, which is
// everything a connection carries.
func TestCodecOverTCP(t *testing.T) {
	echo := transport.HandlerFunc(func(ctx context.Context, req any) (any, error) { return req, nil })
	reg := obs.NewRegistry()
	srv, err := transport.NewTCPServerOpts("127.0.0.1:0", echo, transport.TCPServerOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := transport.NewTCPClientOpts(transport.TCPClientOptions{Metrics: reg})
	defer cli.Close()
	for _, msg := range codecExemplars() {
		resp, err := cli.Call(context.Background(), srv.Addr(), msg)
		if err != nil {
			t.Fatalf("%T: %v", msg, err)
		}
		if !reflect.DeepEqual(resp, msg) {
			t.Errorf("%T: echo mismatch\n got %#v\nwant %#v", msg, resp, msg)
		}
	}
	// Client and server share the registry and every frame sent is a frame
	// received, so the two directions must have moved, and moved equally.
	snap := reg.Snapshot()
	tx := snap.Counters[`wire_bytes_total{dir="tx",codec="v1"}`]
	rx := snap.Counters[`wire_bytes_total{dir="rx",codec="v1"}`]
	if tx == 0 || tx != rx {
		t.Errorf("wire_bytes_total tx = %d, rx = %d; want equal and non-zero", tx, rx)
	}
	if snap.Hists["wire_encode_ns"].Count == 0 || snap.Hists["wire_decode_ns"].Count == 0 {
		t.Error("wire_encode_ns / wire_decode_ns never observed")
	}
}

// TestCodecPointerEncodesLikeValue checks *T encodes to the same bytes as T.
func TestCodecPointerEncodesLikeValue(t *testing.T) {
	for _, m := range codecExemplars() {
		val, err := Codec.Append(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		pv := reflect.New(reflect.TypeOf(m))
		pv.Elem().Set(reflect.ValueOf(m))
		ptr, err := Codec.Append(nil, pv.Interface())
		if err != nil {
			t.Fatalf("%T: pointer encode: %v", m, err)
		}
		if !bytes.Equal(val, ptr) {
			t.Errorf("%T: pointer and value encodings differ", m)
		}
	}
}

// TestCodecGobEquivalence runs every exemplar through both the v1 codec and
// gob — an independent, reflection-driven encoder kept in the tests as the
// oracle — and demands identical decoded values.
func TestCodecGobEquivalence(t *testing.T) {
	for _, m := range codecExemplars() {
		name := fmt.Sprintf("%T", m)
		buf, err := Codec.Append(nil, m)
		if err != nil {
			t.Fatalf("%s: v1 encode: %v", name, err)
		}
		v1Out, err := Codec.Decode(buf)
		if err != nil {
			t.Fatalf("%s: v1 decode: %v", name, err)
		}

		var gobBuf bytes.Buffer
		holder := m
		if err := gob.NewEncoder(&gobBuf).Encode(&holder); err != nil {
			t.Fatalf("%s: gob encode: %v", name, err)
		}
		var gobOut any
		if err := gob.NewDecoder(&gobBuf).Decode(&gobOut); err != nil {
			t.Fatalf("%s: gob decode: %v", name, err)
		}
		if !reflect.DeepEqual(v1Out, gobOut) {
			t.Errorf("%s: codec paths disagree\n v1 %#v\ngob %#v", name, v1Out, gobOut)
		}
	}
}

func TestCodecUnsupportedType(t *testing.T) {
	type notWire struct{ X int }
	if _, err := Codec.Append(nil, notWire{X: 1}); !errors.Is(err, transport.ErrUnsupportedType) {
		t.Fatalf("err = %v, want ErrUnsupportedType", err)
	}
	// A Replicated envelope around an unsupported inner message is
	// unsupported as a whole.
	if _, err := Codec.Append(nil, Replicated{Epoch: 1, Msg: notWire{}}); !errors.Is(err, transport.ErrUnsupportedType) {
		t.Fatalf("nested err = %v, want ErrUnsupportedType", err)
	}
}

func TestCodecDecodeErrors(t *testing.T) {
	if _, err := Codec.Decode(nil); err == nil {
		t.Error("decode of empty payload succeeded")
	}
	if _, err := Codec.Decode([]byte{0xff, 0xff, 0x01}); err == nil {
		t.Error("decode of unknown type id succeeded")
	}
	// Truncated GetRequest: type id present, fields missing.
	if _, err := Codec.Decode([]byte{byte(tGetRequest)}); err == nil {
		t.Error("decode of truncated message succeeded")
	}
	// Implausible collection length must be rejected, not allocated.
	buf, err := Codec.Append(nil, MultiGetRequest{})
	if err != nil {
		t.Fatal(err)
	}
	buf[1] = 0xff // Keys length byte → huge count
	if _, err := Codec.Decode(append(buf, 0xff, 0xff, 0x7f)); err == nil {
		t.Error("decode of oversized collection length succeeded")
	}
	// Trailing garbage after a complete message is a protocol error.
	ok, err := Codec.Append(nil, Ack{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Codec.Decode(append(ok, 0x00)); err == nil {
		t.Error("decode with trailing bytes succeeded")
	}
}

// TestCodecTypeIDsFrozen pins every message type to its on-wire type ID.
// These are part of the persisted wire format: changing one breaks
// mixed-version clusters, so this table is append-only.
func TestCodecTypeIDsFrozen(t *testing.T) {
	want := map[string]uint64{
		"wire.GetRequest":           1,
		"wire.GetResponse":          2,
		"wire.MultiGetRequest":      3,
		"wire.MultiGetResponse":     4,
		"wire.PutRequest":           5,
		"wire.PutResponse":          6,
		"wire.DeleteRequest":        7,
		"wire.DeleteResponse":       8,
		"wire.ReplicateData":        9,
		"wire.Replicated":           10,
		"wire.Ack":                  11,
		"wire.BatchAck":             12,
		"wire.WatermarkBroadcast":   13,
		"wire.PrepareRequest":       14,
		"wire.PrepareResponse":      15,
		"wire.DecisionRequest":      16,
		"wire.DecisionResponse":     17,
		"wire.StatusRequest":        18,
		"wire.StatusResponse":       19,
		"wire.ReplicatePrepare":     20,
		"wire.ReplicateDecision":    21,
		"wire.LeaseRequest":         22,
		"wire.LeaseResponse":        23,
		"wire.RecoveryPullRequest":  24,
		"wire.RecoveryPullResponse": 25,
		// 26–29, 32–35, 39, 40: retired (retiredTypeIDs); they stay reserved
		// and decode as unknown (TestCodecRetiredTypeIDs).
		"wire.TraceRequest":  30,
		"wire.TraceResponse": 31,
		"wire.TSDBRequest":   36,
		"wire.TSDBResponse":  37,
		"wire.WALCheckpoint": 38,
		"wire.StatsRequest":  41,
		"wire.StatsResponse": 42,
		"wire.AuditRequest":  43,
		"wire.AuditResponse": 44,
	}
	seen := map[string]bool{}
	for _, m := range codecExemplars() {
		name := fmt.Sprintf("%T", m)
		seen[name] = true
		buf, err := Codec.Append(nil, m)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		r := reader{b: buf}
		id := r.uvarint()
		if r.err != nil {
			t.Fatalf("%s: no type id", name)
		}
		if want[name] == 0 {
			t.Errorf("%s: missing from the frozen type-id table", name)
		} else if id != want[name] {
			t.Errorf("%s: type id %d, frozen table says %d", name, id, want[name])
		}
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("%s: frozen type id has no codec exemplar", name)
		}
	}
}

// retiredTypeIDs are type ids no message may take again: 26/27
// (PromoteRequest/PromoteResponse, whose work semel.Server.Promote does
// in-process), 28/29 and 34/35 (StatsRequest/StatsResponse and
// AuditRequest/AuditResponse before they were reshaped to 41–44), 32/33
// (TimeHealthRequest/TimeHealthResponse) and 39/40
// (WALStatusRequest/WALStatusResponse); the last two pairs' numbers are
// registry series in the StatsResponse snapshot.
var retiredTypeIDs = []byte{26, 27, 28, 29, 32, 33, 34, 35, 39, 40}

// TestCodecRetiredTypeIDs pins that a retired type id stays retired: each
// decodes as an unknown type, never as a newer message.
func TestCodecRetiredTypeIDs(t *testing.T) {
	for _, id := range retiredTypeIDs {
		if _, err := Codec.Decode([]byte{id}); !errors.Is(err, errUnknownType) {
			t.Errorf("decode of retired type id %d: err = %v, want %v", id, err, errUnknownType)
		}
	}
}

// TestCodecGoldenBytes freezes the exact on-wire bytes of representative
// messages. A failure here means the wire format changed: that is only
// acceptable for a NEW type id, never a reinterpretation of an existing one
// (see the versioning rules at the top of codec.go).
func TestCodecGoldenBytes(t *testing.T) {
	cases := []struct {
		msg  any
		want string // hex
	}{
		{GetRequest{Key: []byte("key"), At: clock.Timestamp{Ticks: 1000, Client: 7}, AnyReplica: true}, "01046b6579d00f0701"},
		{PutRequest{Key: []byte("k"), Val: []byte("vv"), Version: clock.Timestamp{Ticks: 64, Client: 2}}, "05026b037676800102"},
		{GetResponse{Val: []byte("v"), Version: clock.Timestamp{Ticks: 3, Client: 1}, Found: true}, "020276060101"},
		{ReplicateData{Ops: []DataOp{{Key: []byte("a"), Val: []byte("b"), Version: clock.Timestamp{Ticks: 2, Client: 9}, Tombstone: false, TC: obs.TraceContext{TraceID: 5, SpanID: 6, Sampled: true}}}}, "090202610262040900050601"},
		{PrepareRequest{ID: TxnID{Client: 1, Seq: 2}, CommitTs: clock.Timestamp{Ticks: 10, Client: 1}, ReadSet: []ReadKey{{Key: []byte("r"), Version: clock.Timestamp{Ticks: 9, Client: 1}}}, WriteSet: []KV{{Key: []byte("w"), Val: []byte("x")}}, Participants: []int{0, 2}}, "0e0102140102027212010202770278030004"},
		{DecisionRequest{ID: TxnID{Client: 3, Seq: 4}, Commit: true}, "10030401"},
		{Replicated{Epoch: 7, Msg: Ack{}}, "0a070b"},
		{WatermarkBroadcast{Client: 2, Ts: clock.Timestamp{Ticks: 500, Client: 2}}, "0d02e80702"},
		{WALCheckpoint{Epoch: 2, Watermark: clock.Timestamp{Ticks: 100, Client: 1}, LeasePrimary: "p", LeaseExpiry: clock.Timestamp{Ticks: 110, Client: 1}, Data: []DataOp{{Key: []byte("k"), Val: []byte("v"), Version: clock.Timestamp{Ticks: 90, Client: 1}}}}, "2602c801010170dc01010002026b0276b4010100000000"},
		{StatsResponse{Addr: "n5", Obs: obs.Snapshot{Counters: map[string]int64{"c": 3}, Gauges: map[string]int64{"g": -1}}}, "2a026e35020163060201670100"},
		{AuditResponse{Addr: "n5", Artifacts: [][]byte{[]byte("{}")}}, "2c026e3502037b7d"},
	}
	for _, c := range cases {
		got, err := Codec.Append(nil, c.msg)
		if err != nil {
			t.Fatalf("%T: encode: %v", c.msg, err)
		}
		if hex.EncodeToString(got) != c.want {
			t.Errorf("%T: golden bytes changed\n got %s\nwant %s", c.msg, hex.EncodeToString(got), c.want)
		}
	}
}
