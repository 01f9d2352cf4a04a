package wire

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"repro/internal/clock"
	"repro/internal/obs"
)

// FuzzCodecRoundTrip drives the codec from two directions:
//
//  1. Structured: build hot-path messages from fuzzed primitives and demand
//     decode(encode(m)) == m, and that gob — the tests' independent
//     oracle — decodes the same message to the same value.
//  2. Adversarial: feed the raw fuzz input straight to Decode. It must
//     never panic or over-allocate; when it does decode, the result must
//     re-encode canonically (decode∘encode is idempotent).
func FuzzCodecRoundTrip(f *testing.F) {
	for _, m := range codecExemplars() {
		if buf, err := Codec.Append(nil, m); err == nil {
			f.Add(buf, int64(1), uint32(2), true, []byte("k"), []byte("v"))
		}
	}
	// Frames of the retired type ids: the adversarial direction must
	// reject them.
	for _, id := range retiredTypeIDs {
		f.Add([]byte{id}, int64(1), uint32(2), true, []byte("k"), []byte("v"))
	}
	f.Fuzz(func(t *testing.T, raw []byte, ticks int64, client uint32, flag bool, key, val []byte) {
		// Codec v1 preserves the nil/empty slice distinction; gob collapses
		// empty to nil. The equivalence claim is over nil-or-populated
		// inputs (nothing in the system sends empty-but-non-nil slices), so
		// normalize the fuzzed bytes the same way.
		if len(key) == 0 {
			key = nil
		}
		if len(val) == 0 {
			val = nil
		}
		ts := clock.Timestamp{Ticks: ticks, Client: client}
		structured := []any{
			GetRequest{Key: key, At: ts, AnyReplica: flag},
			GetResponse{Val: val, Version: ts, Found: flag, SnapshotMiss: !flag},
			PutRequest{Key: key, Val: val, Version: ts},
			MultiGetRequest{Keys: [][]byte{key, val}, At: ts, AnyReplica: flag},
			ReplicateData{Ops: []DataOp{
				{Key: key, Val: val, Version: ts, Tombstone: flag, TC: obs.TraceContext{TraceID: uint64(client), SpanID: uint64(ticks), Sampled: flag}},
				{Key: val, Version: ts},
			}},
			PrepareRequest{
				ID: TxnID{Client: client, Seq: uint64(ticks)}, CommitTs: ts,
				ReadSet:  []ReadKey{{Key: key, Version: ts}},
				WriteSet: []KV{{Key: key, Val: val}}, Participants: []int{int(client % 7)},
			},
			BatchAck{Errs: []string{string(key)}},
			Replicated{Epoch: uint64(client), Msg: PutRequest{Key: key, Val: val, Version: ts}},
		}
		for _, m := range structured {
			buf, err := Codec.Append(nil, m)
			if err != nil {
				t.Fatalf("%T: encode: %v", m, err)
			}
			out, err := Codec.Decode(buf)
			if err != nil {
				t.Fatalf("%T: decode: %v", m, err)
			}
			if !reflect.DeepEqual(out, m) {
				t.Fatalf("%T: v1 round trip mismatch\n got %#v\nwant %#v", m, out, m)
			}
			var gobBuf bytes.Buffer
			holder := m
			if err := gob.NewEncoder(&gobBuf).Encode(&holder); err != nil {
				t.Fatalf("%T: gob encode: %v", m, err)
			}
			var gobOut any
			if err := gob.NewDecoder(&gobBuf).Decode(&gobOut); err != nil {
				t.Fatalf("%T: gob decode: %v", m, err)
			}
			if !reflect.DeepEqual(out, gobOut) {
				t.Fatalf("%T: v1 and gob paths disagree\n v1 %#v\ngob %#v", m, out, gobOut)
			}
		}

		// Adversarial direction: arbitrary bytes.
		v, err := Codec.Decode(raw)
		if err != nil {
			return
		}
		re, err := Codec.Append(nil, v)
		if err != nil {
			t.Fatalf("decoded %T but cannot re-encode: %v", v, err)
		}
		v2, err := Codec.Decode(re)
		if err != nil {
			t.Fatalf("re-encoded %T does not decode: %v", v, err)
		}
		if !reflect.DeepEqual(v, v2) {
			t.Fatalf("decode∘encode not idempotent\n 1st %#v\n 2nd %#v", v, v2)
		}
	})
}
