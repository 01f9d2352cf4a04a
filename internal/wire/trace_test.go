package wire

import "testing"

func TestTraceIDDeterministic(t *testing.T) {
	a := TxnID{Client: 7, Seq: 42}.TraceID()
	b := TxnID{Client: 7, Seq: 42}.TraceID()
	if a != b {
		t.Fatalf("TraceID not deterministic: %x vs %x", a, b)
	}
	if a>>63 != 1 {
		t.Fatalf("TraceID top bit clear: %x (would collide with SpanStore.NextID)", a)
	}
	if c := (TxnID{Client: 8, Seq: 42}).TraceID(); c == a {
		t.Fatalf("distinct clients share trace ID %x", a)
	}
	if c := (TxnID{Client: 7, Seq: 43}).TraceID(); c == a {
		t.Fatalf("distinct seqs share trace ID %x", a)
	}
}
