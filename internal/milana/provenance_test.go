package milana

import (
	"context"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// provCounts reads the two abort-provenance counters.
func provCounts(reg *obs.Registry) (skew, conflict int64) {
	s := reg.Snapshot()
	return s.Counters[`milana_abort_provenance_total{cause="skew"}`],
		s.Counters[`milana_abort_provenance_total{cause="conflict"}`]
}

// TestAbortProvenanceClassification drives the two Late* validation aborts —
// the only reasons clock skew can cause — with margins inside and outside the
// skew window, plus a non-Late abort, and checks each lands in the right
// provenance bucket.
func TestAbortProvenanceClassification(t *testing.T) {
	m := NewManager(newFakeHost())
	reg := obs.NewRegistry()
	m.SetMetrics(reg)
	m.SetSkewWindow(100 * time.Nanosecond)
	ctx := context.Background()

	// AbortLateWrite by 50 ticks ≤ window: skew-induced. (Commit version 500
	// of "a", then a writer stamped 450 loses by 50.)
	if resp, _ := m.Prepare(ctx, prepReq(1, 500, nil, []wire.KV{{Key: []byte("a")}})); !resp.OK {
		t.Fatal("T1 prepare")
	}
	_, _ = m.Decision(ctx, wire.DecisionRequest{ID: wire.TxnID{Client: 1, Seq: 1}, Commit: true})
	if resp, _ := m.Prepare(ctx, prepReq(2, 450, nil, []wire.KV{{Key: []byte("a")}})); resp.OK || resp.Code != wire.AbortLateWrite {
		t.Fatalf("T2 should lose by 50: %+v", resp)
	}
	if skew, conflict := provCounts(reg); skew != 1 || conflict != 0 {
		t.Fatalf("after near-miss late write: skew=%d conflict=%d, want 1/0", skew, conflict)
	}

	// The same reason losing by 400 > window: a real data conflict.
	if resp, _ := m.Prepare(ctx, prepReq(3, 100, nil, []wire.KV{{Key: []byte("a")}})); resp.OK || resp.Code != wire.AbortLateWrite {
		t.Fatalf("T3 should lose by 400: %+v", resp)
	}
	if skew, conflict := provCounts(reg); skew != 1 || conflict != 1 {
		t.Fatalf("after wide late write: skew=%d conflict=%d, want 1/1", skew, conflict)
	}

	// AbortLateWriteRead by 30 ≤ window: skew-induced. ("b" read at 630, a
	// writer stamped 600 loses by 30.)
	onGet(m, ctx, []byte("b"), ts(630))
	if resp, _ := m.Prepare(ctx, prepReq(4, 600, nil, []wire.KV{{Key: []byte("b")}})); resp.OK || resp.Code != wire.AbortLateWriteRead {
		t.Fatalf("T4 should lose to the read: %+v", resp)
	}
	if skew, conflict := provCounts(reg); skew != 2 || conflict != 1 {
		t.Fatalf("after near-miss write-read: skew=%d conflict=%d, want 2/1", skew, conflict)
	}

	// A stale read is never skew-attributed, whatever its margin.
	if resp, _ := m.Prepare(ctx, prepReq(5, 700, []wire.ReadKey{{Key: []byte("a"), Version: ts(1)}}, []wire.KV{{Key: []byte("c")}})); resp.OK || resp.Code != wire.AbortReadStale {
		t.Fatalf("T5 should abort on stale read: %+v", resp)
	}
	if skew, conflict := provCounts(reg); skew != 2 || conflict != 2 {
		t.Fatalf("after stale read: skew=%d conflict=%d, want 2/2", skew, conflict)
	}
}

// TestAbortProvenanceZeroWindow checks the default (no skew window — perfect
// clocks) attributes everything to conflict.
func TestAbortProvenanceZeroWindow(t *testing.T) {
	m := NewManager(newFakeHost())
	reg := obs.NewRegistry()
	m.SetMetrics(reg)
	ctx := context.Background()
	if resp, _ := m.Prepare(ctx, prepReq(1, 500, nil, []wire.KV{{Key: []byte("a")}})); !resp.OK {
		t.Fatal("T1 prepare")
	}
	_, _ = m.Decision(ctx, wire.DecisionRequest{ID: wire.TxnID{Client: 1, Seq: 1}, Commit: true})
	if resp, _ := m.Prepare(ctx, prepReq(2, 499, nil, []wire.KV{{Key: []byte("a")}})); resp.OK {
		t.Fatal("T2 should lose")
	}
	if skew, conflict := provCounts(reg); skew != 0 || conflict != 1 {
		t.Fatalf("zero window: skew=%d conflict=%d, want 0/1", skew, conflict)
	}
}
