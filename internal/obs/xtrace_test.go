package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
)

func TestTraceContextRoundTripsThroughContext(t *testing.T) {
	tc := TraceContext{TraceID: 1, SpanID: 2, Sampled: true}
	if got := ReqFrom(WithReq(context.Background(), Req{TraceContext: tc})).TraceContext; got != tc {
		t.Fatalf("ReqFrom = %+v", got)
	}
	if ReqFrom(context.Background()).Sampled {
		t.Fatal("empty ctx reported a trace")
	}
	// An unsampled context is deliberately invisible: carrying it is free.
	ctx := context.Background()
	if WithReq(ctx, Req{TraceContext: TraceContext{TraceID: 1}}) != ctx {
		t.Fatal("unsampled trace was attached")
	}
}

func TestSpanStoreRingAndForTrace(t *testing.T) {
	s := NewSpanStore("n1", 4)
	for i := 0; i < 6; i++ {
		s.Add(SpanRecord{TraceID: uint64(i % 2), SpanID: uint64(i + 1)})
	}
	recent := s.Recent()
	if len(recent) != 4 {
		t.Fatalf("ring kept %d spans, want 4", len(recent))
	}
	// Oldest two (SpanID 1,2) were overwritten.
	if recent[0].SpanID != 3 || recent[3].SpanID != 6 {
		t.Fatalf("ring order wrong: %+v", recent)
	}
	tr0 := s.ForTrace(0)
	for _, sp := range tr0 {
		if sp.TraceID != 0 {
			t.Fatalf("ForTrace(0) returned trace %d", sp.TraceID)
		}
	}
	if len(tr0) != 2 {
		t.Fatalf("ForTrace(0) = %d spans, want 2", len(tr0))
	}
}

func TestSpanStoreNilSafe(t *testing.T) {
	var s *SpanStore
	s.Add(SpanRecord{})
	if s.NextID() != 0 || s.Node() != "" || s.ForTrace(1) != nil || s.Recent() != nil {
		t.Fatal("nil SpanStore must be a no-op")
	}
}

func TestSpanStoreIDsDistinctAcrossNodes(t *testing.T) {
	a, b := NewSpanStore("shard0/r0", 8), NewSpanStore("shard0/r1", 8)
	seen := make(map[uint64]bool)
	for i := 0; i < 100; i++ {
		for _, id := range []uint64{a.NextID(), b.NextID()} {
			if id == 0 || seen[id] {
				t.Fatalf("duplicate or zero span ID %x", id)
			}
			seen[id] = true
		}
	}
}

// TestCollectorAssemble builds a three-node trace whose raw timestamps are
// mutually inconsistent (each node's clock is offset differently) and checks
// the collector aligns them, nests them, and annotates each edge with the sum
// of the two clocks' uncertainties.
func TestCollectorAssemble(t *testing.T) {
	const tid = 0x99
	col := NewCollector()
	// Client clock is the reference: offset 0, uncertainty 0.
	col.AddSpans([]SpanRecord{{TraceID: tid, SpanID: 1, Node: "client-1", Name: "txn", Start: 0, End: 1000}})
	col.SetNodeClock(NodeClock{Node: "client-1"})
	// Primary runs 500 ns ahead; its raw span [700,900] is really [200,400].
	col.AddSpans([]SpanRecord{{TraceID: tid, SpanID: 2, Parent: 1, Node: "shard0/r0", Name: "prepare", Start: 700, End: 900}})
	col.SetNodeClock(NodeClock{Node: "shard0/r0", OffsetNs: 500, UncertaintyNs: 100})
	// Backup runs 300 ns behind; raw [-50,0] is really [250,300].
	col.AddSpans([]SpanRecord{{TraceID: tid, SpanID: 3, Parent: 2, Node: "shard0/r1", Name: "replicate-op", Start: -50, End: 0}})
	col.SetNodeClock(NodeClock{Node: "shard0/r1", OffsetNs: -300, UncertaintyNs: 50})
	// A span from an unrelated trace must not appear.
	col.AddSpans([]SpanRecord{{TraceID: 0x42, SpanID: 9, Node: "shard0/r0"}})
	// Re-fetching the same span from another replica must not duplicate it.
	col.AddSpans([]SpanRecord{{TraceID: tid, SpanID: 2, Parent: 1, Node: "shard0/r0", Name: "prepare", Start: 700, End: 900}})

	tr := col.Assemble(tid)
	if len(tr.Spans) != 3 {
		t.Fatalf("assembled %d spans, want 3: %+v", len(tr.Spans), tr.Spans)
	}
	root, child, grand := tr.Spans[0], tr.Spans[1], tr.Spans[2]
	if root.SpanID != 1 || root.Depth != 0 || child.SpanID != 2 || child.Depth != 1 || grand.SpanID != 3 || grand.Depth != 2 {
		t.Fatalf("tree shape wrong: %+v", tr.Spans)
	}
	if child.StartNs != 200 || child.EndNs != 400 {
		t.Fatalf("primary span misaligned: [%d,%d], want [200,400]", child.StartNs, child.EndNs)
	}
	if grand.StartNs != 250 || grand.EndNs != 300 {
		t.Fatalf("backup span misaligned: [%d,%d], want [250,300]", grand.StartNs, grand.EndNs)
	}
	// Edge error bars: child edge crosses client (0) + primary (100);
	// grandchild edge crosses primary (100) + backup (50).
	if child.EdgeUncertaintyNs != 100 || grand.EdgeUncertaintyNs != 150 {
		t.Fatalf("edge uncertainty wrong: child %d (want 100), grandchild %d (want 150)",
			child.EdgeUncertaintyNs, grand.EdgeUncertaintyNs)
	}
	if nodes := tr.Nodes(); len(nodes) != 3 {
		t.Fatalf("Nodes() = %v", nodes)
	}
	out := tr.Render()
	if !strings.Contains(out, "3 spans across 3 nodes") || !strings.Contains(out, "±") {
		t.Fatalf("render missing header or uncertainty annotation:\n%s", out)
	}
	for _, name := range []string{"txn", "prepare", "replicate-op"} {
		if !strings.Contains(out, name) {
			t.Fatalf("render missing span %q:\n%s", name, out)
		}
	}
}

func TestCollectorAssembleOrphanBecomesRoot(t *testing.T) {
	col := NewCollector()
	// Parent span 7 was evicted from its node's ring: the child must still
	// render, promoted to a root.
	col.AddSpans([]SpanRecord{{TraceID: 1, SpanID: 8, Parent: 7, Node: "n", Name: "get", Start: 5, End: 6}})
	tr := col.Assemble(1)
	if len(tr.Spans) != 1 || tr.Spans[0].Depth != 0 {
		t.Fatalf("orphan handling wrong: %+v", tr.Spans)
	}
}

// TestSpanStoreConcurrent hammers one store from many goroutines while
// readers drain it — run under -race (make check does).
func TestSpanStoreConcurrent(t *testing.T) {
	s := NewSpanStore("stress", 64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := s.NextID()
				s.Add(SpanRecord{TraceID: uint64(g), SpanID: id, Node: s.Node(), Name: "op"})
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = s.Recent()
				_ = s.ForTrace(uint64(g))
			}
		}(g)
	}
	wg.Wait()
	if len(s.Recent()) != 64 {
		t.Fatalf("ring size drifted: %d", len(s.Recent()))
	}
}
