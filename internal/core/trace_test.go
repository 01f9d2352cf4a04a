package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/milana"
	"repro/internal/obs"
)

// collectTrace pulls a trace's spans and clock-health estimates from every
// replica of shard 0 into one collector — the embedded-cluster equivalent of
// `milctl trace <id>` fanning TraceRequests out over TCP.
func collectTrace(c *Cluster, tid uint64, replicas int) *obs.Collector {
	col := obs.NewCollector()
	for r := 0; r < replicas; r++ {
		addr := Addr(0, r)
		col.AddSpans(c.Server(addr).Spans().ForTrace(tid))
		h := c.serverClockHealth(addr)
		col.SetNodeClock(obs.NodeClock{Node: addr, OffsetNs: h.OffsetNs, UncertaintyNs: h.UncertaintyNs})
	}
	return col
}

// TestStitchedTxnTraceAcrossSkewedNodes is the acceptance scenario: a
// replicated MILANA read-write transaction under PTP-software skew (servers
// skewed too) must yield one stitched timeline containing the client's root
// span, primary spans, and at least one backup span, with every edge carrying
// a nonzero residual-uncertainty annotation.
func TestStitchedTxnTraceAcrossSkewedNodes(t *testing.T) {
	c := newTestCluster(t, ClusterOptions{
		Shards:       1,
		Replicas:     3,
		ClockProfile: clock.PTPSoftware,
		SkewServers:  true,
		Seed:         7,
	})
	stop := c.StartSynchronizer()
	defer stop()

	txc := c.NewTxnClient(1)
	txc.SyncDecisions = true // decision spans land before Commit returns
	txc.EnableTracing(0)
	ctx := context.Background()

	var tid uint64
	err := txc.RunTransaction(ctx, func(tx *milana.Txn) error {
		tid = tx.ID().TraceID()
		if _, _, err := tx.Get(ctx, []byte("acct")); err != nil {
			return err
		}
		return tx.Put([]byte("acct"), []byte("100"))
	})
	if err != nil {
		t.Fatalf("txn: %v", err)
	}

	col := collectTrace(c, tid, 3)
	col.AddSpans(txc.Spans().ForTrace(tid))
	if hr, ok := txc.Clock().(clock.HealthReporter); ok {
		h := hr.Health()
		col.SetNodeClock(obs.NodeClock{Node: txc.Spans().Node(), OffsetNs: h.OffsetNs, UncertaintyNs: h.UncertaintyNs})
	}

	tr := col.Assemble(tid)
	nodes := tr.Nodes()
	var haveClient, havePrimary, haveBackup bool
	for _, n := range nodes {
		switch {
		case n == "client-1":
			haveClient = true
		case n == Addr(0, 0):
			havePrimary = true
		case n == Addr(0, 1) || n == Addr(0, 2):
			haveBackup = true
		}
	}
	if !haveClient || !havePrimary || !haveBackup {
		t.Fatalf("trace spans %d, nodes %v: want client + primary + ≥1 backup\n%s",
			len(tr.Spans), nodes, tr.Render())
	}

	// The root must be the client's txn span; everything else nests below it.
	if tr.Spans[0].Name != "txn" || tr.Spans[0].Node != "client-1" || tr.Spans[0].Depth != 0 {
		t.Fatalf("root span = %+v", tr.Spans[0])
	}
	var nested, uncertain int
	for _, sp := range tr.Spans[1:] {
		if sp.Depth > 0 {
			nested++
		}
		if sp.EdgeUncertaintyNs > 0 {
			uncertain++
		}
	}
	if nested == 0 {
		t.Fatalf("no server span nested under the client root:\n%s", tr.Render())
	}
	// All clocks are PTP-software disciplined, so every cross-node edge
	// carries residual uncertainty.
	if uncertain != len(tr.Spans)-1 {
		t.Fatalf("%d/%d edges annotated with uncertainty:\n%s", uncertain, len(tr.Spans)-1, tr.Render())
	}
	out := tr.Render()
	if !strings.Contains(out, "±") {
		t.Fatalf("render missing ± annotations:\n%s", out)
	}
}

// TestTraceRidesReplicationBatcher checks a traced SEMEL put keeps its
// causality through the coalescing batcher: the backup records a
// "replicate-op" span parented to the primary's put span even though the
// batch RPC itself is untraced.
func TestTraceRidesReplicationBatcher(t *testing.T) {
	c := newTestCluster(t, ClusterOptions{Shards: 1, Replicas: 3, Seed: 3})
	cl := c.NewSemelClient(1)
	cl.EnableTracing(0)
	ctx := context.Background()
	if _, err := cl.Put(ctx, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	roots := cl.Spans().Recent()
	if len(roots) != 1 || roots[0].Name != "put" {
		t.Fatalf("client root spans = %+v", roots)
	}
	tid := roots[0].TraceID

	// The batcher flushes asynchronously; poll for the backup spans.
	deadline := time.Now().Add(2 * time.Second)
	for {
		var backupOps int
		var parentOK bool
		primary := c.Server(Addr(0, 0)).Spans().ForTrace(tid)
		for r := 1; r < 3; r++ {
			for _, sp := range c.Server(Addr(0, r)).Spans().ForTrace(tid) {
				if sp.Name == "replicate-op" {
					backupOps++
					for _, p := range primary {
						if p.SpanID == sp.Parent {
							parentOK = true
						}
					}
				}
			}
		}
		if backupOps >= 1 && parentOK {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("backup replicate-op spans: %d (parent linked: %v); primary spans: %+v",
				backupOps, parentOK, primary)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSlowRequestCounter checks the slow-request log's counter side: with a
// threshold every RPC exceeds, served operations are counted (and logged
// with their trace ID, which this test can't observe directly).
func TestSlowRequestCounter(t *testing.T) {
	c := newTestCluster(t, ClusterOptions{Shards: 1, Replicas: 3, SlowRequestThreshold: time.Nanosecond})
	cl := c.NewSemelClient(1)
	cl.EnableTracing(0)
	if _, err := cl.Put(context.Background(), []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if n := c.MergedSnapshot().Counters["semel_slow_requests_total"]; n == 0 {
		t.Fatal("slow-request counter never incremented under a 1ns threshold")
	}
}

// TestUncertaintyTightensAcrossProfiles renders the same workload under NTP,
// PTP-software, and DTP and checks the trace's error bars shrink with the
// profile — the paper's sync ladder read directly off the timeline.
func TestUncertaintyTightensAcrossProfiles(t *testing.T) {
	maxEdge := func(p clock.Profile) int64 {
		c := newTestCluster(t, ClusterOptions{
			Shards: 1, Replicas: 3, ClockProfile: p, SkewServers: true, Seed: 11,
		})
		txc := c.NewTxnClient(1)
		txc.SyncDecisions = true
		txc.EnableTracing(0)
		ctx := context.Background()
		var tid uint64
		err := txc.RunTransaction(ctx, func(tx *milana.Txn) error {
			tid = tx.ID().TraceID()
			return tx.Put([]byte("k"), []byte("v"))
		})
		if err != nil {
			t.Fatalf("%s txn: %v", p.Name, err)
		}
		col := collectTrace(c, tid, 3)
		col.AddSpans(txc.Spans().ForTrace(tid))
		if hr, ok := txc.Clock().(clock.HealthReporter); ok {
			h := hr.Health()
			col.SetNodeClock(obs.NodeClock{Node: txc.Spans().Node(), OffsetNs: h.OffsetNs, UncertaintyNs: h.UncertaintyNs})
		}
		var max int64
		for _, sp := range col.Assemble(tid).Spans {
			if sp.EdgeUncertaintyNs > max {
				max = sp.EdgeUncertaintyNs
			}
		}
		return max
	}
	ntp := maxEdge(clock.NTP)
	ptp := maxEdge(clock.PTPSoftware)
	dtp := maxEdge(clock.DTP)
	if !(ntp > ptp && ptp > dtp) {
		t.Fatalf("uncertainty did not tighten: NTP %d ≥ PTP %d ≥ DTP %d expected strict", ntp, ptp, dtp)
	}
	if dtp <= 0 {
		t.Fatalf("DTP trace reported zero uncertainty (%d) with skewed clocks", dtp)
	}
}
