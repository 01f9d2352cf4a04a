package semel_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/semel"
	"repro/internal/transport"
	"repro/internal/wire"
)

func newCluster(t *testing.T, opt core.ClusterOptions) *core.Cluster {
	t.Helper()
	c, err := core.NewCluster(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestReplicationQuorumToleratesOneBackupDown(t *testing.T) {
	c := newCluster(t, core.ClusterOptions{Shards: 1, Replicas: 3, LeaseDuration: -1})
	ctx := context.Background()
	cl := c.NewSemelClient(1)

	// One of two backups down: majority still reachable, writes succeed.
	c.Bus.SetDown(core.Addr(0, 2), true)
	if _, err := cl.Put(ctx, []byte("k"), []byte("v")); err != nil {
		t.Fatalf("put with one backup down: %v", err)
	}
	// Both backups down: no quorum, writes must fail.
	c.Bus.SetDown(core.Addr(0, 1), true)
	ctx2, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if _, err := cl.Put(ctx2, []byte("k2"), []byte("v")); err == nil {
		t.Fatal("put succeeded without a replication quorum")
	}
	// Recovered backup restores the quorum.
	c.Bus.SetDown(core.Addr(0, 1), false)
	if _, err := cl.Put(ctx, []byte("k3"), []byte("v")); err != nil {
		t.Fatalf("put after backup recovery: %v", err)
	}
}

func TestBackupRefusesClientOperations(t *testing.T) {
	c := newCluster(t, core.ClusterOptions{Shards: 1, Replicas: 3, LeaseDuration: -1})
	ctx := context.Background()
	backup := core.Addr(0, 1)
	if _, err := c.Bus.Call(ctx, backup, wire.GetRequest{Key: []byte("k")}); !errors.Is(err, semel.ErrNotPrimary) {
		t.Fatalf("backup served a get: %v", err)
	}
	if _, err := c.Bus.Call(ctx, backup, wire.PutRequest{Key: []byte("k"), Val: []byte("v")}); !errors.Is(err, semel.ErrNotPrimary) {
		t.Fatalf("backup served a put: %v", err)
	}
	if _, err := c.Bus.Call(ctx, backup, wire.PrepareRequest{ID: wire.TxnID{Client: 1, Seq: 1}}); !errors.Is(err, semel.ErrNotPrimary) {
		t.Fatalf("backup served a prepare: %v", err)
	}
}

func TestIdempotentRetransmission(t *testing.T) {
	// §3.3: a retransmitted write (same version) is acknowledged again;
	// an older version is rejected.
	c := newCluster(t, core.ClusterOptions{Shards: 1, Replicas: 1, LeaseDuration: -1})
	ctx := context.Background()
	primary := core.Addr(0, 0)
	cl := c.NewSemelClient(1)

	v1 := cl.Clock().Now()
	v2 := cl.Clock().Now()
	if resp, err := c.Bus.Call(ctx, primary, wire.PutRequest{Key: []byte("k"), Val: []byte("new"), Version: v2}); err != nil || resp.(wire.PutResponse).Rejected {
		t.Fatalf("initial put: %+v %v", resp, err)
	}
	// Retransmit the same version: accepted (repeat of earlier response).
	if resp, err := c.Bus.Call(ctx, primary, wire.PutRequest{Key: []byte("k"), Val: []byte("new"), Version: v2}); err != nil || resp.(wire.PutResponse).Rejected {
		t.Fatalf("retransmission rejected: %+v %v", resp, err)
	}
	// An older version loses the timestamp race.
	if resp, err := c.Bus.Call(ctx, primary, wire.PutRequest{Key: []byte("k"), Val: []byte("old"), Version: v1}); err != nil || !resp.(wire.PutResponse).Rejected {
		t.Fatalf("stale write accepted: %+v %v", resp, err)
	}
	// The newer value survived.
	val, _, _, err := cl.Get(ctx, []byte("k"))
	if err != nil || string(val) != "new" {
		t.Fatalf("val = %q, %v", val, err)
	}
	// Delete with a stale version is rejected too.
	if resp, err := c.Bus.Call(ctx, primary, wire.DeleteRequest{Key: []byte("k"), Version: v1}); err != nil || !resp.(wire.DeleteResponse).Rejected {
		t.Fatalf("stale delete accepted: %+v %v", resp, err)
	}
}

func TestUnknownRequestType(t *testing.T) {
	c := newCluster(t, core.ClusterOptions{Shards: 1, Replicas: 1, LeaseDuration: -1})
	if _, err := c.Bus.Call(context.Background(), core.Addr(0, 0), struct{ X int }{1}); err == nil {
		t.Fatal("unknown request type accepted")
	}
}

// reportWatermark sends one client's watermark report to every replica of
// every shard, as milana.Client.BroadcastWatermark does, and fails the test
// on any error.
func reportWatermark(t *testing.T, ctx context.Context, net transport.Client, dir *cluster.Directory, client uint32, ts clock.Timestamp) {
	t.Helper()
	for i := 0; i < dir.NumShards(); i++ {
		rs, err := dir.Shard(cluster.ShardID(i))
		if err != nil {
			t.Fatal(err)
		}
		for _, addr := range rs.Replicas() {
			if _, err := net.Call(ctx, addr, wire.WatermarkBroadcast{Client: client, Ts: ts}); err != nil {
				t.Fatalf("watermark report to %s: %v", addr, err)
			}
		}
	}
}

func TestWatermarkFlowsToBackends(t *testing.T) {
	c := newCluster(t, core.ClusterOptions{Shards: 2, Replicas: 3, Backend: core.BackendMFTL, PackTimeout: -1, LeaseDuration: -1})
	ctx := context.Background()
	cl := c.NewSemelClient(1)
	// Write a few versions of one key.
	for i := 0; i < 4; i++ {
		if _, err := cl.Put(ctx, []byte("hot"), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	low := cl.Clock().Now()
	reportWatermark(t, ctx, c.Bus, c.Dir, 1, low)
	// A second client's later report raises nothing (min rule).
	reportWatermark(t, ctx, c.Bus, c.Dir, 2, c.NewSemelClient(2).Clock().Now())
	for s := 0; s < 2; s++ {
		for r := 0; r < 3; r++ {
			if w := c.Server(core.Addr(s, r)).Watermark(); w != low {
				t.Fatalf("replica %s watermark %v, want the lower report %v", core.Addr(s, r), w, low)
			}
		}
	}
	val, _, found, err := cl.Get(ctx, []byte("hot"))
	if err != nil || !found || val[0] != 3 {
		t.Fatalf("latest lost after watermark GC: %v %v %v", val, found, err)
	}
}

func TestDeleteReplicatesToBackups(t *testing.T) {
	c := newCluster(t, core.ClusterOptions{Shards: 1, Replicas: 3, LeaseDuration: -1})
	ctx := context.Background()
	cl := c.NewSemelClient(1)
	if _, err := cl.Put(ctx, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Delete(ctx, []byte("k")); err != nil {
		t.Fatal(err)
	}
	// Tombstones propagate like any version: each backup's youngest
	// version for the key must become the tombstone.
	deadline := time.Now().Add(2 * time.Second)
	for r := 0; r < 3; r++ {
		for {
			ver, tomb, found := c.Backend(core.Addr(0, r)).LatestVersion([]byte("k"))
			if found && tomb && !ver.IsZero() {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica %d never saw the tombstone", r)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func TestStatsCounters(t *testing.T) {
	c := newCluster(t, core.ClusterOptions{Shards: 1, Replicas: 3, LeaseDuration: -1})
	ctx := context.Background()
	cl := c.NewSemelClient(1)
	if _, err := cl.Put(ctx, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := cl.Get(ctx, []byte("k")); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Bus.Call(ctx, core.Addr(0, 0), wire.StatsRequest{})
	if err != nil {
		t.Fatal(err)
	}
	st, ok := resp.(wire.StatsResponse)
	if !ok {
		t.Fatalf("resp = %T", resp)
	}
	if st.Addr != core.Addr(0, 0) || st.Obs.Gauges["semel_primary"] != 1 {
		t.Fatalf("identity wrong: addr %q, semel_primary %d", st.Addr, st.Obs.Gauges["semel_primary"])
	}
	puts, gets := st.Obs.Hists[`semel_serve_ns{op="put"}`].Count, st.Obs.Hists[`semel_serve_ns{op="get"}`].Count
	if puts != 1 || gets != 1 {
		t.Fatalf("puts=%d gets=%d, want 1 and 1", puts, gets)
	}
	// Backups count replicated ops; the second delivery completes in the
	// background, so poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err = c.Bus.Call(ctx, core.Addr(0, 1), wire.StatsRequest{})
		if err != nil {
			t.Fatal(err)
		}
		bst := resp.(wire.StatsResponse)
		if bst.Obs.Gauges["semel_primary"] != 0 {
			t.Fatalf("backup %s claims primary", bst.Addr)
		}
		if bst.Obs.Counters["semel_replicated_ops_total"] > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("backup %s never counted replicated ops", bst.Addr)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPromoteRequiresDirectoryAgreement(t *testing.T) {
	c := newCluster(t, core.ClusterOptions{Shards: 1, Replicas: 3, LeaseDuration: -1})
	// The directory still names r0 primary: a rogue self-promotion of r1
	// must be refused.
	backup := c.Server(core.Addr(0, 1))
	if err := backup.Promote(context.Background()); err == nil {
		t.Fatal("backup promoted itself without directory agreement")
	}
	if backup.IsPrimary() {
		t.Fatal("refused promotion still changed the role")
	}
}

func TestPromoteNeedsMajority(t *testing.T) {
	c := newCluster(t, core.ClusterOptions{Shards: 1, Replicas: 3, LeaseDuration: -1})
	ctx := context.Background()
	// Kill the primary AND the other backup: the promoted replica cannot
	// reach f+1 replicas and must refuse to serve.
	c.Bus.SetDown(core.Addr(0, 0), true)
	c.Bus.SetDown(core.Addr(0, 2), true)
	if _, err := c.Dir.Failover(0); err != nil {
		t.Fatal(err)
	}
	tctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	err := c.Server(core.Addr(0, 1)).Promote(tctx)
	if err == nil {
		t.Fatal("promotion succeeded without a majority of replicas")
	}
}

func TestAntiEntropyHealsCrashedBackup(t *testing.T) {
	c := newCluster(t, core.ClusterOptions{Shards: 1, Replicas: 3, LeaseDuration: -1})
	ctx := context.Background()
	cl := c.NewSemelClient(1)

	// Crash one backup, write while it is gone: the quorum (primary +
	// other backup) accepts the writes.
	down := core.Addr(0, 2)
	c.Bus.SetDown(down, true)
	for i := 0; i < 5; i++ {
		if _, err := cl.Put(ctx, []byte{byte(i)}, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, found, _ := c.Backend(down).Latest([]byte{3}); found {
		t.Fatal("downed backup somehow received writes")
	}
	// Bring it back. Its anti-entropy loop ticks every
	// AntiEntropyInterval (default 1 s) and pulls everything above the
	// watermark from the primary.
	c.Bus.SetDown(down, false)
	deadline := time.Now().Add(10 * time.Second)
	for {
		healed := true
		for i := 0; i < 5; i++ {
			if _, _, found, _ := c.Backend(down).Latest([]byte{byte(i)}); !found {
				healed = false
				break
			}
		}
		if healed {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("recovered backup never caught up via anti-entropy")
		}
		time.Sleep(50 * time.Millisecond)
	}
}
