package semel

import (
	"context"
	"testing"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/storage"
	"repro/internal/wal"
	"repro/internal/wire"
)

// newLoneReplica builds the lone replica of a one-replica shard over a DRAM
// backend, with log as its WAL (nil for none).
func newLoneReplica(t *testing.T, log *wal.WAL) *Server {
	t.Helper()
	dir, err := cluster.New([]cluster.ReplicaSet{{Primary: "p"}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerOptions{
		Addr: "p", Shard: 0, Primary: true, Log: log,
		LeaseDuration: -1, AntiEntropyInterval: -1, CheckpointEvery: -1,
		Backend: storage.NewDRAM(), Net: noNet{}, Dir: dir,
		Clock: clock.NewPerfect(clock.NewSystemSource(), 1000),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// TestReadBelowWatermarkMisses: below the watermark the backend keeps only
// each key's youngest version, so a read there answers SnapshotMiss rather
// than a version pruning may have hidden — whether the watermark came from
// client reports or from the checkpoint a replica restarted from. Key "kept"
// holds versions 10 and 30; key "pruned" held 10 and 22, and its 10 was
// pruned when 30 arrived above watermark 25, so a read at 20 would find it
// absent. Reads at or above the watermark are exact.
func TestReadBelowWatermarkMisses(t *testing.T) {
	at := func(ticks int64) clock.Timestamp { return clock.Timestamp{Ticks: ticks, Client: 1} }
	ctx := context.Background()
	load := func(t *testing.T, srv *Server) {
		t.Helper()
		put := func(key string, ticks int64) {
			if _, err := srv.Serve(ctx, wire.PutRequest{Key: []byte(key), Val: []byte(key), Version: at(ticks)}); err != nil {
				t.Fatal(err)
			}
		}
		put("kept", 10)
		put("pruned", 10)
		put("pruned", 22)
		if _, err := srv.Serve(ctx, wire.WatermarkBroadcast{Client: 1, Ts: at(25)}); err != nil {
			t.Fatal(err)
		}
		put("kept", 30)
		put("pruned", 30)
	}
	check := func(t *testing.T, srv *Server) {
		t.Helper()
		keys := [][]byte{[]byte("kept"), []byte("pruned")}
		for _, key := range keys {
			resp, err := srv.Serve(ctx, wire.GetRequest{Key: key, At: at(20)})
			if err != nil {
				t.Fatal(err)
			}
			if g := resp.(wire.GetResponse); !g.SnapshotMiss {
				t.Fatalf("get %s at 20 below watermark 25 answered %+v, want a snapshot miss", key, g)
			}
			resp, err = srv.Serve(ctx, wire.GetRequest{Key: key, At: at(30)})
			if err != nil {
				t.Fatal(err)
			}
			if g := resp.(wire.GetResponse); !g.Found || g.Version != at(30) || g.SnapshotMiss {
				t.Fatalf("get %s at 30 answered %+v, want version 30", key, g)
			}
		}
		resp, err := srv.Serve(ctx, wire.MultiGetRequest{Keys: keys, At: at(20)})
		if err != nil {
			t.Fatal(err)
		}
		for i, g := range resp.(wire.MultiGetResponse).Items {
			if !g.SnapshotMiss {
				t.Fatalf("multiget %s at 20 answered %+v, want a snapshot miss", keys[i], g)
			}
		}
	}
	t.Run("reported", func(t *testing.T) {
		srv := newLoneReplica(t, nil)
		load(t, srv)
		check(t, srv)
	})
	t.Run("checkpoint", func(t *testing.T) {
		fs := wal.NewMemFS()
		open := func() *wal.WAL {
			w, err := wal.Open(wal.Options{Dir: "/wal", FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			return w
		}
		w := open()
		srv := newLoneReplica(t, w)
		load(t, srv)
		if err := srv.CheckpointWAL(); err != nil {
			t.Fatal(err)
		}
		srv.Close()
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		w = open()
		t.Cleanup(func() { _ = w.Close() })
		check(t, newLoneReplica(t, w))
	})
}
