package semel

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/milana"
	"repro/internal/storage"
	"repro/internal/wire"
)

// noNet is the transport of a replica with no peers: nothing may call out.
type noNet struct{}

func (noNet) Call(context.Context, string, any) (any, error) {
	return nil, errors.New("noNet: unexpected call")
}

var (
	parkKey   = []byte("k")
	oldTs     = clock.Timestamp{Ticks: 10, Client: 1}
	pendingTs = clock.Timestamp{Ticks: 100, Client: 1}
	readTs    = clock.Timestamp{Ticks: 150, Client: 2}
	pendingID = wire.TxnID{Client: 1, Seq: 1}
)

// newParkedReadServer builds the lone replica of a one-replica shard with
// parkKey committed as "old" and then held by a transaction prepared to
// write "new" at pendingTs with a second participant, so that nothing
// decides it.
func newParkedReadServer(t *testing.T) *Server {
	t.Helper()
	dir, err := cluster.New([]cluster.ReplicaSet{{Primary: "p"}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerOptions{
		Addr: "p", Shard: 0, Primary: true,
		LeaseDuration: -1, AntiEntropyInterval: -1,
		Backend: storage.NewDRAM(), Net: noNet{}, Dir: dir,
		Clock: clock.NewPerfect(clock.NewSystemSource(), 1000),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ctx := context.Background()
	if _, err := srv.Serve(ctx, wire.PutRequest{Key: parkKey, Val: []byte("old"), Version: oldTs}); err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Serve(ctx, wire.PrepareRequest{
		ID: pendingID, CommitTs: pendingTs, Participants: []int{0, 1},
		WriteSet: []wire.KV{{Key: parkKey, Val: []byte("new")}},
	})
	if err != nil || !resp.(wire.PrepareResponse).OK {
		t.Fatalf("prepare: %+v %v", resp, err)
	}
	return srv
}

// waitParked waits until n reads are parked on a decision.
func waitParked(t *testing.T, srv *Server, n int64) {
	t.Helper()
	parked := srv.Metrics().Gauge(`milana_parked{op="read"}`)
	for deadline := time.Now().Add(5 * time.Second); parked.Value() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("fewer than %d reads ever parked", n)
		}
	}
}

// TestParkedGetSeesDecision: a read at or after a prepared timestamp parks
// on the transaction's decision and answers with the decided value — the new
// one on commit, the old one on abort — and no prepared bit.
func TestParkedGetSeesDecision(t *testing.T) {
	for _, tc := range []struct {
		name   string
		commit bool
		val    string
		ver    clock.Timestamp
	}{
		{"commit", true, "new", pendingTs},
		{"abort", false, "old", oldTs},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := newParkedReadServer(t)
			type result struct {
				resp any
				err  error
			}
			done := make(chan result, 1)
			go func() {
				resp, err := srv.Serve(context.Background(), wire.GetRequest{Key: parkKey, At: readTs})
				done <- result{resp, err}
			}()
			waitParked(t, srv, 1)
			if _, err := srv.Serve(context.Background(), wire.DecisionRequest{ID: pendingID, Commit: tc.commit}); err != nil {
				t.Fatal(err)
			}
			r := <-done
			if r.err != nil {
				t.Fatal(r.err)
			}
			g := r.resp.(wire.GetResponse)
			if !g.Found || string(g.Val) != tc.val || g.Version != tc.ver || g.PreparedAtOrBefore {
				t.Fatalf("parked read answered %+v, want %q@%v with no prepared bit", g, tc.val, tc.ver)
			}
		})
	}
}

// TestParkedReadBounded: without a decision, a parked read answers with the
// prepared bit after milana.DecisionWait, or as soon as its context ends if
// that comes first — for a MultiGet too, whose keys share one bound however
// many of them are held.
func TestParkedReadBounded(t *testing.T) {
	srv := newParkedReadServer(t)
	wantPrepared := func(t *testing.T, g wire.GetResponse) {
		t.Helper()
		if !g.PreparedAtOrBefore || string(g.Val) != "old" || g.Version != oldTs {
			t.Fatalf("undecided read answered %+v, want the old value with the prepared bit", g)
		}
	}
	t.Run("bound", func(t *testing.T) {
		start := time.Now()
		resp, err := srv.Serve(context.Background(), wire.GetRequest{Key: parkKey, At: readTs})
		if err != nil {
			t.Fatal(err)
		}
		wantPrepared(t, resp.(wire.GetResponse))
		if waited := time.Since(start); waited < milana.DecisionWait {
			t.Fatalf("read answered after %v, before the %v bound", waited, milana.DecisionWait)
		}
	})
	ended, cancel := context.WithCancel(context.Background())
	cancel()
	t.Run("context-ended", func(t *testing.T) {
		start := time.Now()
		resp, err := srv.Serve(ended, wire.GetRequest{Key: parkKey, At: readTs})
		if err != nil {
			t.Fatal(err)
		}
		wantPrepared(t, resp.(wire.GetResponse))
		if waited := time.Since(start); waited >= milana.DecisionWait {
			t.Fatalf("read with an ended context parked for %v", waited)
		}
	})
	t.Run("multiget-context-ended", func(t *testing.T) {
		start := time.Now()
		resp, err := srv.Serve(ended, wire.MultiGetRequest{Keys: [][]byte{parkKey, []byte("other")}, At: readTs})
		if err != nil {
			t.Fatal(err)
		}
		wantPrepared(t, resp.(wire.MultiGetResponse).Items[0])
		if waited := time.Since(start); waited >= milana.DecisionWait {
			t.Fatalf("multiget with an ended context parked for %v", waited)
		}
	})
	t.Run("multiget-three-held-keys", func(t *testing.T) {
		// Two more undecided prepares hold two more keys: the MultiGet
		// parks on all three marks under one bound, not one bound each.
		keys := [][]byte{parkKey, []byte("k2"), []byte("k3")}
		for i, key := range keys[1:] {
			resp, err := srv.Serve(context.Background(), wire.PrepareRequest{
				ID: wire.TxnID{Client: 1, Seq: uint64(2 + i)}, CommitTs: pendingTs, Participants: []int{0, 1},
				WriteSet: []wire.KV{{Key: key, Val: []byte("new")}},
			})
			if err != nil || !resp.(wire.PrepareResponse).OK {
				t.Fatalf("prepare of %q: %+v %v", key, resp, err)
			}
		}
		expired := srv.Metrics().Counter(`milana_park_expired_total{op="read"}`)
		expiredBefore := expired.Value()
		start := time.Now()
		resp, err := srv.Serve(context.Background(), wire.MultiGetRequest{Keys: keys, At: readTs})
		if err != nil {
			t.Fatal(err)
		}
		waited := time.Since(start)
		for i, item := range resp.(wire.MultiGetResponse).Items {
			if !item.PreparedAtOrBefore {
				t.Fatalf("key %q answered %+v, want the prepared bit", keys[i], item)
			}
		}
		if waited < milana.DecisionWait || waited >= 2*milana.DecisionWait {
			t.Fatalf("multiget over three held keys answered after %v, want one %v bound", waited, milana.DecisionWait)
		}
		if n := expired.Value() - expiredBefore; n != 1 {
			t.Fatalf("%d read parks expired, want the request's one bound", n)
		}
	})
	t.Run("before-prepare", func(t *testing.T) {
		resp, err := srv.Serve(context.Background(), wire.GetRequest{Key: parkKey, At: clock.Timestamp{Ticks: 50, Client: 2}})
		if err != nil {
			t.Fatal(err)
		}
		if g := resp.(wire.GetResponse); g.PreparedAtOrBefore || string(g.Val) != "old" {
			t.Fatalf("read below the prepared timestamp answered %+v", g)
		}
	})
}
