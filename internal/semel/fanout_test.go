package semel_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/resilience"
	"repro/internal/semel"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wire"
)

// replNet is a fake transport to a shard's backups: it records every
// Replicated delivery per backup — with the state of the send context at
// delivery — and acknowledges it, or fails it for backups marked down. When
// hold is set, deliveries wait for it to close first.
type replNet struct {
	down map[string]bool
	hold chan struct{}

	mu  sync.Mutex
	got map[string][]error // per backup: ctx.Err() of each delivery
}

func (n *replNet) Call(ctx context.Context, addr string, req any) (any, error) {
	env, ok := req.(wire.Replicated)
	if !ok {
		return nil, fmt.Errorf("replNet: unexpected request %T", req)
	}
	if n.hold != nil {
		<-n.hold
	}
	n.mu.Lock()
	if n.got == nil {
		n.got = make(map[string][]error)
	}
	n.got[addr] = append(n.got[addr], ctx.Err())
	n.mu.Unlock()
	if n.down[addr] {
		return nil, errors.New("injected: backup down")
	}
	if _, ok := env.Msg.(wire.ReplicateData); ok {
		return wire.BatchAck{}, nil
	}
	return wire.Ack{}, nil
}

// deliveries returns what backup has received so far.
func (n *replNet) deliveries(backup string) []error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]error(nil), n.got[backup]...)
}

// waitDelivered waits until each backup has received want deliveries, all
// on a live send context.
func (n *replNet) waitDelivered(t *testing.T, want int, backups ...string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for _, b := range backups {
		for len(n.deliveries(b)) < want {
			if time.Now().After(deadline) {
				t.Fatalf("backup %s received %d deliveries, want %d", b, len(n.deliveries(b)), want)
			}
			time.Sleep(time.Millisecond)
		}
		for _, err := range n.deliveries(b) {
			if err != nil {
				t.Fatalf("backup %s received a delivery on a dead send context: %v", b, err)
			}
		}
	}
}

// newReplica builds replica addr of a three-replica shard whose primary is
// "p", over net, with no lease or anti-entropy traffic of its own.
func newReplica(t *testing.T, addr string, net transport.Client, adm *resilience.Admission) (*semel.Server, *cluster.Directory) {
	t.Helper()
	dir, err := cluster.New([]cluster.ReplicaSet{{Primary: "p", Backups: []string{"b1", "b2"}}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := semel.NewServer(semel.ServerOptions{
		Addr: addr, Shard: 0, Primary: addr == "p", Admission: adm,
		LeaseDuration: -1, AntiEntropyInterval: -1,
		Backend: storage.NewDRAM(), Net: net, Dir: dir,
		Clock: clock.NewPerfect(clock.NewSystemSource(), 1000),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv, dir
}

// TestRouteReplicatedEnvelope delivers a Replicated envelope to a backup
// with admission control: the inner message is admitted once and released,
// and timed once in its own histogram.
func TestRouteReplicatedEnvelope(t *testing.T) {
	adm := resilience.NewAdmission(resilience.AdmissionOptions{MaxInflight: 8})
	srv, dir := newReplica(t, "b1", &replNet{}, adm)
	rs, err := dir.Shard(0)
	if err != nil {
		t.Fatal(err)
	}
	op := wire.DataOp{Key: []byte("k"), Val: []byte("v"), Version: clock.Timestamp{Ticks: 1, Client: 1}}
	resp, err := srv.Serve(context.Background(), wire.Replicated{Epoch: rs.Epoch, Msg: wire.ReplicateData{Ops: []wire.DataOp{op}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := resp.(wire.BatchAck); !ok {
		t.Fatalf("envelope answered %T, want the inner message's BatchAck", resp)
	}
	if n := adm.Inflight(); n != 0 {
		t.Fatalf("inflight after the delivery = %d, want 0", n)
	}
	if n := srv.Metrics().Snapshot().Hists[`semel_serve_ns{op="replicate-data"}`].Count; n != 1 {
		t.Fatalf("replicate-data histogram counted %d requests, want 1", n)
	}
}

// TestReplicateToBackups drives the f-of-2f fan-out directly (f = 1 of two
// backups).
func TestReplicateToBackups(t *testing.T) {
	msg := wire.ReplicateDecision{ID: wire.TxnID{Client: 1, Seq: 1}, Commit: true}
	t.Run("all-ack", func(t *testing.T) {
		net := &replNet{}
		srv, _ := newReplica(t, "p", net, nil)
		if err := srv.ReplicateToBackups(context.Background(), msg); err != nil {
			t.Fatal(err)
		}
		net.waitDelivered(t, 1, "b1", "b2")
	})
	t.Run("f-ack-one-fails", func(t *testing.T) {
		net := &replNet{down: map[string]bool{"b2": true}}
		srv, _ := newReplica(t, "p", net, nil)
		if err := srv.ReplicateToBackups(context.Background(), msg); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("quorum-lost", func(t *testing.T) {
		net := &replNet{down: map[string]bool{"b1": true, "b2": true}}
		srv, _ := newReplica(t, "p", net, nil)
		err := srv.ReplicateToBackups(context.Background(), msg)
		if err == nil || !strings.Contains(err.Error(), "replication quorum lost") {
			t.Fatalf("both backups down: %v", err)
		}
	})
	t.Run("caller-cancelled", func(t *testing.T) {
		net := &replNet{hold: make(chan struct{})}
		srv, _ := newReplica(t, "p", net, nil)
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(10*time.Millisecond, cancel)
		if err := srv.ReplicateToBackups(ctx, msg); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled wait returned %v, want %v", err, context.Canceled)
		}
		// The sends are durability traffic: they outlive the caller.
		close(net.hold)
		net.waitDelivered(t, 1, "b1", "b2")
	})
	t.Run("deposed", func(t *testing.T) {
		net := &replNet{}
		srv, dir := newReplica(t, "p", net, nil)
		if _, err := dir.Failover(0); err != nil {
			t.Fatal(err)
		}
		if err := srv.ReplicateToBackups(context.Background(), msg); !errors.Is(err, semel.ErrNotPrimary) {
			t.Fatalf("deposed primary replicated: %v, want %v", err, semel.ErrNotPrimary)
		}
		time.Sleep(20 * time.Millisecond)
		if n := len(net.deliveries("b1")) + len(net.deliveries("b2")); n != 0 {
			t.Fatalf("a deposed primary still sent %d deliveries", n)
		}
	})
	t.Run("deadline-passed", func(t *testing.T) {
		net := &replNet{}
		srv, _ := newReplica(t, "p", net, nil)
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		if err := srv.ReplicateToBackups(ctx, msg); !errors.Is(err, transport.ErrDeadlineExceeded) {
			t.Fatalf("expired deadline returned %v, want %v", err, transport.ErrDeadlineExceeded)
		}
		time.Sleep(20 * time.Millisecond)
		if n := len(net.deliveries("b1")) + len(net.deliveries("b2")); n != 0 {
			t.Fatalf("an expired caller still sent %d deliveries", n)
		}
	})
}

// semelGoroutines returns the stacks of every goroutine running code of
// package semel (this test package's own frames read semel_test).
func semelGoroutines() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "repro/internal/semel.") {
			out = append(out, g)
		}
	}
	return out
}

// TestCloseStopsReplicationSenders checks that Close leaves no goroutine of
// the server behind — in particular none of the parked replication senders
// that replicated puts and prepares warm up.
func TestCloseStopsReplicationSenders(t *testing.T) {
	// Servers of earlier tests in this binary may still be winding down.
	for deadline := time.Now().Add(5 * time.Second); len(semelGoroutines()) > 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("semel goroutines left by earlier tests:\n%s", semelGoroutines()[0])
		}
	}
	srv, _ := newReplica(t, "p", &replNet{}, nil)
	clk := clock.NewPerfect(clock.NewSystemSource(), 1)
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		key := []byte(fmt.Sprintf("k%d", i))
		if _, err := srv.Serve(ctx, wire.PutRequest{Key: key, Val: []byte("v"), Version: clk.Now()}); err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Serve(ctx, wire.PrepareRequest{
			ID:           wire.TxnID{Client: 1, Seq: uint64(i + 1)},
			CommitTs:     clk.Now(),
			WriteSet:     []wire.KV{{Key: []byte(fmt.Sprintf("t%d", i)), Val: []byte("v")}},
			Participants: []int{0},
		})
		if err != nil || !resp.(wire.PrepareResponse).OK {
			t.Fatalf("prepare %d: %+v %v", i, resp, err)
		}
	}
	srv.Close()
	deadline := time.Now().Add(100 * time.Millisecond)
	for {
		left := semelGoroutines()
		if len(left) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d semel goroutines still running 100ms after Close, e.g.:\n%s", len(left), left[0])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
