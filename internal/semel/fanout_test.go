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
	"repro/internal/wal"
	"repro/internal/wire"
)

// replNet is a fake transport to a shard's backups: it records every
// Replicated delivery per backup — with the state of the send context at
// delivery — and acknowledges it, or fails it for backups marked down. When
// hold is set, deliveries wait for it to close first.
type replNet struct {
	down map[string]bool

	mu   sync.Mutex
	hold chan struct{}
	got  map[string][]error // per backup: ctx.Err() of each delivery
}

// holdDeliveries makes every delivery from now on wait until release is
// called (release is idempotent).
func (n *replNet) holdDeliveries() (release func()) {
	hold := make(chan struct{})
	n.mu.Lock()
	n.hold = hold
	n.mu.Unlock()
	var once sync.Once
	return func() { once.Do(func() { close(hold) }) }
}

func (n *replNet) Call(ctx context.Context, addr string, req any) (any, error) {
	env, ok := req.(wire.Replicated)
	if !ok {
		return nil, fmt.Errorf("replNet: unexpected request %T", req)
	}
	n.mu.Lock()
	hold := n.hold
	n.mu.Unlock()
	if hold != nil {
		<-hold
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
	return newLoggedReplica(t, addr, net, adm, nil)
}

// newLoggedReplica is newReplica with a write-ahead log (nil for none).
func newLoggedReplica(t *testing.T, addr string, net transport.Client, adm *resilience.Admission, log *wal.WAL) (*semel.Server, *cluster.Directory) {
	t.Helper()
	dir, err := cluster.New([]cluster.ReplicaSet{{Primary: "p", Backups: []string{"b1", "b2"}}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := semel.NewServer(semel.ServerOptions{
		Addr: addr, Shard: 0, Primary: addr == "p", Admission: adm,
		LeaseDuration: -1, AntiEntropyInterval: -1,
		Backend: storage.NewDRAM(), Net: net, Dir: dir, Log: log,
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

// TestReplicateToBackups drives Persist's backup half — the f-of-2f
// fan-out — directly (f = 1 of two backups; no WAL, so the local append is a
// no-op).
func TestReplicateToBackups(t *testing.T) {
	msg := wire.ReplicateDecision{ID: wire.TxnID{Client: 1, Seq: 1}, Commit: true}
	t.Run("all-ack", func(t *testing.T) {
		net := &replNet{}
		srv, _ := newReplica(t, "p", net, nil)
		if err := srv.Persist(context.Background(), msg); err != nil {
			t.Fatal(err)
		}
		net.waitDelivered(t, 1, "b1", "b2")
	})
	t.Run("f-ack-one-fails", func(t *testing.T) {
		net := &replNet{down: map[string]bool{"b2": true}}
		srv, _ := newReplica(t, "p", net, nil)
		if err := srv.Persist(context.Background(), msg); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("quorum-lost", func(t *testing.T) {
		net := &replNet{down: map[string]bool{"b1": true, "b2": true}}
		srv, _ := newReplica(t, "p", net, nil)
		err := srv.Persist(context.Background(), msg)
		if err == nil || !strings.Contains(err.Error(), "replication quorum lost") {
			t.Fatalf("both backups down: %v", err)
		}
	})
	t.Run("caller-cancelled", func(t *testing.T) {
		net := &replNet{}
		release := net.holdDeliveries()
		srv, _ := newReplica(t, "p", net, nil)
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(10*time.Millisecond, cancel)
		if err := srv.Persist(ctx, msg); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled wait returned %v, want %v", err, context.Canceled)
		}
		// The sends are durability traffic: they outlive the caller.
		release()
		net.waitDelivered(t, 1, "b1", "b2")
	})
	t.Run("deposed", func(t *testing.T) {
		net := &replNet{}
		srv, dir := newReplica(t, "p", net, nil)
		if _, err := dir.Failover(0); err != nil {
			t.Fatal(err)
		}
		if err := srv.Persist(context.Background(), msg); !errors.Is(err, semel.ErrNotPrimary) {
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
		if err := srv.Persist(ctx, msg); !errors.Is(err, transport.ErrDeadlineExceeded) {
			t.Fatalf("expired deadline returned %v, want %v", err, transport.ErrDeadlineExceeded)
		}
		time.Sleep(20 * time.Millisecond)
		if n := len(net.deliveries("b1")) + len(net.deliveries("b2")); n != 0 {
			t.Fatalf("an expired caller still sent %d deliveries", n)
		}
	})
}

// gatedFS is an in-memory WAL filesystem whose fsyncs can be held.
type gatedFS struct {
	*wal.MemFS

	mu   sync.Mutex
	hold chan struct{}
}

func (g *gatedFS) Create(path string) (wal.File, error) {
	f, err := g.MemFS.Create(path)
	if err != nil {
		return nil, err
	}
	return gatedFile{File: f, fs: g}, nil
}

// holdSyncs makes every fsync from now on wait until release is called
// (release is idempotent).
func (g *gatedFS) holdSyncs() (release func()) {
	hold := make(chan struct{})
	g.mu.Lock()
	g.hold = hold
	g.mu.Unlock()
	var once sync.Once
	return func() { once.Do(func() { close(hold) }) }
}

type gatedFile struct {
	wal.File
	fs *gatedFS
}

func (f gatedFile) Sync() error {
	f.fs.mu.Lock()
	hold := f.fs.hold
	f.fs.mu.Unlock()
	if hold != nil {
		<-hold
	}
	return f.File.Sync()
}

// waitUntil polls cond until it holds; the deadline only bounds a failure.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("never happened: %s", what)
		}
	}
}

// TestPersistOverlapsLocalLog checks that a prepare and a decision each
// issue their local WAL append and their backup fan-out together: the record
// is appended locally while every backup delivery is still held, and the
// answer leaves only once both the backups' replies and the local fsync have
// been released, in either order.
func TestPersistOverlapsLocalLog(t *testing.T) {
	for _, record := range []string{"prepare", "decision"} {
		for _, first := range []string{"backups", "fsync"} {
			t.Run(record+"/release-"+first+"-first", func(t *testing.T) {
				fs := &gatedFS{MemFS: wal.NewMemFS()}
				w, err := wal.Open(wal.Options{Dir: "/wal", FS: fs})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = w.Close() })
				net := &replNet{}
				srv, _ := newLoggedReplica(t, "p", net, nil, w)
				ctx := context.Background()
				id := wire.TxnID{Client: 1, Seq: 1}
				// An hour past the replica's clock: far above the read
				// floor the log's cold start sets.
				commitTs := clock.Timestamp{Ticks: clock.NewSystemSource().Now() + int64(time.Hour), Client: 1}
				var req any = wire.PrepareRequest{
					ID: id, CommitTs: commitTs, Participants: []int{0, 1},
					WriteSet: []wire.KV{{Key: []byte("k"), Val: []byte("v")}},
				}
				deliveries := 1
				if record == "decision" {
					if resp, err := srv.Serve(ctx, req); err != nil || !resp.(wire.PrepareResponse).OK {
						t.Fatalf("prepare: %+v %v", resp, err)
					}
					req, deliveries = wire.DecisionRequest{ID: id, Commit: true}, 2
				}
				appended := w.Stats().AppendedLSN
				releaseBackups, releaseSync := net.holdDeliveries(), fs.holdSyncs()
				t.Cleanup(releaseBackups)
				t.Cleanup(releaseSync)
				done := make(chan error, 1)
				go func() {
					_, err := srv.Serve(ctx, req)
					done <- err
				}()
				waitUntil(t, "the local append while the backups are held", func() bool { return w.Stats().AppendedLSN > appended })
				if first == "backups" {
					releaseBackups()
					net.waitDelivered(t, deliveries, "b1", "b2")
				} else {
					releaseSync()
					waitUntil(t, "the local fsync", func() bool { return w.DurableLSN() > appended })
				}
				select {
				case err := <-done:
					t.Fatalf("answered (%v) with only the %s released", err, first)
				default:
				}
				releaseBackups()
				releaseSync()
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// stallBackend holds each Put of key "stall" until release closes, after
// announcing it on entered.
type stallBackend struct {
	storage.Backend
	entered, release chan struct{}
}

func (b stallBackend) Put(key, val []byte, ver clock.Timestamp) error {
	if string(key) == "stall" {
		b.entered <- struct{}{}
		<-b.release
	}
	return b.Backend.Put(key, val, ver)
}

// TestRecoveryPullWaitsForAdmittedDelivery: a replication delivery that
// passed the epoch check before a failover must be applied before this
// replica answers the new primary's recovery pull — otherwise the old
// primary counts it toward a quorum the new primary never sees.
func TestRecoveryPullWaitsForAdmittedDelivery(t *testing.T) {
	dir, err := cluster.New([]cluster.ReplicaSet{{Primary: "p", Backups: []string{"b1", "b2"}}})
	if err != nil {
		t.Fatal(err)
	}
	backend := stallBackend{Backend: storage.NewDRAM(), entered: make(chan struct{}), release: make(chan struct{})}
	srv, err := semel.NewServer(semel.ServerOptions{
		Addr: "b2", Shard: 0, LeaseDuration: -1, AntiEntropyInterval: -1,
		Backend: backend, Net: &replNet{}, Dir: dir,
		Clock: clock.NewPerfect(clock.NewSystemSource(), 1000),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	rs, err := dir.Shard(0)
	if err != nil {
		t.Fatal(err)
	}
	op := wire.DataOp{Key: []byte("stall"), Val: []byte("v"), Version: clock.Timestamp{Ticks: 1, Client: 1}}
	ctx := context.Background()
	go func() {
		_, _ = srv.Serve(ctx, wire.Replicated{Epoch: rs.Epoch, Msg: wire.ReplicateData{Ops: []wire.DataOp{op}}})
	}()
	<-backend.entered // the delivery passed the epoch check
	if _, err := dir.Failover(0); err != nil {
		t.Fatal(err)
	}
	pulled := make(chan wire.RecoveryPullResponse, 1)
	go func() {
		resp, err := srv.Serve(ctx, wire.RecoveryPullRequest{})
		if err != nil {
			t.Error(err)
		}
		pull, _ := resp.(wire.RecoveryPullResponse)
		pulled <- pull
	}()
	select {
	case <-pulled:
		t.Fatal("the recovery pull answered while an admitted delivery was still being applied")
	case <-time.After(20 * time.Millisecond):
	}
	close(backend.release)
	if pull := <-pulled; len(pull.Data) != 1 || string(pull.Data[0].Key) != "stall" {
		t.Fatalf("recovery pull returned %+v, want the admitted delivery's op", pull.Data)
	}
}

// pullNet serves a backup's anti-entropy pulls: each pull announces the
// primary it was sent to on entered, then waits — ignoring its context, like
// a dead primary whose call has not yet timed out — for the data to answer
// with on release. closed fails the pulls still waiting.
type pullNet struct {
	entered chan string
	release chan []wire.DataOp
	closed  chan struct{}
}

func (n *pullNet) Call(ctx context.Context, addr string, req any) (any, error) {
	if _, ok := req.(wire.RecoveryPullRequest); !ok {
		return nil, fmt.Errorf("pullNet: unexpected request %T", req)
	}
	select {
	case n.entered <- addr:
	case <-n.closed:
		return nil, errors.New("pullNet: closed")
	}
	select {
	case data := <-n.release:
		return wire.RecoveryPullResponse{Data: data}, nil
	case <-n.closed:
		return nil, errors.New("pullNet: closed")
	}
}

// TestRecoveryPullNotBlockedByAntiEntropy: an anti-entropy round waiting on
// an unreachable primary must not hold up the new primary's recovery pull,
// and a round whose regime ended while it was pulling must not apply what it
// pulled.
func TestRecoveryPullNotBlockedByAntiEntropy(t *testing.T) {
	dir, err := cluster.New([]cluster.ReplicaSet{{Primary: "p", Backups: []string{"b1", "b2"}}})
	if err != nil {
		t.Fatal(err)
	}
	net := &pullNet{entered: make(chan string), release: make(chan []wire.DataOp), closed: make(chan struct{})}
	backend := storage.NewDRAM()
	srv, err := semel.NewServer(semel.ServerOptions{
		Addr: "b2", Shard: 0, LeaseDuration: -1, AntiEntropyInterval: 5 * time.Millisecond,
		Backend: backend, Net: net, Dir: dir,
		Clock: clock.NewPerfect(clock.NewSystemSource(), 1000),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	t.Cleanup(func() { close(net.closed) }) // runs first: frees a held round
	nextRound := func(want string) {
		t.Helper()
		if got := <-net.entered; got != want {
			t.Fatalf("anti-entropy pulled from %s, want %s", got, want)
		}
	}
	applied := func(key string) bool {
		_, _, found, _ := backend.Latest([]byte(key))
		return found
	}
	op := func(key string) []wire.DataOp {
		return []wire.DataOp{{Key: []byte(key), Val: []byte("v"), Version: clock.Timestamp{Ticks: 1, Client: 1}}}
	}

	nextRound("p")
	net.release <- op("current")
	nextRound("p") // the first round is over
	if !applied("current") {
		t.Fatal("anti-entropy did not apply a pull from the current primary")
	}
	// The second round is held on the old primary across a failover.
	if _, err := dir.Failover(0); err != nil {
		t.Fatal(err)
	}
	pulled := make(chan error, 1)
	go func() {
		_, err := srv.Serve(context.Background(), wire.RecoveryPullRequest{})
		pulled <- err
	}()
	select {
	case err := <-pulled:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the recovery pull waited on an anti-entropy round held by an unreachable primary")
	}
	net.release <- op("stale")
	nextRound("b1") // the held round is over
	if applied("stale") {
		t.Fatal("anti-entropy applied a pull from a deposed primary")
	}
}

// serverGoroutines returns the stacks of every goroutine running code of
// package semel (this test package's own frames read semel_test) or parked
// in a worker pool.
func serverGoroutines() []string {
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
		if strings.Contains(g, "repro/internal/semel.") || strings.Contains(g, "repro/internal/park.") {
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
	for deadline := time.Now().Add(5 * time.Second); len(serverGoroutines()) > 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("semel goroutines left by earlier tests:\n%s", serverGoroutines()[0])
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
		left := serverGoroutines()
		if len(left) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d semel goroutines still running 100ms after Close, e.g.:\n%s", len(left), left[0])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
