package semel_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/milana"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/semel"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wire"
)

// startTappedPrimary boots a one-replica shard on the in-process bus or on a
// real TCP socket, behind a tap that sees every request's context before the
// server does.
func startTappedPrimary(t *testing.T, fabric string, adm *resilience.Admission, tap func(ctx context.Context, req any)) (*cluster.Directory, transport.Client, *semel.Server) {
	t.Helper()
	var srv *semel.Server
	h := transport.HandlerFunc(func(ctx context.Context, req any) (any, error) {
		tap(ctx, req)
		return srv.Serve(ctx, req)
	})
	var addr string
	var net transport.Client
	switch fabric {
	case "bus":
		bus := transport.NewBus(transport.LatencyModel{}, 1)
		t.Cleanup(bus.Close)
		addr, net = "p", bus
		bus.Register(addr, h)
	case "tcp":
		tcp, err := transport.NewTCPServer("127.0.0.1:0", h)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tcp.Close() })
		cli := transport.NewTCPClient()
		t.Cleanup(cli.Close)
		addr, net = tcp.Addr(), cli
	}
	dir, err := cluster.New([]cluster.ReplicaSet{{Primary: addr}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err = semel.NewServer(semel.ServerOptions{
		Addr: addr, Shard: 0, Primary: true, Admission: adm,
		Backend: storage.NewDRAM(), Net: net, Dir: dir,
		Clock: clock.NewPerfect(clock.NewSystemSource(), 1000),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return dir, net, srv
}

// TestRequestRecord checks that the one per-request record arrives at the
// handler exactly as the client attached it — over the bus, where the
// context itself travels, and over real TCP, where the frame header does —
// for every combination of the client's two switches, and that the server's
// spans hang beneath the client's.
func TestRequestRecord(t *testing.T) {
	modes := []struct {
		name          string
		trace, stages bool
	}{{"neither", false, false}, {"trace", true, false}, {"stages", false, true}, {"both", true, true}}
	for _, fabric := range []string{"bus", "tcp"} {
		for _, mode := range modes {
			t.Run(fabric+"/"+mode.name, func(t *testing.T) {
				var mu sync.Mutex
				var seen []obs.Req
				dir, net, srv := startTappedPrimary(t, fabric, nil, func(ctx context.Context, _ any) {
					mu.Lock()
					seen = append(seen, obs.ReqFrom(ctx))
					mu.Unlock()
				})
				cl := milana.NewClient(clock.NewPerfect(clock.NewSystemSource(), 1), net, dir)
				cl.SyncDecisions = true
				if mode.trace {
					cl.EnableTracing(0)
				}
				if mode.stages {
					cl.EnableStages(obs.NewRegistry())
				}
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				if err := cl.RunTransaction(ctx, func(tx *milana.Txn) error {
					if _, _, err := tx.Get(ctx, []byte("k")); err != nil {
						return err
					}
					return tx.Put([]byte("k"), []byte("v"))
				}); err != nil {
					t.Fatal(err)
				}

				roots := make(map[uint64]uint64) // trace id → the client's span
				for _, sp := range cl.Spans().Recent() {
					roots[sp.TraceID] = sp.SpanID
				}
				// A single-shard commit is its prepare: no decision follows.
				if len(seen) < 2 {
					t.Fatalf("handler saw %d requests, want get + prepare", len(seen))
				}
				for _, rec := range seen {
					if rec.Sampled != mode.trace || (rec.Ledger != nil) != mode.stages {
						t.Fatalf("handler saw %+v; client asked for trace=%v stages=%v", rec, mode.trace, mode.stages)
					}
					if !mode.trace && rec.TraceContext != (obs.TraceContext{}) {
						t.Fatalf("untraced request carried %+v", rec.TraceContext)
					}
					if mode.trace && (roots[rec.TraceID] == 0 || rec.SpanID != roots[rec.TraceID]) {
						t.Fatalf("handler saw %+v; the client's spans are %v", rec.TraceContext, roots)
					}
				}
				recorded := 0
				for tid, root := range roots {
					for _, sp := range srv.Spans().ForTrace(tid) {
						recorded++
						if sp.Parent != root || sp.SpanID == root {
							t.Fatalf("server span %+v is not a child of the client's span %x", sp, root)
						}
					}
				}
				if mode.trace && recorded < 2 {
					t.Fatalf("server recorded %d spans, want get + prepare", recorded)
				}
				if !mode.trace && len(srv.Spans().Recent()) != 0 {
					t.Fatalf("untraced requests recorded spans: %+v", srv.Spans().Recent())
				}
			})
		}
	}

	// The queue wait needs no trace to travel: fill every transport worker,
	// let one more read sit in the dispatch queue past the admission
	// threshold, and it must be shed on that wait alone.
	t.Run("tcp/queue-wait-untraced", func(t *testing.T) {
		reg := obs.NewRegistry()
		adm := resilience.NewAdmission(resilience.AdmissionOptions{
			MaxInflight: 1 << 20, MaxQueueDelay: 20 * time.Millisecond, Metrics: reg,
		})
		var entered atomic.Int64
		var sampled atomic.Bool
		release := make(chan struct{})
		dir, net, _ := startTappedPrimary(t, "tcp", adm, func(ctx context.Context, _ any) {
			if obs.ReqFrom(ctx).Sampled {
				sampled.Store(true)
			}
			if entered.Add(1) <= transport.MaxInflight {
				<-release
			}
		})
		addr, err := dir.Primary(0)
		if err != nil {
			t.Fatal(err)
		}
		get := wire.GetRequest{Key: []byte("k")}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		var wg sync.WaitGroup
		for i := 0; i < transport.MaxInflight; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _ = net.Call(ctx, addr, get)
			}()
		}
		for entered.Load() < transport.MaxInflight {
			if ctx.Err() != nil {
				t.Fatalf("only %d of %d workers filled", entered.Load(), transport.MaxInflight)
			}
			time.Sleep(time.Millisecond)
		}
		probe := make(chan error, 1)
		go func() {
			_, err := net.Call(ctx, addr, get)
			probe <- err
		}()
		time.Sleep(100 * time.Millisecond)
		close(release)
		if err := <-probe; !resilience.IsServerBusy(err) {
			t.Fatalf("read that queued ~100ms against a 20ms threshold was not shed: %v", err)
		}
		wg.Wait()
		if got := reg.Snapshot().Counters[obs.WithLabel("admission_shed_total", "pri", "read")]; got < 1 {
			t.Fatalf("admission_shed_total{pri=read} = %d after shedding the queued read", got)
		}
		if sampled.Load() {
			t.Fatal("a request was traced; the shed must not depend on it")
		}
	})
}
