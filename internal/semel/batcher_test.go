package semel

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// batchNet is a fake transport that records every ReplicateData batch per
// peer and answers with a configurable response.
type batchNet struct {
	mu      sync.Mutex
	batches map[string][]wire.ReplicateData
	respond func(peer string, rd wire.ReplicateData) (any, error)
}

func newBatchNet(respond func(peer string, rd wire.ReplicateData) (any, error)) *batchNet {
	return &batchNet{batches: make(map[string][]wire.ReplicateData), respond: respond}
}

func (n *batchNet) Call(_ context.Context, addr string, req any) (any, error) {
	env, ok := req.(wire.Replicated)
	if !ok {
		return nil, fmt.Errorf("batchNet: unexpected request %T", req)
	}
	rd, ok := env.Msg.(wire.ReplicateData)
	if !ok {
		return nil, fmt.Errorf("batchNet: unexpected payload %T", env.Msg)
	}
	n.mu.Lock()
	n.batches[addr] = append(n.batches[addr], rd)
	n.mu.Unlock()
	return n.respond(addr, rd)
}

func (n *batchNet) batchSizes(peer string) []int {
	n.mu.Lock()
	defer n.mu.Unlock()
	var sizes []int
	for _, rd := range n.batches[peer] {
		sizes = append(sizes, len(rd.Ops))
	}
	return sizes
}

var _ transport.Client = (*batchNet)(nil)

// newTestBatcher wires a batcher to a bare primary of a 3-replica shard
// (f=1: one backup ack suffices) without starting server loops.
func newTestBatcher(t *testing.T, net transport.Client, opt BatchOptions) *batcher {
	t.Helper()
	dir, err := cluster.New([]cluster.ReplicaSet{{Primary: "p", Backups: []string{"b1", "b2"}}})
	if err != nil {
		t.Fatal(err)
	}
	s := &Server{
		opt: ServerOptions{Addr: "p", Shard: 0, Dir: dir, Net: net},
		reg: obs.NewRegistry(),
	}
	b := newBatcher(s, opt)
	t.Cleanup(b.close)
	return b
}

func dataOp(key string, ticks int64) wire.DataOp {
	return wire.DataOp{Key: []byte(key), Val: []byte("v"), Version: clock.Timestamp{Ticks: ticks, Client: 1}}
}

func TestBatcherFlushOnSize(t *testing.T) {
	net := newBatchNet(func(string, wire.ReplicateData) (any, error) { return wire.BatchAck{}, nil })
	// Linger is effectively infinite, so only the size threshold can fire.
	b := newTestBatcher(t, net, BatchOptions{MaxOps: 4, Linger: time.Hour, Workers: 1})

	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = b.replicate(context.Background(), dataOp(fmt.Sprintf("k%d", i), int64(i+1)))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	// f = 1: the writers return on the first backup's ack, so the delivery
	// to the other one may still be in flight; give it a moment.
	for _, peer := range []string{"b1", "b2"} {
		deadline := time.Now().Add(5 * time.Second)
		for len(net.batchSizes(peer)) == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		sizes := net.batchSizes(peer)
		if len(sizes) != 1 || sizes[0] != 4 {
			t.Fatalf("peer %s: want one batch of 4 ops, got %v", peer, sizes)
		}
	}
	if got := b.flushSize.Value(); got != 1 {
		t.Fatalf("flush-on-size counter = %d, want 1", got)
	}
}

func TestBatcherFlushOnTimeout(t *testing.T) {
	net := newBatchNet(func(string, wire.ReplicateData) (any, error) { return wire.BatchAck{}, nil })
	// MaxOps is far above what we enqueue, so only the linger timer fires.
	b := newTestBatcher(t, net, BatchOptions{MaxOps: 100, Linger: 20 * time.Millisecond, Workers: 1})

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = b.replicate(context.Background(), dataOp(fmt.Sprintf("k%d", i), int64(i+1)))
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("replicate calls did not return; linger flush never fired")
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if got := b.flushLinger.Value(); got < 1 {
		t.Fatalf("flush-on-linger counter = %d, want >= 1", got)
	}
	// f = 1: the ops are acknowledged as soon as either backup applied the
	// batch, so the other peer's delivery may still be in flight here.
	if len(net.batchSizes("b1"))+len(net.batchSizes("b2")) == 0 {
		t.Fatal("no batch reached a backup")
	}
}

func TestBatcherPerOpErrorDemux(t *testing.T) {
	// Both backups reject only the op keyed "bad"; its batchmates must
	// still reach their quorum and succeed.
	net := newBatchNet(func(_ string, rd wire.ReplicateData) (any, error) {
		errs := make([]string, len(rd.Ops))
		for i, op := range rd.Ops {
			if string(op.Key) == "bad" {
				errs[i] = "boom"
			}
		}
		return wire.BatchAck{Errs: errs}, nil
	})
	b := newTestBatcher(t, net, BatchOptions{MaxOps: 3, Linger: time.Hour, Workers: 1})

	keys := []string{"good1", "bad", "good2"}
	errs := make([]error, len(keys))
	var wg sync.WaitGroup
	for i, k := range keys {
		wg.Add(1)
		go func(i int, k string) {
			defer wg.Done()
			errs[i] = b.replicate(context.Background(), dataOp(k, int64(i+1)))
		}(i, k)
	}
	wg.Wait()
	for i, k := range keys {
		if k == "bad" {
			if errs[i] == nil || !strings.Contains(errs[i].Error(), "boom") {
				t.Fatalf("op %q: want quorum-lost error mentioning boom, got %v", k, errs[i])
			}
		} else if errs[i] != nil {
			t.Fatalf("op %q failed alongside its bad batchmate: %v", k, errs[i])
		}
	}
	if sizes := net.batchSizes("b1"); len(sizes) != 1 || sizes[0] != 3 {
		t.Fatalf("want the three ops coalesced into one batch, got %v", sizes)
	}
}

func TestBatcherToleratesOnePeerFailure(t *testing.T) {
	// One backup is down (call-level error); f=1, so the other backup's
	// BatchAck is a sufficient quorum for every op.
	net := newBatchNet(func(peer string, _ wire.ReplicateData) (any, error) {
		if peer == "b1" {
			return nil, fmt.Errorf("connection refused")
		}
		return wire.BatchAck{}, nil
	})
	b := newTestBatcher(t, net, BatchOptions{MaxOps: 2, Linger: time.Hour, Workers: 1})

	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = b.replicate(context.Background(), dataOp(fmt.Sprintf("k%d", i), int64(i+1)))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
}

func TestBatcherCloseFailsPendingWrites(t *testing.T) {
	release := make(chan struct{})
	net := newBatchNet(func(string, wire.ReplicateData) (any, error) {
		<-release
		return wire.BatchAck{}, nil
	})
	b := newTestBatcher(t, net, BatchOptions{MaxOps: 1, Workers: 1})

	errCh := make(chan error, 1)
	go func() { errCh <- b.replicate(context.Background(), dataOp("k", 1)) }()
	time.Sleep(20 * time.Millisecond) // let the op reach the in-flight flush
	closed := make(chan struct{})
	go func() { b.close(); close(closed) }()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("write still waiting at close succeeded spuriously")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write blocked past batcher shutdown")
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("batcher close did not finish")
	}
}
