package semel

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/park"
	"repro/internal/transport"
	"repro/internal/wire"
)

// plugKey names the op whose delivery batchNet holds until unplug closes.
const plugKey = "plug"

// batchNet is a fake transport that records every ReplicateData batch per
// peer and answers with a configurable response. A batch whose first op is
// keyed plugKey blocks at every peer until unplug is closed, holding the
// flush slot it ships from.
type batchNet struct {
	mu      sync.Mutex
	batches map[string][]wire.ReplicateData
	respond func(peer string, rd wire.ReplicateData) (any, error)

	plugged chan struct{} // one signal per peer the plug batch reached
	unplug  chan struct{}
}

func newBatchNet(respond func(peer string, rd wire.ReplicateData) (any, error)) *batchNet {
	return &batchNet{
		batches: make(map[string][]wire.ReplicateData),
		respond: respond,
		plugged: make(chan struct{}, 2),
		unplug:  make(chan struct{}),
	}
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
	if len(rd.Ops) > 0 && string(rd.Ops[0].Key) == plugKey {
		n.plugged <- struct{}{}
		<-n.unplug
	}
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

// waitBatchSizes waits until peer has received batches of exactly the given
// sizes, in any order. f = 1: a flush frees its slot on the first backup's
// ack, so the next batch can overtake the delivery to the other one.
func (n *batchNet) waitBatchSizes(t *testing.T, peer string, want []int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(n.batchSizes(peer)) < len(want) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	got := n.batchSizes(peer)
	sort.Ints(got)
	want = append([]int(nil), want...)
	sort.Ints(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("peer %s: batch sizes %v, want %v", peer, got, want)
	}
}

var _ transport.Client = (*batchNet)(nil)

// oneSlot is production's limits with a single flush slot, so one held
// flush saturates the batcher.
var oneSlot = batchLimits{maxOps: batchMaxOps, maxBytes: batchMaxBytes, workers: 1}

// newTestBatcher wires a batcher to a bare primary of a 3-replica shard
// (f=1: one backup ack suffices) without starting server loops.
func newTestBatcher(t *testing.T, net transport.Client, lim batchLimits) *batcher {
	t.Helper()
	dir, err := cluster.New([]cluster.ReplicaSet{{Primary: "p", Backups: []string{"b1", "b2"}}})
	if err != nil {
		t.Fatal(err)
	}
	s := &Server{
		opt:  ServerOptions{Addr: "p", Shard: 0, Dir: dir, Net: net},
		reg:  obs.NewRegistry(),
		stop: make(chan struct{}),
	}
	s.senders = park.New(s.runRepl)
	b := newBatcher(s, lim)
	t.Cleanup(func() {
		b.close()
		close(s.stop)
		s.senders.Close()
	})
	return b
}

func dataOp(key string, ticks int64) wire.DataOp {
	return wire.DataOp{Key: []byte(key), Val: []byte("v"), Version: clock.Timestamp{Ticks: ticks, Client: 1}}
}

// behindPlug batches ops the way production does under load: group commit
// by saturation. A one-op plug batch takes the batcher's only flush slot and
// is held at the transport; ops are then queued until the collector holds
// every one it will take (leftover stay queued), and the plug is released.
// It returns each op's replication outcome.
func behindPlug(t *testing.T, b *batcher, net *batchNet, ops []wire.DataOp, leftover int) []error {
	t.Helper()
	plug := make(chan error, 1)
	go func() { plug <- b.replicate(context.Background(), dataOp(plugKey, 1<<40)) }()
	select {
	case <-net.plugged:
	case <-time.After(5 * time.Second):
		t.Fatal("plug batch never shipped")
	}
	acks := make([]chan error, len(ops))
	for i, op := range ops {
		acks[i] = make(chan error, 1)
		b.ch <- pendingOp{op: op, ack: acks[i]}
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(b.ch) > leftover {
		if time.Now().After(deadline) {
			t.Fatalf("collector left %d ops queued, want %d", len(b.ch), leftover)
		}
		time.Sleep(time.Millisecond)
	}
	close(net.unplug)
	if err := <-plug; err != nil {
		t.Fatalf("plug op: %v", err)
	}
	errs := make([]error, len(ops))
	for i, ack := range acks {
		select {
		case errs[i] = <-ack:
		case <-time.After(5 * time.Second):
			t.Fatalf("op %d never resolved", i)
		}
	}
	return errs
}

func TestBatcherFlushOnSize(t *testing.T) {
	net := newBatchNet(func(string, wire.ReplicateData) (any, error) { return wire.BatchAck{}, nil })
	lim := oneSlot
	lim.maxOps = 4
	b := newTestBatcher(t, net, lim)

	// Six ops queue behind the plug; the collector stops absorbing at
	// maxOps, so one full batch of 4 ships and the other 2 follow.
	ops := make([]wire.DataOp, 6)
	for i := range ops {
		ops[i] = dataOp(fmt.Sprintf("k%d", i), int64(i+1))
	}
	for i, err := range behindPlug(t, b, net, ops, 2) {
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	for _, peer := range []string{"b1", "b2"} {
		net.waitBatchSizes(t, peer, []int{1, 4, 2})
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
	b := newTestBatcher(t, net, oneSlot)

	keys := []string{"good1", "bad", "good2"}
	ops := make([]wire.DataOp, len(keys))
	for i, k := range keys {
		ops[i] = dataOp(k, int64(i+1))
	}
	errs := behindPlug(t, b, net, ops, 0)
	for i, k := range keys {
		if k == "bad" {
			if errs[i] == nil || !strings.Contains(errs[i].Error(), "boom") {
				t.Fatalf("op %q: want quorum-lost error mentioning boom, got %v", k, errs[i])
			}
		} else if errs[i] != nil {
			t.Fatalf("op %q failed alongside its bad batchmate: %v", k, errs[i])
		}
	}
	net.waitBatchSizes(t, "b1", []int{1, 3})
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
	b := newTestBatcher(t, net, oneSlot)

	ops := []wire.DataOp{dataOp("k0", 1), dataOp("k1", 2)}
	for i, err := range behindPlug(t, b, net, ops, 0) {
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	net.waitBatchSizes(t, "b2", []int{1, 2})
}

func TestBatcherNonBatchAckFailsPeer(t *testing.T) {
	// A backup answering anything but a BatchAck counts as failed: with both
	// backups doing so, no op can reach its quorum.
	net := newBatchNet(func(string, wire.ReplicateData) (any, error) { return wire.Ack{}, nil })
	b := newTestBatcher(t, net, oneSlot)
	err := b.replicate(context.Background(), dataOp("k", 1))
	if err == nil || !strings.Contains(err.Error(), "want BatchAck") {
		t.Fatalf("replicate against Ack-only backups: %v", err)
	}
}

// TestBatcherCloseFailsPendingWrites closes the batcher with one write in the
// in-flight flush and one assembled behind it, waiting for the only flush
// slot: both writers must get an error, not hang.
func TestBatcherCloseFailsPendingWrites(t *testing.T) {
	release := make(chan struct{})
	net := newBatchNet(func(string, wire.ReplicateData) (any, error) {
		<-release
		return wire.BatchAck{}, nil
	})
	b := newTestBatcher(t, net, oneSlot)

	errCh := make(chan error, 2)
	go func() { errCh <- b.replicate(context.Background(), dataOp("k", 1)) }()
	time.Sleep(20 * time.Millisecond) // let the op reach the in-flight flush
	go func() { errCh <- b.replicate(context.Background(), dataOp("k2", 2)) }()
	time.Sleep(20 * time.Millisecond) // and the next wait for the only flush slot
	closed := make(chan struct{})
	go func() { b.close(); close(closed) }()
	for range 2 {
		select {
		case err := <-errCh:
			if err == nil {
				t.Fatal("write still waiting at close succeeded spuriously")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("write blocked past batcher shutdown")
		}
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("batcher close did not finish")
	}
}
