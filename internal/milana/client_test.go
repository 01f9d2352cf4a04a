package milana_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/milana"
	"repro/internal/park"
)

// clientGoroutines counts the goroutines other than the caller that run
// code of package milana or are parked in a worker pool.
func clientGoroutines() int {
	buf := make([]byte, 1<<20)
	stacks := strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n")
	n := 0
	for _, g := range stacks[1:] { // the caller's own stack comes first
		if strings.Contains(g, "repro/internal/milana.") || strings.Contains(g, "repro/internal/park.") {
			n++
		}
	}
	return n
}

// TestAsyncDecisionsReuseParkedWorkers: sequential two-shard commits send
// their asynchronous decisions on a few reused notifier goroutines — bounded
// by how many notifies overlap, not by how many commits ran — which exit once
// traffic stops.
func TestAsyncDecisionsReuseParkedWorkers(t *testing.T) {
	c, err := core.NewCluster(core.ClusterOptions{Shards: 2, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	// One key on each shard, so every commit has a phase two.
	var keys [2][]byte
	for i := 0; keys[0] == nil || keys[1] == nil; i++ {
		k := []byte(fmt.Sprintf("k%d", i))
		keys[c.Dir.ShardFor(k)] = k
	}
	tc := c.NewTxnClient(1)
	ctx := context.Background()
	for i := 0; i < 1000; i++ {
		if err := tc.RunTransaction(ctx, func(tx *milana.Txn) error {
			if err := tx.Put(keys[0], []byte("v")); err != nil {
				return err
			}
			return tx.Put(keys[1], []byte("v"))
		}); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	// Closing the cluster stops the servers' own parked senders at once;
	// what remains is the client's.
	c.Close()
	const few = 16
	for deadline := time.Now().Add(park.Idle / 2); clientGoroutines() > few; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d client goroutines after 1000 sequential commits, want at most %d", clientGoroutines(), few)
		}
	}
	for deadline := time.Now().Add(park.Idle + 5*time.Second); clientGoroutines() > 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d client goroutines still running %v after the last commit", clientGoroutines(), park.Idle)
		}
	}
}
