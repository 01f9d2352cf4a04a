package semel_test

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/semel"
	"repro/internal/wire"
)

// TestMultiGetMatchesPerKeyGets checks the one multi-key read path against
// its definition: a MultiGetRequest answers, item by item, exactly what a
// GetRequest per key answers on the same server at the same snapshot.
func TestMultiGetMatchesPerKeyGets(t *testing.T) {
	c := newCluster(t, core.ClusterOptions{Shards: 1, Replicas: 3, LeaseDuration: -1})
	ctx := context.Background()
	primary, backup := core.Addr(0, 0), core.Addr(0, 1)
	cl := c.NewSemelClient(1)
	for _, k := range []string{"a", "b", "c"} {
		if _, err := cl.Put(ctx, []byte(k), []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	// f = 1: the put returned on one backup's ack; wait for the one the
	// AnyReplica case reads from.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, found, _ := c.Backend(backup).Latest([]byte("c")); found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("backup never received the writes")
		}
		time.Sleep(time.Millisecond)
	}
	// Hold "p" under a prepared transaction that never decides: its second
	// participant never votes.
	commitTs := cl.Clock().Now()
	resp, err := c.Bus.Call(ctx, primary, wire.PrepareRequest{
		ID:           wire.TxnID{Client: 7, Seq: 1},
		CommitTs:     commitTs,
		WriteSet:     []wire.KV{{Key: []byte("p"), Val: []byte("pending")}},
		Participants: []int{0, 1},
	})
	if err != nil || !resp.(wire.PrepareResponse).OK {
		t.Fatalf("prepare: %+v %v", resp, err)
	}
	at := cl.Clock().Now()

	keys := func(ks ...string) [][]byte {
		out := make([][]byte, len(ks))
		for i, k := range ks {
			out[i] = []byte(k)
		}
		return out
	}
	cases := []struct {
		name       string
		addr       string
		keys       [][]byte
		anyReplica bool
		wantErr    error
		check      func(wire.GetResponse) bool
	}{
		{name: "found", addr: primary, keys: keys("a", "b", "c"),
			check: func(g wire.GetResponse) bool { return g.Found && !g.PreparedAtOrBefore }},
		{name: "missing", addr: primary, keys: keys("x", "y"),
			check: func(g wire.GetResponse) bool { return !g.Found }},
		// "p" has only the prepared write, "a" only a committed one.
		{name: "prepared", addr: primary, keys: keys("p", "a"),
			check: func(g wire.GetResponse) bool { return g.PreparedAtOrBefore == !g.Found }},
		{name: "backup-not-primary", addr: backup, keys: keys("a", "b"), wantErr: semel.ErrNotPrimary},
		{name: "backup-any-replica", addr: backup, keys: keys("a", "c", "x"), anyReplica: true,
			check: func(g wire.GetResponse) bool { return !g.PreparedAtOrBefore }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			multi, merr := c.Bus.Call(ctx, tc.addr, wire.MultiGetRequest{Keys: tc.keys, At: at, AnyReplica: tc.anyReplica})
			if tc.wantErr != nil {
				if !errors.Is(merr, tc.wantErr) {
					t.Fatalf("multiget: %v, want %v", merr, tc.wantErr)
				}
			} else if merr != nil {
				t.Fatalf("multiget: %v", merr)
			}
			var items []wire.GetResponse
			if merr == nil {
				items = multi.(wire.MultiGetResponse).Items
				if len(items) != len(tc.keys) {
					t.Fatalf("multiget answered %d items for %d keys", len(items), len(tc.keys))
				}
			}
			for i, key := range tc.keys {
				single, gerr := c.Bus.Call(ctx, tc.addr, wire.GetRequest{Key: key, At: at, AnyReplica: tc.anyReplica})
				if tc.wantErr != nil {
					if !errors.Is(gerr, tc.wantErr) {
						t.Fatalf("get %q: %v, want %v", key, gerr, tc.wantErr)
					}
					continue
				}
				if gerr != nil {
					t.Fatalf("get %q: %v", key, gerr)
				}
				if !reflect.DeepEqual(items[i], single) {
					t.Fatalf("key %q: multiget item %+v, get %+v", key, items[i], single)
				}
				if !tc.check(items[i]) {
					t.Fatalf("key %q: unexpected item %+v", key, items[i])
				}
			}
		})
	}
}
