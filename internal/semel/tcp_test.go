package semel_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/milana"
	"repro/internal/semel"
)

// TestTCPEndToEnd drives the full SEMEL + MILANA protocol over real TCP
// connections: replicated puts, snapshot gets, and a cross-key transaction
// with 2PC, proving the wire codec round-trips every message type.
func TestTCPEndToEnd(t *testing.T) {
	dir, net, src := startInstrumentedTCPShard(t, nil, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	kv := semel.NewClient(clock.NewPerfect(src, 1), net, dir)
	ver, err := kv.Put(ctx, []byte("k"), []byte("v1"))
	if err != nil {
		t.Fatalf("put over TCP: %v", err)
	}
	if _, err := kv.Put(ctx, []byte("k"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	val, _, found, err := kv.Get(ctx, []byte("k"))
	if err != nil || !found || string(val) != "v2" {
		t.Fatalf("get = %q %v %v", val, found, err)
	}
	old, _, found, err := kv.GetAt(ctx, []byte("k"), ver)
	if err != nil || !found || string(old) != "v1" {
		t.Fatalf("snapshot get = %q %v %v", old, found, err)
	}

	txc := milana.NewClient(clock.NewPerfect(src, 2), net, dir)
	txc.SyncDecisions = true
	err = txc.RunTransaction(ctx, func(tx *milana.Txn) error {
		v, found, err := tx.Get(ctx, []byte("k"))
		if err != nil {
			return err
		}
		if !found || string(v) != "v2" {
			t.Errorf("txn read %q %v", v, found)
		}
		return tx.Put([]byte("k2"), []byte("from-txn"))
	})
	if err != nil {
		t.Fatalf("txn over TCP: %v", err)
	}
	val, _, found, err = kv.Get(ctx, []byte("k2"))
	if err != nil || !found || string(val) != "from-txn" {
		t.Fatalf("txn write invisible: %q %v %v", val, found, err)
	}
	// Read-only transaction validates locally over TCP too.
	if err := txc.RunTransaction(ctx, func(tx *milana.Txn) error {
		_, _, err := tx.Get(ctx, []byte("k2"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if st := txc.Stats(); st.LocalValidated != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Watermark broadcast reaches all three replicas without error.
	kv.BroadcastWatermark(ctx, kv.Clock().Now())
}
