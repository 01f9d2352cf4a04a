package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/milana"
)

// TestNearestReplicaReads exercises the §4.6 relaxation: reads go to any
// replica; the transaction then validates remotely at the primary.
func TestNearestReplicaReads(t *testing.T) {
	c := newTestCluster(t, ClusterOptions{Shards: 1, Replicas: 3, LeaseDuration: -1})
	ctx := context.Background()

	writer := c.NewTxnClient(1)
	writer.SyncDecisions = true
	if err := writer.RunTransaction(ctx, func(tx *milana.Txn) error {
		return tx.Put([]byte("k"), []byte("v"))
	}); err != nil {
		t.Fatal(err)
	}
	// Wait until the write reaches every backup (inconsistent replication
	// acks after f; the remaining delivery completes in the background).
	deadline := time.Now().Add(2 * time.Second)
	for r := 1; r < 3; r++ {
		for {
			_, _, found, _ := c.Backend(Addr(0, r)).Latest([]byte("k"))
			if found {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("write never reached backup %d", r)
			}
			time.Sleep(time.Millisecond)
		}
	}

	reader := c.NewTxnClient(2)
	reader.ReadNearest = true
	reader.SyncDecisions = true
	// Several read-only transactions: some reads land on backups; all
	// must validate remotely (never locally) yet still commit.
	for i := 0; i < 6; i++ {
		if err := reader.RunTransaction(ctx, func(tx *milana.Txn) error {
			val, found, err := tx.Get(ctx, []byte("k"))
			if err != nil {
				return err
			}
			if !found || string(val) != "v" {
				return errors.New("backup served wrong value")
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := reader.Stats()
	if st.NearestReads == 0 {
		t.Fatal("no read ever went to a non-primary replica")
	}
	// Transactions whose read happened to land on the primary keep full
	// validation metadata and may still validate locally; any transaction
	// that read from a backup must have validated remotely.
	if st.LocalValidated >= st.Committed {
		t.Fatalf("every txn validated locally despite backup reads: %+v", st)
	}
	if st.Committed != 6 {
		t.Fatalf("stats = %+v", st)
	}

	// Read-write transactions with nearest reads keep serializability:
	// concurrent increments still conflict correctly because validation
	// happens at the primary.
	a, b := c.NewTxnClient(3), c.NewTxnClient(4)
	a.ReadNearest, b.ReadNearest = true, true
	a.SyncDecisions, b.SyncDecisions = true, true
	ta, tb := a.Begin(), b.Begin()
	if _, _, err := ta.Get(ctx, []byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tb.Get(ctx, []byte("k")); err != nil {
		t.Fatal(err)
	}
	_ = ta.Put([]byte("k"), []byte("a"))
	_ = tb.Put([]byte("k"), []byte("b"))
	errA, errB := ta.Commit(ctx), tb.Commit(ctx)
	if (errA == nil) == (errB == nil) {
		t.Fatalf("nearest reads broke write-write conflict detection: %v / %v", errA, errB)
	}
}

// TestCachedReads exercises §4.3's caching tradeoff: transactions declared
// read-write in advance read from the client cache and validate remotely;
// stale cache entries cause an abort, invalidation, and a clean retry.
func TestCachedReads(t *testing.T) {
	c := newTestCluster(t, ClusterOptions{Shards: 1, Replicas: 1, LeaseDuration: -1})
	ctx := context.Background()

	// Another client seeds the key, so cl's cache starts cold.
	seeder := c.NewTxnClient(9)
	seeder.SyncDecisions = true
	if err := seeder.RunTransaction(ctx, func(tx *milana.Txn) error {
		return tx.Put([]byte("k"), []byte("v1"))
	}); err != nil {
		t.Fatal(err)
	}
	cl := c.NewTxnClient(1)
	cl.CacheReads = true
	cl.SyncDecisions = true
	// First read populates the cache.
	tx := cl.BeginReadWrite()
	if _, _, err := tx.Get(ctx, []byte("k")); err != nil {
		t.Fatal(err)
	}
	_ = tx.Put([]byte("other"), []byte("x"))
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if cl.Stats().CacheHits != 0 {
		t.Fatal("first read cannot be a cache hit")
	}
	// Second declared-read-write transaction hits the cache.
	tx = cl.BeginReadWrite()
	val, found, err := tx.Get(ctx, []byte("k"))
	if err != nil || !found || string(val) != "v1" {
		t.Fatalf("cached read = %q %v %v", val, found, err)
	}
	_ = tx.Put([]byte("other"), []byte("y"))
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if cl.Stats().CacheHits != 1 {
		t.Fatalf("stats = %+v", cl.Stats())
	}

	// Another client commits a newer version; our cache is now stale.
	other := c.NewTxnClient(2)
	other.SyncDecisions = true
	if err := other.RunTransaction(ctx, func(tx *milana.Txn) error {
		return tx.Put([]byte("k"), []byte("v2"))
	}); err != nil {
		t.Fatal(err)
	}
	// A cached read of the now-stale entry must abort at remote
	// validation, which invalidates the cache entry; the retry re-reads
	// the fresh value from the server and commits.
	txStale := cl.BeginReadWrite()
	v, _, err := txStale.Get(ctx, []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "v1" {
		t.Fatalf("expected the stale cached value v1, got %q", v)
	}
	_ = txStale.Put([]byte("k"), append(v, '!'))
	if err := txStale.Commit(ctx); !errors.Is(err, milana.ErrAborted) {
		t.Fatalf("stale cached read committed: %v", err)
	}
	retry := cl.BeginReadWrite()
	v, _, err = retry.Get(ctx, []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "v2" {
		t.Fatalf("retry after invalidation read %q, want v2", v)
	}
	_ = retry.Put([]byte("k"), []byte("v3"))
	if err := retry.Commit(ctx); err != nil {
		t.Fatalf("retry with fresh read failed: %v", err)
	}
}

// TestRunTransactionPropagatesHardErrors ensures only conflict aborts are
// retried; infrastructure errors surface to the caller.
func TestRunTransactionPropagatesHardErrors(t *testing.T) {
	c := newTestCluster(t, ClusterOptions{Shards: 1, Replicas: 1, LeaseDuration: -1})
	ctx := context.Background()
	txc := c.NewTxnClient(1)
	// Down the only replica: Get fails with a transport error, which must
	// not be retried forever.
	c.Bus.SetDown(Addr(0, 0), true)
	tctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	err := txc.RunTransaction(tctx, func(tx *milana.Txn) error {
		_, _, err := tx.Get(tctx, []byte("k"))
		return err
	})
	if err == nil {
		t.Fatal("transaction succeeded against a dead shard")
	}
	if errors.Is(err, milana.ErrAborted) {
		t.Fatalf("transport failure misclassified as conflict: %v", err)
	}
}

// TestGetManyBatchedReads verifies one-round-trip-per-shard transactional
// reads: values match per-key reads, snapshot semantics hold, and the keys
// join the read set (so local validation still works).
func TestGetManyBatchedReads(t *testing.T) {
	c := newTestCluster(t, ClusterOptions{Shards: 3, LeaseDuration: -1})
	ctx := context.Background()
	w := c.NewTxnClient(1)
	w.SyncDecisions = true
	if err := w.RunTransaction(ctx, func(tx *milana.Txn) error {
		for i := 0; i < 8; i++ {
			if err := tx.Put([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	r := c.NewTxnClient(2)
	tx := r.Begin()
	keys := [][]byte{[]byte("k0"), []byte("k3"), []byte("k5"), []byte("missing")}
	got, err := tx.GetMany(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || string(got["k0"]) != "v0" || string(got["k3"]) != "v3" || string(got["k5"]) != "v5" {
		t.Fatalf("got = %v", got)
	}
	if _, ok := got["missing"]; ok {
		t.Fatal("missing key present")
	}
	// Repeat reads are served from the txn's read set (no re-fetch drift).
	again, err := tx.GetMany(ctx, keys[:2])
	if err != nil || string(again["k0"]) != "v0" {
		t.Fatalf("again = %v %v", again, err)
	}
	// The read-only txn still validates locally.
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if r.Stats().LocalValidated != 1 {
		t.Fatalf("stats = %+v", r.Stats())
	}
	// Buffered writes shadow batched reads.
	tx2 := r.Begin()
	_ = tx2.Put([]byte("k0"), []byte("mine"))
	got, err = tx2.GetMany(ctx, [][]byte{[]byte("k0"), []byte("k1")})
	if err != nil || string(got["k0"]) != "mine" || string(got["k1"]) != "v1" {
		t.Fatalf("write shadowing broken: %v %v", got, err)
	}
	tx2.Abort()

	// SEMEL-level MultiGet agrees with Get.
	kv := c.NewSemelClient(3)
	m, err := kv.MultiGet(ctx, keys)
	if err != nil || len(m) != 3 || string(m["k5"]) != "v5" {
		t.Fatalf("semel multiget = %v %v", m, err)
	}
}

// TestClusterCloseStopsGoroutines guards against background-loop leaks:
// lease renewal, sweepers and bus goroutines must all exit on Close.
func TestClusterCloseStopsGoroutines(t *testing.T) {
	closeStopsGoroutines(t, ClusterOptions{
		Shards: 2, Replicas: 3,
		LeaseDuration:   50 * time.Millisecond,
		PreparedTimeout: 100 * time.Millisecond,
	}, nil)
}

// closeStopsGoroutines builds a cluster from opt, commits five puts through
// client 1, hands both to beforeClose when it is set, closes the cluster,
// and fails unless the goroutine count falls back to where it started
// (plus test-runner slack) within 3 s.
func closeStopsGoroutines(t *testing.T, opt ClusterOptions, beforeClose func(*Cluster, *milana.Client)) {
	t.Helper()
	before := runtime.NumGoroutine()
	c, err := NewCluster(opt)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	txc := c.NewTxnClient(1)
	txc.SyncDecisions = true
	for i := 0; i < 5; i++ {
		if err := txc.RunTransaction(ctx, func(tx *milana.Txn) error {
			return tx.Put([]byte{byte(i)}, []byte("v"))
		}); err != nil {
			t.Fatal(err)
		}
	}
	if beforeClose != nil {
		beforeClose(c, txc)
	}
	c.Close()
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 { // test runner slack
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d -> %d\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
