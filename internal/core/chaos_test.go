package core

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/flash"
	"repro/internal/milana"
	"repro/internal/wire"
)

// TestChaosFailoverUnderLoad runs transfers between accounts while killing
// and promoting primaries, then checks the two invariants that must survive
// any fail-stop schedule: no committed money is lost (conservation) and no
// audit ever observes a torn transfer.
func TestChaosFailoverUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			chaosRound(t, seed)
		})
	}
}

func chaosRound(t *testing.T, seed int64) {
	const (
		accounts = 8
		initial  = 100
		workers  = 3
	)
	c := newTestCluster(t, ClusterOptions{
		Shards: 2, Replicas: 3,
		LeaseDuration:   40 * time.Millisecond,
		PreparedTimeout: 150 * time.Millisecond,
		Seed:            seed,
	})
	ctx := context.Background()
	acct := func(i int) []byte { return []byte(fmt.Sprintf("acct:%d", i)) }
	hist := check.NewHistory()

	setup := c.NewTxnClient(100)
	setup.SetHistory(hist)
	setup.SyncDecisions = true
	if err := setup.RunTransaction(ctx, func(tx *milana.Txn) error {
		for i := 0; i < accounts; i++ {
			if err := tx.Put(acct(i), []byte(strconv.Itoa(initial))); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	var (
		stop     atomic.Bool
		wg       sync.WaitGroup
		transfer atomic.Int64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			txc := c.NewTxnClient(uint32(w + 1))
			txc.SetHistory(hist)
			r := rand.New(rand.NewSource(seed*100 + int64(w)))
			for !stop.Load() {
				from, to := r.Intn(accounts), r.Intn(accounts)
				if from == to {
					continue
				}
				tctx, cancel := context.WithTimeout(ctx, time.Second)
				err := txc.RunTransaction(tctx, func(tx *milana.Txn) error {
					fb, _, err := tx.Get(tctx, acct(from))
					if err != nil {
						return err
					}
					tb, _, err := tx.Get(tctx, acct(to))
					if err != nil {
						return err
					}
					f, _ := strconv.Atoi(string(fb))
					g, _ := strconv.Atoi(string(tb))
					if f < 5 {
						return nil
					}
					if err := tx.Put(acct(from), []byte(strconv.Itoa(f-5))); err != nil {
						return err
					}
					return tx.Put(acct(to), []byte(strconv.Itoa(g+5)))
				})
				cancel()
				// Transient errors during failover windows are expected
				// (lease expiry, unreachable primary, timeouts); only
				// the invariants below matter.
				if err == nil {
					transfer.Add(1)
				}
			}
		}(w)
	}

	// The chaos schedule: kill each shard's primary once. (A second kill
	// on the same shard would drop it below a majority of its original
	// group, and promotion would — correctly — refuse; see
	// TestPromoteNeedsMajority.)
	r := rand.New(rand.NewSource(seed))
	order := []int{0, 1}
	if r.Intn(2) == 0 {
		order[0], order[1] = order[1], order[0]
	}
	for round, shard := range order {
		time.Sleep(60 * time.Millisecond)
		fctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		promoted, err := c.KillPrimary(fctx, clusterShard(shard))
		cancel()
		if err != nil {
			t.Fatalf("round %d: failover of shard %d: %v", round, shard, err)
		}
		t.Logf("round %d: promoted %s on shard %d (transfers so far: %d)", round, promoted, shard, transfer.Load())
	}
	time.Sleep(100 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	// Give in-flight decisions and the sweeper time to settle in-doubt
	// transactions, then audit until the total converges.
	auditor := c.NewTxnClient(50)
	auditor.SetHistory(hist)
	deadline := time.Now().Add(8 * time.Second)
	var total int
	for {
		total = 0
		actx, cancel := context.WithTimeout(ctx, 2*time.Second)
		err := auditor.RunTransaction(actx, func(tx *milana.Txn) error {
			total = 0
			for i := 0; i < accounts; i++ {
				raw, found, err := tx.Get(actx, acct(i))
				if err != nil {
					return err
				}
				if !found {
					return fmt.Errorf("account %d missing after chaos", i)
				}
				n, _ := strconv.Atoi(string(raw))
				total += n
			}
			return nil
		})
		cancel()
		if err == nil && total == accounts*initial {
			break
		}
		if time.Now().After(deadline) {
			if err != nil {
				t.Fatalf("audit never succeeded: %v", err)
			}
			for i := 0; i < accounts; i++ {
				key := []byte(fmt.Sprintf("acct:%d", i))
				shard := c.Dir.ShardFor(key)
				line := fmt.Sprintf("acct:%d shard%d:", i, shard)
				for r := 0; r < 3; r++ {
					be := c.Backend(Addr(int(shard), r))
					val, ver, found, _ := be.Latest(key)
					role := ""
					if c.Server(Addr(int(shard), r)).IsPrimary() {
						role = "*"
					}
					line += fmt.Sprintf("  r%d%s=%s@%d(%v)", r, role, val, ver.Ticks, found)
				}
				t.Log(line)
			}
			t.Fatalf("money not conserved after chaos: total %d, want %d (%d transfers committed)",
				total, accounts*initial, transfer.Load())
		}
		time.Sleep(50 * time.Millisecond)
	}
	if transfer.Load() == 0 {
		t.Fatal("no transfer ever committed; chaos too aggressive to be meaningful")
	}
	// Conservation alone would miss reorderings that happen to preserve
	// sums; the recorded history must also be serializable.
	if rep := check.Serializability(hist.Txns()); !rep.Serializable {
		t.Fatalf("failover history not serializable: %v", rep)
	}
}

// TestChaosCoordinatorCrashMidCommit drives 2PC halfway on two shards and
// then also kills one participant primary, forcing recovery to combine the
// transaction-table merge (Algorithm 2) with cooperative termination.
func TestChaosCoordinatorCrashMidCommit(t *testing.T) {
	c := newTestCluster(t, ClusterOptions{
		Shards: 2, Replicas: 3,
		LeaseDuration:   40 * time.Millisecond,
		PreparedTimeout: 120 * time.Millisecond,
	})
	ctx := context.Background()

	txc := c.NewTxnClient(1)
	tx := txc.Begin()
	keyA, keyB := []byte("a"), []byte("b")
	for i := 0; c.Dir.ShardFor(keyB) == c.Dir.ShardFor(keyA); i++ {
		keyB = []byte(fmt.Sprintf("b%d", i))
	}
	shardA, shardB := c.Dir.ShardFor(keyA), c.Dir.ShardFor(keyB)
	participants := []int{int(shardA), int(shardB)}
	commitTs := tx.BeginTs().Add(time.Millisecond)

	// Phase one succeeds on both shards; the coordinator then "crashes".
	for _, p := range []struct {
		shard keyShard
		key   []byte
		val   string
	}{{keyShard(shardA), keyA, "va"}, {keyShard(shardB), keyB, "vb"}} {
		if !preparedOK(t, c, ctx, p.shard, tx, commitTs, p.key, p.val, participants) {
			t.Fatal("prepare failed")
		}
	}
	// One participant's primary dies too.
	fctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	if _, err := c.KillPrimary(fctx, shardB); err != nil {
		t.Fatalf("failover: %v", err)
	}
	cancel()

	// The surviving machinery (recovery merge + CTP sweeper) must commit
	// the transaction: all participants prepared successfully.
	cl := c.NewSemelClient(9)
	deadline := time.Now().Add(8 * time.Second)
	for {
		va, _, foundA, _ := cl.Get(ctx, keyA)
		vb, _, foundB, _ := cl.Get(ctx, keyB)
		if foundA && foundB && string(va) == "va" && string(vb) == "vb" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("in-doubt txn never resolved after coordinator+primary crash: %v %v", foundA, foundB)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// helpers shared by chaos tests

type keyShard = cluster.ShardID

func clusterShard(i int) cluster.ShardID { return cluster.ShardID(i) }

// preparedOK sends a raw prepare for one key to one shard's primary.
func preparedOK(t *testing.T, c *Cluster, ctx context.Context, shard cluster.ShardID, tx *milana.Txn, commitTs clock.Timestamp, key []byte, val string, participants []int) bool {
	t.Helper()
	addr, err := c.Dir.Primary(shard)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Bus.Call(ctx, addr, wire.PrepareRequest{
		ID:           tx.ID(),
		CommitTs:     commitTs,
		WriteSet:     []wire.KV{{Key: key, Val: []byte(val)}},
		Participants: participants,
	})
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	return resp.(wire.PrepareResponse).OK
}

// TestChaosFailoverFlashBackend repeats the failover-under-load invariant
// check on the MFTL backend: recovery must merge data versions that live on
// emulated flash (packed pages, version lists) rather than in DRAM.
func TestChaosFailoverFlashBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	const accounts = 6
	const initial = 100
	c := newTestCluster(t, ClusterOptions{
		Shards: 1, Replicas: 3,
		Backend: BackendMFTL,
		// Nothing broadcasts a watermark here, so no version ever becomes
		// garbage: the device must hold every version the run commits. The
		// default 2 MiB fills at about a thousand transfers, and on a full
		// device prepared transfers can never be applied.
		Geometry:        flash.Geometry{Channels: 4, BlocksPerChannel: 128, PagesPerBlock: 16, PageSize: 1024},
		PackTimeout:     -1,
		LeaseDuration:   40 * time.Millisecond,
		PreparedTimeout: 150 * time.Millisecond,
	})
	ctx := context.Background()
	acct := func(i int) []byte { return []byte(fmt.Sprintf("acct:%d", i)) }
	hist := check.NewHistory()
	setup := c.NewTxnClient(100)
	setup.SetHistory(hist)
	setup.SyncDecisions = true
	if err := setup.RunTransaction(ctx, func(tx *milana.Txn) error {
		for i := 0; i < accounts; i++ {
			if err := tx.Put(acct(i), []byte(strconv.Itoa(initial))); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		txc := c.NewTxnClient(1)
		txc.SetHistory(hist)
		r := rand.New(rand.NewSource(9))
		for !stop.Load() {
			from, to := r.Intn(accounts), r.Intn(accounts)
			if from == to {
				continue
			}
			tctx, cancel := context.WithTimeout(ctx, time.Second)
			_ = txc.RunTransaction(tctx, func(tx *milana.Txn) error {
				fb, _, err := tx.Get(tctx, acct(from))
				if err != nil {
					return err
				}
				tb, _, err := tx.Get(tctx, acct(to))
				if err != nil {
					return err
				}
				f, _ := strconv.Atoi(string(fb))
				g, _ := strconv.Atoi(string(tb))
				if f < 5 {
					return nil
				}
				if err := tx.Put(acct(from), []byte(strconv.Itoa(f-5))); err != nil {
					return err
				}
				return tx.Put(acct(to), []byte(strconv.Itoa(g+5)))
			})
			cancel()
		}
	}()
	time.Sleep(50 * time.Millisecond)
	fctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	if _, err := c.KillPrimary(fctx, 0); err != nil {
		t.Fatalf("failover: %v", err)
	}
	cancel()
	time.Sleep(80 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	auditor := c.NewTxnClient(50)
	auditor.SetHistory(hist)
	deadline := time.Now().Add(8 * time.Second)
	for {
		total := 0
		actx, cancel := context.WithTimeout(ctx, 2*time.Second)
		err := auditor.RunTransaction(actx, func(tx *milana.Txn) error {
			total = 0
			for i := 0; i < accounts; i++ {
				raw, found, err := tx.Get(actx, acct(i))
				if err != nil {
					return err
				}
				if !found {
					return fmt.Errorf("account %d missing", i)
				}
				n, _ := strconv.Atoi(string(raw))
				total += n
			}
			return nil
		})
		cancel()
		if err == nil && total == accounts*initial {
			if rep := check.Serializability(hist.Txns()); !rep.Serializable {
				t.Fatalf("flash failover history not serializable: %v", rep)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("flash-backed failover broke conservation: total=%d err=%v", total, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
