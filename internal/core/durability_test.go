package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/milana"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestStressKillChaos is the kill-enabled chaos sweep: on top of the
// probabilistic message faults and structural chaos of TestStressChaosSweep,
// the chaos driver amnesia-kills replicas — the process dies, every
// in-memory structure is lost, only the WAL directory survives — and
// cold-restarts them mid-workload. After the random phase, a deterministic
// rotation kills and recovers any replica chaos spared, so every run
// amnesia-kills and recovers every replica at least once. The run must end
// with money conserved, a serializable history, and zero lost acknowledged
// writes. Environment knobs as in TestStressChaosSweep (CHAOS_SEED /
// CHAOS_ROUNDS); a failing seed prints its replay command.
func TestStressKillChaos(t *testing.T) {
	chaosSweep(t, 1, func(t *testing.T, seed int64, p clock.Profile) {
		// Each writing transfer also bumps its worker's ctr:w to the attempt
		// number, so a committed (acknowledged) transfer leaves a monotone
		// receipt: after the run, ctr:w must read at least the last
		// acknowledged attempt, or an acked write was lost across an amnesia
		// restart. (The check runs only after the quiesced settle — mid-run
		// reads may legitimately see older snapshots under chaos clock steps.)
		r := runBankChaos(t, bankChaos{
			seed: seed, profile: p,
			faults: true, window: 400 * time.Millisecond,
			kill: true, wal: true, receipts: true,
			chaos: func(r *bankRun) {
				r.runChaos()
				killRotation(r)
			},
			settle: 15 * time.Second,
		})
		checkReceipts(r)
		// Every replica was amnesia-killed at least once (rotation
		// guarantees it); its restart must have been a real WAL replay.
		var replayed int64
		for addr, n := range r.kills {
			if n == 0 {
				r.fail("replica %s was never amnesia-killed", addr)
			}
			resp, err := r.c.Bus.Call(context.Background(), addr, wire.StatsRequest{})
			if err != nil {
				r.fail("stats %s: %v", addr, err)
			}
			gauges := resp.(wire.StatsResponse).Obs.Gauges
			if _, ok := gauges["wal_appended_lsn"]; !ok {
				r.fail("replica %s reports WAL disabled", addr)
			}
			replayed += gauges["recovery_replay_records"]
		}
		if replayed == 0 {
			r.fail("no replica replayed a single WAL record; recovery never exercised")
		}
		t.Logf("kills=%v replayed=%d", r.kills, replayed)
		r.checkHistory()
	})
}

// killRotation kills and recovers, one at a time (quorums stay live) and
// with the workload still running, every replica the random chaos schedule
// spared.
func killRotation(r *bankRun) {
	for s := 0; s < bankShards; s++ {
		for rep := 0; rep < bankReplicas; rep++ {
			addr := Addr(s, rep)
			r.killMu.Lock()
			seen := r.kills[addr]
			r.killMu.Unlock()
			if seen > 0 {
				continue
			}
			if err := r.c.KillServer(addr); err != nil {
				r.fail("rotation kill %s: %v", addr, err)
			}
			r.killMu.Lock()
			r.kills[addr]++
			r.killMu.Unlock()
			time.Sleep(20 * time.Millisecond)
			if err := r.c.RestartServer(addr); err != nil {
				r.fail("rotation restart %s: %v", addr, err)
			}
		}
	}
}

// checkReceipts demands zero lost acknowledged writes: each worker's
// counter must read at least its last acknowledged attempt, across every
// amnesia restart. Like conservation, this settles: a worker's last commits
// were acknowledged on collected votes with the decision delivered
// asynchronously, so the final counter write may sit in-doubt until a CTP
// sweep terminates it — not lost, just not yet applied. A write still below
// its acked attempt at the deadline IS lost.
func checkReceipts(r *bankRun) {
	ctx := context.Background()
	deadline := time.Now().Add(15 * time.Second)
	for {
		actx, cancel := context.WithTimeout(ctx, 2*time.Second)
		err := r.auditor.RunTransaction(actx, func(tx *milana.Txn) error {
			for w := range r.acked {
				want := r.acked[w].Load()
				if want == 0 {
					continue
				}
				raw, found, err := tx.Get(actx, ctrKey(w))
				if err != nil {
					return err
				}
				if !found {
					return fmt.Errorf("worker %d: acked counter missing entirely (last ack %d)", w, want)
				}
				got, _ := strconv.ParseInt(string(raw), 10, 64)
				if got < want {
					return fmt.Errorf("worker %d: lost acknowledged write: counter=%d, acked=%d", w, got, want)
				}
			}
			return nil
		})
		cancel()
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			r.fail("durability audit failed: %v", err)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// coldRestartHarness commits acknowledged increments against a WAL-backed
// shard, amnesia-kills every replica at once (nothing survives but the WAL
// directories), cold-restarts them, and returns the recovered counter value
// against the acknowledged one. TestDurabilityColdRestart demands equality;
// TestStressWALFsyncMutationConvicted plants the fsync-skipping bug and
// demands the same harness convict it.
func coldRestartHarness(t *testing.T, skipFsync bool) (got, want int) {
	t.Helper()
	const (
		replicas   = 3
		increments = 24
	)
	ckptEvery := 8 // exercise checkpoint + segment GC during the run
	if skipFsync {
		ckptEvery = -1 // a checkpoint would launder the unsynced records to disk
	}
	c := newTestCluster(t, ClusterOptions{
		Shards: 1, Replicas: replicas,
		PreparedTimeout: 150 * time.Millisecond,
		WALRoot:         t.TempDir(),
		CheckpointEvery: ckptEvery,
	})
	if skipFsync {
		for r := 0; r < replicas; r++ {
			c.Server(Addr(0, r)).MutateSkipWALFsync(true)
		}
	}
	ctx := context.Background()
	key := []byte("durable:ctr")

	txc := c.NewTxnClient(1)
	txc.SyncDecisions = true
	for i := 0; i < increments; i++ {
		if err := txc.RunTransaction(ctx, increment(ctx, key)); err != nil {
			t.Fatalf("increment %d not acknowledged: %v", i, err)
		}
	}

	// Whole-shard amnesia: every replica dies before any restarts, so
	// recovery can only come from the logs.
	for r := 0; r < replicas; r++ {
		if err := c.KillServer(Addr(0, r)); err != nil {
			t.Fatalf("kill %s: %v", Addr(0, r), err)
		}
	}
	for r := 0; r < replicas; r++ {
		if err := c.RestartServer(Addr(0, r)); err != nil {
			t.Fatalf("restart %s: %v", Addr(0, r), err)
		}
	}

	// Read back through the normal path (the restarted primary re-acquires
	// its leases on demand; give it a moment under load).
	sc := c.NewSemelClient(9)
	deadline := time.Now().Add(5 * time.Second)
	for {
		raw, _, found, err := sc.Get(ctx, key)
		if err == nil {
			if found {
				got, _ = strconv.Atoi(string(raw))
			}
			return got, increments
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster never served a read after whole-shard restart: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDurabilityColdRestart is the deterministic durability statement: every
// acknowledged write survives amnesia-killing the entire shard — all three
// replicas at once, nothing left but WAL directories — and cold-starting it
// from checkpoint + log replay.
func TestDurabilityColdRestart(t *testing.T) {
	got, want := coldRestartHarness(t, false)
	if got != want {
		t.Fatalf("lost acknowledged writes across whole-shard amnesia restart: counter=%d want=%d", got, want)
	}
}

// TestStressWALFsyncMutationConvicted is the mutation test for the
// durability harness itself: with the commit-record fsync deliberately
// skipped on every replica (records buffered, never forced to disk), the
// identical kill-and-recover harness MUST observe a lost acknowledged
// write. If it doesn't, the harness cannot convict a durability bug and is
// vacuous.
func TestStressWALFsyncMutationConvicted(t *testing.T) {
	got, want := coldRestartHarness(t, true)
	if got >= want {
		t.Fatalf("fsync-skipping mutation not convicted: counter=%d of %d acked survived whole-shard amnesia kill", got, want)
	}
	t.Logf("convicted: counter=%d after restart, %d increments were acknowledged", got, want)
}

// quorumLossNet is a primary's view of its shard while armed: backup down
// fails every delivery, and backup slow holds each one until its context
// ends — so no prepare can reach f = 1 backup before its deadline.
type quorumLossNet struct {
	transport.Client
	armed      *atomic.Bool
	down, slow string
}

func (n quorumLossNet) Call(ctx context.Context, addr string, req any) (any, error) {
	if n.armed.Load() {
		switch addr {
		case n.down:
			return nil, errors.New("injected: backup down")
		case n.slow:
			<-ctx.Done()
			return nil, ctx.Err()
		}
	}
	return n.Client.Call(ctx, addr, req)
}

// TestDurabilityQuorumLostPrepareAborts is the cold-restart half of the
// overlapped prepare's failure rule for a transaction with several
// participants. The primary appends the prepare to its own log while the
// backup fan-out runs; when the fan-out then fails, the vote is NO — and the
// log must say so too. Otherwise replay finds a lone prepared record and a
// restarted primary leaves in doubt, for CTP to commit, a transaction its
// client was told aborted.
func TestDurabilityQuorumLostPrepareAborts(t *testing.T) {
	primary := Addr(0, 0)
	var armed atomic.Bool
	c := newTestCluster(t, ClusterOptions{
		Shards: 1, Replicas: 3,
		LeaseDuration:       -1,
		AntiEntropyInterval: -1,
		PreparedTimeout:     time.Hour, // the test runs the only sweep
		WALRoot:             t.TempDir(),
		NetWrapper: func(name string, inner transport.Client) transport.Client {
			if name != primary {
				return inner
			}
			return quorumLossNet{Client: inner, armed: &armed, down: Addr(0, 1), slow: Addr(0, 2)}
		},
	})
	key := []byte("quorum-lost:k")
	id := wire.TxnID{Client: 1, Seq: 1}
	armed.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	resp, err := c.Server(primary).Serve(ctx, wire.PrepareRequest{
		ID: id, CommitTs: c.ClientClock(1).Now(), Participants: []int{0, 1},
		WriteSet: []wire.KV{{Key: key, Val: []byte("never")}},
	})
	cancel()
	armed.Store(false)
	if err != nil || resp.(wire.PrepareResponse).OK {
		t.Fatalf("prepare without a quorum answered %+v, %v; want a NO vote", resp, err)
	}

	if err := c.KillServer(primary); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartServer(primary); err != nil {
		t.Fatal(err)
	}
	mgr := c.Server(primary).Manager()
	if res := mgr.SweepPrepared(context.Background(), 0); res.Terminated() != 0 || res.StillPending != 0 {
		t.Fatalf("sweep after restart found the transaction in doubt: %+v", res)
	}
	if got := mgr.Status(id); got != wire.StatusAborted {
		t.Fatalf("status after restart and sweep = %v, want aborted", got)
	}
	if _, _, found, _ := c.Backend(primary).Latest(key); found {
		t.Fatal("the aborted transaction's write set is present after restart")
	}
}

// TestDurabilityQuorumLostSingleShardPrepareCommits is the same failure for
// a transaction with one participant, whose prepared record is its commit: a
// backup that receives it commits it, so once the record was sent the
// primary must never abort it. The client hears no vote and reports
// ErrUnknown; the record stays in doubt in the primary's log, and a restart
// and a sweep leave it committed on every replica.
func TestDurabilityQuorumLostSingleShardPrepareCommits(t *testing.T) {
	primary := Addr(0, 0)
	var armed atomic.Bool
	c := newTestCluster(t, ClusterOptions{
		Shards: 1, Replicas: 3,
		LeaseDuration:       -1,
		AntiEntropyInterval: 20 * time.Millisecond,
		PreparedTimeout:     time.Hour, // the test runs the only sweep
		WALRoot:             t.TempDir(),
		NetWrapper: func(name string, inner transport.Client) transport.Client {
			if name != primary {
				return inner
			}
			return quorumLossNet{Client: inner, armed: &armed, down: Addr(0, 1), slow: Addr(0, 2)}
		},
	})
	key := []byte("quorum-lost:single")
	txc := c.NewTxnClient(1)
	armed.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	err := txc.RunTransaction(ctx, func(tx *milana.Txn) error { return tx.Put(key, []byte("1")) })
	cancel()
	armed.Store(false)
	if !errors.Is(err, milana.ErrUnknown) {
		t.Fatalf("commit without a quorum returned %v, want ErrUnknown", err)
	}
	if n := c.Server(primary).Manager().PreparedCount(); n != 1 {
		t.Fatalf("%d transactions in doubt on the primary, want 1", n)
	}

	if err := c.KillServer(primary); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartServer(primary); err != nil {
		t.Fatal(err)
	}
	mgr := c.Server(primary).Manager()
	mgr.SweepPrepared(context.Background(), 0)
	if n := mgr.PreparedCount(); n != 0 {
		t.Fatalf("%d transactions still in doubt after restart and sweep", n)
	}
	for r := 0; r < 3; r++ {
		addr := Addr(0, r)
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			if val, _, found, _ := c.Backend(addr).Latest(key); found && string(val) == "1" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica %s never committed the write set", addr)
			}
		}
	}
}

// TestDurabilityPromotedBackupLearnsDecision: a backup is amnesia-killed while
// it holds an in-doubt prepare, restarts, learns the commit by replication,
// and is then promoted. The key must stay writable: replay and the live
// delivery take the same two transitions, so no prepared mark or stale
// latestCommitted outlives the decision and wedges every later writer.
func TestDurabilityPromotedBackupLearnsDecision(t *testing.T) {
	c := newTestCluster(t, ClusterOptions{
		Shards: 1, Replicas: 3,
		AntiEntropyInterval: -1,
		WALRoot:             t.TempDir(),
	})
	ctx := context.Background()
	backup := Addr(0, 1)
	key := []byte("promoted:k")
	rec := wire.TxnRecord{
		ID: wire.TxnID{Client: 7, Seq: 1}, CommitTs: c.ClientClock(7).Now(),
		WriteSet: []wire.KV{{Key: key, Val: []byte("1")}}, Participants: []int{0, 1},
		Status: wire.StatusPrepared,
	}
	if _, err := c.Bus.Call(ctx, backup, wire.ReplicatePrepare{Record: rec}); err != nil {
		t.Fatalf("delivering the prepare: %v", err)
	}
	if err := c.KillServer(backup); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartServer(backup); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Bus.Call(ctx, backup, wire.ReplicateDecision{ID: rec.ID, Commit: true}); err != nil {
		t.Fatalf("delivering the decision: %v", err)
	}
	if promoted, err := c.KillPrimary(ctx, 0); err != nil || promoted != backup {
		t.Fatalf("promoted %q, %v; want %s", promoted, err, backup)
	}

	txc := c.NewTxnClient(1)
	txc.SyncDecisions = true
	rctx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	if err := txc.RunTransaction(rctx, increment(rctx, key)); err != nil {
		t.Fatalf("read-modify-write on the promoted primary did not commit within 1 s: %v", err)
	}
	if val, _, _, _ := c.Backend(backup).Latest(key); string(val) != "2" {
		t.Fatalf("value after the increment = %q, want 2", val)
	}
}

// TestReplicateDataDupAfterRecoveryIdempotent is the regression test for
// duplicate delivery straddling a crash: a ReplicateData the backup already
// applied (and logged, and replayed at cold start) is re-delivered by the
// network after recovery. The re-send must be acknowledged and must not
// double-apply — no new version, latest unchanged.
func TestReplicateDataDupAfterRecoveryIdempotent(t *testing.T) {
	c := newTestCluster(t, ClusterOptions{
		Shards: 1, Replicas: 3,
		PreparedTimeout: 150 * time.Millisecond,
		WALRoot:         t.TempDir(),
	})
	ctx := context.Background()
	key := []byte("dup:k")

	txc := c.NewTxnClient(1)
	txc.SyncDecisions = true
	for _, v := range []string{"v1", "v2"} {
		v := v
		if err := txc.RunTransaction(ctx, func(tx *milana.Txn) error {
			return tx.Put(key, []byte(v))
		}); err != nil {
			t.Fatalf("put %s: %v", v, err)
		}
	}

	backup := Addr(0, 1)
	pVal, pVer, pFound, _ := c.Backend(Addr(0, 0)).Latest(key)
	if !pFound {
		t.Fatal("primary lost the key")
	}
	waitConverged := func(what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			val, ver, found, _ := c.Backend(backup).Latest(key)
			if found && ver == pVer && string(val) == string(pVal) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: backup at %s@%v (found=%v), primary %s@%v",
					what, val, ver, found, pVal, pVer)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitConverged("backup never converged before kill")

	// Capture the exact replicated versions as the network saw them.
	var ops []wire.DataOp
	if err := c.Backend(backup).Dump(clock.Timestamp{}, func(k []byte, ver clock.Timestamp, val []byte, tomb bool) error {
		if string(k) == string(key) {
			ops = append(ops, wire.DataOp{
				Key:       append([]byte(nil), k...),
				Val:       append([]byte(nil), val...),
				Version:   ver,
				Tombstone: tomb,
			})
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(ops) == 0 {
		t.Fatal("no versions captured from the backup")
	}

	// Amnesia-kill the backup and cold-start it: its store is rebuilt from
	// WAL replay alone.
	if err := c.KillServer(backup); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartServer(backup); err != nil {
		t.Fatal(err)
	}
	waitConverged("backup diverged after WAL replay")

	countVersions := func() int {
		n := 0
		if err := c.Backend(backup).Dump(clock.Timestamp{}, func(k []byte, _ clock.Timestamp, _ []byte, _ bool) error {
			if string(k) == string(key) {
				n++
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return n
	}
	before := countVersions()

	// The duplicating network re-delivers the pre-crash batch — twice.
	for i := 0; i < 2; i++ {
		if _, err := c.Bus.Call(ctx, backup, wire.ReplicateData{Ops: ops}); err != nil {
			t.Fatalf("re-sent ReplicateData rejected after recovery: %v", err)
		}
	}

	if after := countVersions(); after > before {
		t.Fatalf("duplicate ReplicateData double-applied after replay: %d versions, had %d", after, before)
	}
	if val, ver, found, _ := c.Backend(backup).Latest(key); !found || ver != pVer || string(val) != string(pVal) {
		t.Fatalf("latest changed under duplicate delivery: %s@%v (found=%v), want %s@%v",
			val, ver, found, pVal, pVer)
	}

	// The replica must still take new traffic after absorbing the dups.
	if err := txc.RunTransaction(ctx, func(tx *milana.Txn) error {
		return tx.Put(key, []byte("v3"))
	}); err != nil {
		t.Fatalf("write after duplicate absorption: %v", err)
	}
}

// TestWALOverheadGate is the durability-cost gate behind `make overhead`
// (WAL_OVERHEAD_GATE=1): committed-transaction throughput with a
// group-commit WAL fsyncing on every ack must stay above a floor fraction
// of the WAL-off cluster. The floor is deliberately lenient — real fsyncs
// against a DRAM store are not free — but a broken group commit (one fsync
// per record, or a serialized log path) falls far below it.
func TestWALOverheadGate(t *testing.T) {
	if os.Getenv("WAL_OVERHEAD_GATE") == "" {
		t.Skip("set WAL_OVERHEAD_GATE=1 (make overhead does) to run the WAL overhead gate")
	}
	const (
		workers = 8
		dur     = 2 * time.Second
		floor   = 0.20 // WAL-on must keep ≥ 20% of WAL-off throughput
	)
	measure := func(walRoot string) float64 {
		opt := ClusterOptions{Shards: 1, Replicas: 3, PreparedTimeout: 150 * time.Millisecond}
		if walRoot != "" {
			opt.WALRoot = walRoot
			opt.CheckpointEvery = 4096
		}
		c := newTestCluster(t, opt)
		ctx := context.Background()
		var stop atomic.Bool
		var committed atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				txc := c.NewTxnClient(uint32(w + 1))
				key := []byte(fmt.Sprintf("gate:%d", w))
				for i := 0; !stop.Load(); i++ {
					if err := txc.RunTransaction(ctx, func(tx *milana.Txn) error {
						return tx.Put(key, []byte(strconv.Itoa(i)))
					}); err == nil {
						committed.Add(1)
					}
				}
			}(w)
		}
		time.Sleep(dur)
		stop.Store(true)
		wg.Wait()
		return float64(committed.Load()) / dur.Seconds()
	}
	base := measure("")
	waled := measure(t.TempDir())
	ratio := waled / base
	t.Logf("throughput: wal-off=%.0f txn/s, wal-on=%.0f txn/s (ratio %.2f, floor %.2f)", base, waled, ratio, floor)
	if ratio < floor {
		t.Fatalf("WAL overhead too high: wal-on runs at %.0f%% of baseline (floor %.0f%%) — group commit broken?", ratio*100, floor*100)
	}
}
