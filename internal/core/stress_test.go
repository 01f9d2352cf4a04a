package core

import (
	"context"
	"strconv"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/clock"
	"repro/internal/faults"
	"repro/internal/transport"
)

// TestStressChaosSweep is the seeded chaos sweep behind `make stress`:
// for each seed × clock profile it runs the bank workload through a
// fault-injected network (drops, dup delivery, delays, partitions,
// crashes, clock steps), then quiesces and demands (a) conservation and
// (b) a serializable recorded history. Environment knobs:
//
//	CHAOS_SEED    first seed (default 1)
//	CHAOS_ROUNDS  number of seeds (default 2; `make stress` uses 20)
//
// A failing seed prints its replay command.
func TestStressChaosSweep(t *testing.T) {
	chaosSweep(t, 2, func(t *testing.T, seed int64, p clock.Profile) {
		runBankChaos(t, bankChaos{
			seed: seed, profile: p,
			faults: true, window: 400 * time.Millisecond,
			settle: 10 * time.Second,
		}).checkHistory()
	})
}

// TestStressCheckerCatchesWeakenedValidation is the end-to-end mutation
// test: with MILANA's read-set validation deliberately disabled on every
// server, concurrent counter increments produce lost updates, and the
// history checker must convict the run with a concrete dependency cycle
// (well within the 30 s budget).
func TestStressCheckerCatchesWeakenedValidation(t *testing.T) {
	c := newCounterCluster(t, 0, nil, true)
	ctx := context.Background()

	// One history for every round: later rounds read the versions earlier
	// rounds installed, and a reader of an unrecorded version is not the
	// anomaly this test is after.
	hist := check.NewHistory()
	deadline := time.Now().Add(30 * time.Second)
	for round := 0; ; round++ {
		incrementRound(ctx, c, counterClients(c, uint32(200+round*10), hist), 25)

		rep := check.Serializability(hist.Txns())
		if !rep.Serializable {
			if len(rep.Cycle) == 0 {
				t.Fatalf("violation reported without a witness cycle: %v", rep)
			}
			t.Logf("checker verdict after round %d: %v", round, rep)
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("weakened validation never produced a detectable anomaly within 30s")
		}
	}
}

// TestStressDuplicateReplicationIdempotent is the regression test for
// duplicate delivery of replication traffic: with every server→server
// message delivered twice, backups must apply ReplicateData batches,
// prepares, and decisions idempotently, ending bit-identical to the
// primary. Client traffic stays un-duplicated so the expected final value
// is exact.
func TestStressDuplicateReplicationIdempotent(t *testing.T) {
	in := faults.New(faults.Options{Seed: 7, PDuplicate: 1.0})
	c := newTestCluster(t, ClusterOptions{
		Shards: 1, Replicas: 3,
		PreparedTimeout: 150 * time.Millisecond,
		NetWrapper: func(name string, inner transport.Client) transport.Client {
			if len(name) >= 6 && name[:6] == "client" {
				return inner // only duplicate server→server traffic
			}
			return in.Wrap(name, inner)
		},
	})
	ctx := context.Background()
	key := []byte("ctr")
	hist := check.NewHistory()

	txc := c.NewTxnClient(1)
	txc.SetHistory(hist)
	txc.SyncDecisions = true
	const increments = 30
	for i := 0; i < increments; i++ {
		if err := txc.RunTransaction(ctx, increment(ctx, key)); err != nil {
			t.Fatalf("increment %d: %v", i, err)
		}
	}
	in.Quiesce()

	// The committed value must count every increment exactly once.
	raw, _, found, err := c.NewSemelClient(9).Get(ctx, key)
	if err != nil || !found {
		t.Fatalf("Get: %v found=%v", err, found)
	}
	if got, _ := strconv.Atoi(string(raw)); got != increments {
		t.Fatalf("counter = %d, want %d (duplicate replication not idempotent)", got, increments)
	}

	// Every replica must converge to the same latest version.
	pVal, pVer, pFound, _ := c.Backend(Addr(0, 0)).Latest(key)
	if !pFound {
		t.Fatal("primary lost the key")
	}
	for r := 1; r < 3; r++ {
		addr := Addr(0, r)
		deadline := time.Now().Add(5 * time.Second)
		for {
			val, ver, found, _ := c.Backend(addr).Latest(key)
			if found && ver == pVer && string(val) == string(pVal) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s diverged: %s@%v (found=%v), primary %s@%v",
					addr, val, ver, found, pVal, pVer)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	if rep := check.Serializability(hist.Txns()); !rep.Serializable {
		t.Fatalf("history under duplication not serializable: %v", rep)
	}
	if st := in.Stats(); st.Duplicates == 0 {
		t.Fatalf("no duplicates injected; test is vacuous: %+v", st)
	}
}
