package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/clock"
	"repro/internal/faults"
	"repro/internal/milana"
	"repro/internal/transport"
)

// TestStressChaosSweep is the seeded chaos sweep behind `make stress`:
// for each seed × clock profile it runs a transfer workload through a
// fault-injected network (drops, dup delivery, delays, partitions,
// crashes, clock steps), then quiesces and demands (a) conservation and
// (b) a serializable recorded history. Environment knobs:
//
//	CHAOS_SEED    first seed (default 1)
//	CHAOS_ROUNDS  number of seeds (default 2; `make stress` uses 20)
//
// A failing seed replays deterministically: the injector's fault stream
// and the chaos event schedule are exact functions of the seed.
func TestStressChaosSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("stress sweep skipped in -short mode")
	}
	base, rounds := chaosEnv(t, 1, 2)
	profiles := []clock.Profile{clock.NTP, clock.PTPHardware, clock.DTP}
	for i := 0; i < rounds; i++ {
		seed := base + int64(i)
		for _, p := range profiles {
			p := p
			t.Run(fmt.Sprintf("seed=%d/%s", seed, p.Name), func(t *testing.T) {
				stressRound(t, seed, p)
			})
		}
	}
}

func stressRound(t *testing.T, seed int64, profile clock.Profile) {
	const (
		accounts = 8
		initial  = 100
		workers  = 3
		shards   = 2
		replicas = 3
	)
	in := faults.New(faults.Options{
		Seed:         seed,
		PDropRequest: 0.02,
		PDropReply:   0.02,
		PDuplicate:   0.03,
		PDelay:       0.05,
		MaxDelay:     2 * time.Millisecond,
	})
	c := newTestCluster(t, ClusterOptions{
		Shards: shards, Replicas: replicas,
		ClockProfile:    profile,
		SkewServers:     true,
		LeaseDuration:   40 * time.Millisecond,
		PreparedTimeout: 150 * time.Millisecond,
		Seed:            seed,
		NetWrapper:      in.Wrap,
	})
	ctx := context.Background()
	acct := func(i int) []byte { return []byte(fmt.Sprintf("acct:%d", i)) }
	hist := check.NewHistory()

	// Fund the accounts before faults are armed.
	in.SetEnabled(false)
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
	in.SetEnabled(true)

	var (
		stop      atomic.Bool
		wg        sync.WaitGroup
		transfers atomic.Int64
		unknowns  atomic.Int64
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
				switch {
				case err == nil:
					transfers.Add(1)
				case errors.Is(err, milana.ErrUnknown):
					// The outcome is genuinely undecided at the client;
					// the sweepers will terminate it either way. It must
					// NOT be retried as if aborted.
					unknowns.Add(1)
				}
			}
		}(w)
	}

	// Structural chaos on top of the probabilistic message faults.
	groups := make([][]string, shards)
	for s := 0; s < shards; s++ {
		for r := 0; r < replicas; r++ {
			groups[s] = append(groups[s], Addr(s, r))
		}
	}
	maxStep := 2 * profile.Epsilon()
	if maxStep < 200*time.Microsecond {
		maxStep = 200 * time.Microsecond // give tight profiles real upsets too
	}
	ch := faults.NewChaos(in, faults.ChaosOptions{
		Seed:         seed,
		Groups:       groups,
		Clocks:       c.Clocks(),
		MaxClockStep: maxStep,
		Tick:         5 * time.Millisecond,
	})
	ch.Start()
	time.Sleep(400 * time.Millisecond)
	ch.Stop()
	in.Quiesce()
	stop.Store(true)
	wg.Wait()

	fail := func(format string, args ...any) {
		t.Logf("replay: CHAOS_SEED=%d CHAOS_ROUNDS=1 go test -race -run 'TestStressChaosSweep/seed=%d/%s' ./internal/core/", seed, seed, profile.Name)
		t.Logf("injector: %+v", in.Stats())
		t.Logf("chaos schedule: %v", ch.Log())
		t.Fatalf(format, args...)
	}

	// Settle: audit until conservation holds (in-doubt transactions are
	// being terminated by the sweepers in the background).
	auditor := c.NewTxnClient(50)
	auditor.SetHistory(hist)
	deadline := time.Now().Add(10 * time.Second)
	var total int
	var lastErr error
	for {
		total = 0
		actx, cancel := context.WithTimeout(ctx, 2*time.Second)
		lastErr = auditor.RunTransaction(actx, func(tx *milana.Txn) error {
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
		if lastErr == nil && total == accounts*initial {
			break
		}
		if time.Now().After(deadline) {
			fail("money not conserved after chaos: total=%d want=%d err=%v (%d transfers, %d unknown)",
				total, accounts*initial, lastErr, transfers.Load(), unknowns.Load())
		}
		time.Sleep(25 * time.Millisecond)
	}

	rep := check.Serializability(hist.Txns())
	if !rep.Serializable {
		fail("history not serializable: %v", rep)
	}
	com, abt, unk := hist.Outcomes()
	t.Logf("%s seed=%d: %v; outcomes committed=%d aborted=%d unknown=%d; faults=%+v",
		profile.Name, seed, rep, com, abt, unk, in.Stats())
	if transfers.Load() == 0 {
		fail("no transfer ever committed; chaos too aggressive to be meaningful")
	}
}

// TestStressCheckerCatchesWeakenedValidation is the end-to-end mutation
// test: with MILANA's read-set validation deliberately disabled on every
// server, concurrent counter increments produce lost updates, and the
// history checker must convict the run with a concrete dependency cycle
// (well within the 30 s budget).
func TestStressCheckerCatchesWeakenedValidation(t *testing.T) {
	c := newTestCluster(t, ClusterOptions{
		Shards: 1, Replicas: 3,
		PreparedTimeout: 150 * time.Millisecond,
	})
	for s := 0; s < 1; s++ {
		for r := 0; r < 3; r++ {
			c.Server(Addr(s, r)).Manager().MutateSkipReadValidation(true)
		}
	}
	ctx := context.Background()
	key := []byte("ctr")

	// One history for every round: later rounds read the versions earlier
	// rounds installed, and a reader of an unrecorded version is not the
	// anomaly this test is after.
	hist := check.NewHistory()
	deadline := time.Now().Add(30 * time.Second)
	for round := 0; ; round++ {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				txc := c.NewTxnClient(uint32(200 + round*10 + w))
				txc.SetHistory(hist)
				txc.SyncDecisions = true
				for i := 0; i < 25; i++ {
					tctx, cancel := context.WithTimeout(ctx, time.Second)
					_ = txc.RunTransaction(tctx, func(tx *milana.Txn) error {
						raw, _, err := tx.Get(tctx, key)
						if err != nil {
							return err
						}
						n, _ := strconv.Atoi(string(raw))
						return tx.Put(key, []byte(strconv.Itoa(n+1)))
					})
					cancel()
				}
			}(w)
		}
		wg.Wait()

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
		if err := txc.RunTransaction(ctx, func(tx *milana.Txn) error {
			raw, _, err := tx.Get(ctx, key)
			if err != nil {
				return err
			}
			n, _ := strconv.Atoi(string(raw))
			return tx.Put(key, []byte(strconv.Itoa(n+1)))
		}); err != nil {
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
