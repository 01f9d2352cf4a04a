package core

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/check"
	"repro/internal/clock"
	"repro/internal/faults"
	"repro/internal/milana"
)

// chaosEnv reads the CHAOS_SEED/CHAOS_ROUNDS sweep knobs shared by the
// seeded chaos tests.
func chaosEnv(t *testing.T, defSeed int64, defRounds int) (int64, int) {
	t.Helper()
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", s, err)
		}
		defSeed = v
	}
	if s := os.Getenv("CHAOS_ROUNDS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("bad CHAOS_ROUNDS %q: %v", s, err)
		}
		defRounds = v
	}
	return defSeed, defRounds
}

// TestAuditConvictsWeakenedValidationOnline is the online counterpart of
// TestStressCheckerCatchesWeakenedValidation: with read-set validation
// disabled on every server, the *streaming* auditor — windows closed by
// watermark broadcasts, never a full-history drain — must convict the run
// with a concrete cycle and file a flight-recorder artifact.
func TestAuditConvictsWeakenedValidationOnline(t *testing.T) {
	dir := t.TempDir()
	c := newTestCluster(t, ClusterOptions{
		Shards: 1, Replicas: 3,
		PreparedTimeout: 150 * time.Millisecond,
		Audit: &audit.Options{
			SampleRate:    1,
			FlushInterval: 5 * time.Millisecond,
			ArtifactDir:   dir,
		},
	})
	for r := 0; r < 3; r++ {
		c.Server(Addr(0, r)).Manager().MutateSkipReadValidation(true)
	}
	ctx := context.Background()
	key := []byte("ctr")

	// Long-lived clients: their watermark reports must keep advancing, or
	// the min over ever-seen clients pins the cut forever.
	const workers = 4
	clients := make([]*milana.Client, workers)
	for w := range clients {
		clients[w] = c.NewTxnClient(uint32(200 + w))
		clients[w].SyncDecisions = true
	}

	deadline := time.Now().Add(30 * time.Second)
	for round := 0; ; round++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(txc *milana.Client) {
				defer wg.Done()
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
			}(clients[w])
		}
		wg.Wait()
		for _, txc := range clients {
			txc.BroadcastWatermark(ctx)
		}
		c.Auditor().Flush()

		if s := c.Auditor().Stats(); s.Convictions > 0 {
			arts := c.Auditor().Artifacts()
			var conv *audit.Artifact
			for _, a := range arts {
				if a.Kind == audit.KindConviction {
					conv = a
					break
				}
			}
			if conv == nil {
				t.Fatalf("convictions counted but no conviction artifact retained: %+v", arts)
			}
			// Skipping read validation can be convicted two ways: by a
			// dependency cycle, or first by direct evidence (a read of a
			// version no recorded transaction installed, a dirty read),
			// which names its anomaly but has no cycle to show.
			if conv.Anomaly == "" || len(conv.Window) == 0 ||
				(len(conv.Cycle) == 0 && strings.HasPrefix(conv.Anomaly, "dependency cycle")) {
				t.Fatalf("conviction artifact incomplete: %+v", conv)
			}
			t.Logf("online conviction after round %d: %s (cycle %v, window %d txns, checked %d windows)",
				round, conv.Anomaly, conv.Cycle, len(conv.Window), s.WindowsChecked)
			return
		}
		if time.Now().After(deadline) {
			s := c.Auditor().Stats()
			t.Fatalf("online auditor never convicted weakened validation: %+v", s)
		}
	}
}

// TestAuditHealthyChaosSilent runs the seeded chaos workload (drops, dups,
// delays, partitions, crashes, clock steps) across the three clock profiles
// with the auditor always on, and demands total silence: zero convictions
// and zero ε violations on an unmutated cluster. The auditor's ε is widened
// to cover profile uncertainty plus the largest injected clock step — chaos
// deliberately disciplines clocks beyond the profile's own bound.
func TestAuditHealthyChaosSilent(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos audit skipped in -short mode")
	}
	for _, p := range []clock.Profile{clock.NTP, clock.PTPHardware, clock.DTP} {
		p := p
		t.Run(p.Name, func(t *testing.T) { auditChaosRound(t, 1, p) })
	}
}

func auditChaosRound(t *testing.T, seed int64, profile clock.Profile) {
	const (
		accounts = 8
		initial  = 100
		workers  = 3
		shards   = 2
		replicas = 3
	)
	maxStep := 2 * profile.Epsilon()
	if maxStep < 200*time.Microsecond {
		maxStep = 200 * time.Microsecond
	}
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
		Audit: &audit.Options{
			SampleRate:    1,
			FlushInterval: 10 * time.Millisecond,
			// Profile ε + the largest chaos step a clock can carry between
			// re-disciplines, + drift slack. Anything above this bound is a
			// genuinely broken commit timestamp.
			Epsilon: 2*profile.Epsilon() + maxStep + 200*time.Microsecond,
		},
	})
	ctx := context.Background()
	acct := func(i int) []byte { return []byte(fmt.Sprintf("acct:%d", i)) }

	in.SetEnabled(false)
	setup := c.NewTxnClient(100)
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
	setup.BroadcastWatermark(ctx)
	in.SetEnabled(true)

	var (
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			txc := c.NewTxnClient(uint32(w + 1))
			r := rand.New(rand.NewSource(seed*100 + int64(w)))
			for n := 0; !stop.Load(); n++ {
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
				if n%10 == 9 {
					// Keep the watermark — and with it the auditor's cut —
					// moving while chaos is live, so windows close online.
					txc.BroadcastWatermark(ctx)
				}
			}
			txc.BroadcastWatermark(ctx)
		}(w)
	}

	groups := make([][]string, shards)
	for s := 0; s < shards; s++ {
		for r := 0; r < replicas; r++ {
			groups[s] = append(groups[s], Addr(s, r))
		}
	}
	ch := faults.NewChaos(in, faults.ChaosOptions{
		Seed:         seed,
		Groups:       groups,
		Clocks:       c.Clocks(),
		MaxClockStep: maxStep,
		Tick:         5 * time.Millisecond,
	})
	ch.Start()
	time.Sleep(300 * time.Millisecond)
	ch.Stop()
	in.Quiesce()
	stop.Store(true)
	wg.Wait()

	// The workload quiesced with windows already checked online; the drain
	// sweeps whatever the last broadcast left pending.
	rep := c.Auditor().Drain()
	s := c.Auditor().Stats()
	if !rep.Serializable {
		t.Fatalf("healthy chaos run convicted: %s (cycle %v)\nchaos: %v", rep.Anomaly, rep.Cycle, ch.Log())
	}
	if s.Convictions != 0 {
		t.Fatalf("healthy chaos run: %d online convictions\nartifacts: %+v", s.Convictions, c.Auditor().Artifacts())
	}
	if s.EpsilonViolations != 0 {
		t.Fatalf("healthy chaos run: %d ε violations (profile %s)\nartifacts: %+v",
			s.EpsilonViolations, profile.Name, c.Auditor().Artifacts())
	}
	if s.WindowsChecked == 0 {
		t.Fatal("no window was ever checked; the test exercised nothing")
	}
	t.Logf("%s: %d windows checked, %d txns evicted, %d unknowns retained, silent",
		profile.Name, s.WindowsChecked, s.Evicted, s.UnknownRetained)
}

// TestAuditTruncationEquivalence is the windowed-truncation correctness
// sweep: the same run is recorded twice — streamed through the windowed
// auditor and captured whole in a check.History — and the streaming verdict
// must match the offline checker's, on healthy runs (both serializable) and
// on mutated runs (both convict, each with a witness cycle). CHAOS_SEED and
// CHAOS_ROUNDS widen the sweep exactly as for TestStressChaosSweep.
func TestAuditTruncationEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence sweep skipped in -short mode")
	}
	base, rounds := chaosEnv(t, 1, 1)
	for seed := base; seed < base+int64(rounds); seed++ {
		for _, mutate := range []bool{false, true} {
			name := fmt.Sprintf("seed=%d/mutated=%v", seed, mutate)
			t.Run(name, func(t *testing.T) { truncationEquivalenceRound(t, seed, mutate) })
		}
	}
}

func truncationEquivalenceRound(t *testing.T, seed int64, mutate bool) {
	c := newTestCluster(t, ClusterOptions{
		Shards: 1, Replicas: 3,
		PreparedTimeout: 150 * time.Millisecond,
		Seed:            seed,
		Audit:           &audit.Options{SampleRate: 1, FlushInterval: 5 * time.Millisecond},
	})
	if mutate {
		for r := 0; r < 3; r++ {
			c.Server(Addr(0, r)).Manager().MutateSkipReadValidation(true)
		}
	}
	ctx := context.Background()
	hist := check.NewHistory()
	key := []byte("ctr")

	const workers = 4
	clients := make([]*milana.Client, workers)
	for w := range clients {
		clients[w] = c.NewTxnClient(uint32(300 + w))
		clients[w].SyncDecisions = true
		clients[w].SetHistory(hist) // offline record, alongside the auditor sink
	}
	maxPending := 0
	for round := 0; round < 4; round++ {
		var wg sync.WaitGroup
		for _, txc := range clients {
			wg.Add(1)
			go func(txc *milana.Client) {
				defer wg.Done()
				for i := 0; i < 15; i++ {
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
			}(txc)
		}
		wg.Wait()
		for _, txc := range clients {
			txc.BroadcastWatermark(ctx)
		}
		c.Auditor().Flush() // close a real mid-run window, not just the final drain
		if p := c.Auditor().PendingLen(); p > maxPending {
			maxPending = p
		}
	}

	streaming := c.Auditor().Drain()
	convicted := c.Auditor().Stats().Convictions > 0 || !streaming.Serializable
	offline := check.Serializability(hist.Txns())

	if convicted == offline.Serializable {
		t.Fatalf("verdicts diverge: streaming convicted=%v, offline %v", convicted, offline)
	}
	if mutate {
		if !convicted {
			t.Skipf("seed %d produced no anomaly this run (timing-dependent); sweep covers others", seed)
		}
		if offline.Serializable {
			t.Fatalf("streaming convicted but offline checker disagrees: %v", offline)
		}
		if len(offline.Cycle) == 0 {
			t.Fatalf("offline conviction without witness cycle: %v", offline)
		}
		cycleOK := len(streaming.Cycle) > 0
		for _, a := range c.Auditor().Artifacts() {
			if a.Kind == audit.KindConviction && len(a.Cycle) > 0 {
				cycleOK = true
			}
		}
		if !cycleOK {
			t.Fatal("streaming conviction without witness cycle in report or artifacts")
		}
	} else if convicted {
		t.Fatalf("healthy run convicted by streaming checker: %v / %v", streaming, offline)
	}
	// Bounded memory: watermark-driven eviction must keep the buffer within
	// a round's traffic, far below the whole history.
	if total := hist.Len(); maxPending >= total && total > 0 {
		t.Fatalf("auditor buffered the whole history (%d/%d): truncation never evicted", maxPending, total)
	}
	t.Logf("seed %d mutate=%v: offline %d txns, max pending %d", seed, mutate, hist.Len(), maxPending)
}

// TestAuditClusterCloseStopsGoroutines extends the clean-shutdown audit to
// the new background machinery: audit flusher and clock synchronizer must
// all exit on Cluster.Close — even when the caller forgets the
// StartSynchronizer stop function.
func TestAuditClusterCloseStopsGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	c, err := NewCluster(ClusterOptions{
		Shards: 1, Replicas: 3,
		ClockProfile:    clock.NTP,
		SkewServers:     true,
		LeaseDuration:   50 * time.Millisecond,
		PreparedTimeout: 100 * time.Millisecond,
		Audit:           &audit.Options{SampleRate: 1, FlushInterval: 5 * time.Millisecond},
	})
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
	txc.BroadcastWatermark(ctx)
	_ = c.StartSynchronizer() // stop func deliberately dropped: Close must cover it
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
