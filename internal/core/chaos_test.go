package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/check"
	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/flash"
	"repro/internal/milana"
	"repro/internal/resilience"
	"repro/internal/wire"
)

// This file holds the one chaos driver every seeded bank-transfer gate in
// this package runs (runBankChaos), and the counter workload the mutation
// gates share (increment, incrementRound).
//
// The bank: setup client 100 funds bankAccounts accounts with bankInitial
// each; bankWorkers workers (clients w+1, worker w seeded seed*100+w) move 5
// between random accounts while the chaos phase runs; then the network is
// quiesced, the workers stop, and the settling auditor (client 50) re-reads
// every account until the money is all there again. A bankChaos states what
// one gate adds to that.

const (
	bankAccounts = 8
	bankInitial  = 100
	bankWorkers  = 3
	bankShards   = 2
	bankReplicas = 3
)

// chaosProfiles are the clock profiles every chaos sweep crosses its seeds
// with.
var chaosProfiles = []clock.Profile{clock.NTP, clock.PTPHardware, clock.DTP}

// chaosEnv reads the CHAOS_SEED/CHAOS_ROUNDS sweep knobs shared by the
// seeded chaos tests: the first seed (default 1) and the number of seeds.
func chaosEnv(t *testing.T, defRounds int) (int64, int) {
	t.Helper()
	seed := int64(1)
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", s, err)
		}
		seed = v
	}
	if s := os.Getenv("CHAOS_ROUNDS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("bad CHAOS_ROUNDS %q: %v", s, err)
		}
		defRounds = v
	}
	return seed, defRounds
}

// chaosSweep runs round as subtest seed=<seed>/<profile> for every seed of
// the CHAOS_SEED/CHAOS_ROUNDS sweep (defRounds seeds by default) crossed with
// chaosProfiles. A failing seed replays deterministically: the injector's
// fault stream and the chaos event schedule are exact functions of the seed.
func chaosSweep(t *testing.T, defRounds int, round func(t *testing.T, seed int64, p clock.Profile)) {
	if testing.Short() {
		t.Skip("chaos sweep skipped in -short mode")
	}
	base, rounds := chaosEnv(t, defRounds)
	for seed := base; seed < base+int64(rounds); seed++ {
		for _, p := range chaosProfiles {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, p.Name), func(t *testing.T) { round(t, seed, p) })
		}
	}
}

// chaosMaxStep bounds the clock steps faults.Chaos injects: twice the
// profile's ε, and at least 200 µs so tight profiles get real upsets too.
func chaosMaxStep(p clock.Profile) time.Duration {
	return max(2*p.Epsilon(), 200*time.Microsecond)
}

// chaosEpsilon is the auditor's ε under chaos: the profile's ε, plus the
// largest step a clock can carry between re-disciplines, plus drift slack.
// Anything above it is a genuinely broken commit timestamp.
func chaosEpsilon(p clock.Profile) time.Duration {
	return 2*p.Epsilon() + chaosMaxStep(p) + 200*time.Microsecond
}

// bankChaos is what one chaos gate adds to the shared bank workload.
type bankChaos struct {
	seed    int64
	profile clock.Profile
	// faults puts a seeded injector (drops, duplicates, delays) under the
	// cluster and skews the servers' clocks; the default chaos phase then
	// runs faults.Chaos (partitions, freezes, clock steps) for window.
	faults bool
	window time.Duration
	// kill lets faults.Chaos amnesia-kill and revive replicas (counted in
	// bankRun.kills); maxSlow lets it slow them.
	kill    bool
	maxSlow time.Duration
	// wal gives every replica a write-ahead log; audit attaches the
	// streaming auditor, its ε widened by chaosEpsilon; admission gives
	// every server an admission controller.
	wal       bool
	audit     bool
	admission *resilience.AdmissionOptions
	// watermarks makes clients broadcast their watermarks: setup once
	// funded, every worker after each 10th transfer and on exit, the
	// auditor once settled.
	watermarks bool
	// receipts makes every writing transfer of worker w also write its
	// attempt number to ctr:w; bankRun.acked keeps the last acknowledged.
	receipts bool
	// chaos, when set, replaces the default chaos phase (runChaos). It runs
	// while the workers transfer.
	chaos func(r *bankRun)
	// settle bounds the auditor's wait for conservation; 0 skips it.
	settle time.Duration
}

// bankRun is one round of the bank workload, returned to its gate for the
// checks it adds.
type bankRun struct {
	t       *testing.T
	cfg     bankChaos
	c       *Cluster
	in      *faults.Injector // nil without faults
	ch      *faults.Chaos    // nil unless runChaos ran
	hist    *check.History   // every client's transactions
	auditor *milana.Client   // the settling client; nil without settle

	transfers, unknowns atomic.Int64
	acked               [bankWorkers]atomic.Int64 // last acknowledged receipt

	killMu sync.Mutex
	kills  map[string]int
}

// runBankChaos runs one round of the bank workload under cfg's chaos, up to
// and including the settle.
func runBankChaos(t *testing.T, cfg bankChaos) *bankRun {
	r := &bankRun{t: t, cfg: cfg, hist: check.NewHistory(), kills: map[string]int{}}
	opt := ClusterOptions{
		Shards: bankShards, Replicas: bankReplicas,
		ClockProfile:    cfg.profile,
		LeaseDuration:   40 * time.Millisecond,
		PreparedTimeout: 150 * time.Millisecond,
		Seed:            cfg.seed,
		Admission:       cfg.admission,
	}
	if cfg.faults {
		r.in = faults.New(faults.Options{
			Seed:         cfg.seed,
			PDropRequest: 0.02,
			PDropReply:   0.02,
			PDuplicate:   0.03,
			PDelay:       0.05,
			MaxDelay:     2 * time.Millisecond,
		})
		opt.SkewServers = true
		opt.NetWrapper = r.in.Wrap
	}
	if cfg.wal {
		opt.WALRoot = t.TempDir()
		opt.CheckpointEvery = 64 // small, so kills land between checkpoints too
	}
	if cfg.audit {
		opt.Audit = &audit.Options{SampleRate: 1, FlushInterval: 10 * time.Millisecond, Epsilon: chaosEpsilon(cfg.profile)}
	}
	r.c = newTestCluster(t, opt)
	ctx := context.Background()

	// Fund the accounts before faults are armed.
	setup := r.client(100)
	setup.SyncDecisions = true
	if r.in != nil {
		r.in.SetEnabled(false)
	}
	if err := setup.RunTransaction(ctx, fund(bankAccounts)); err != nil {
		t.Fatal(err)
	}
	if cfg.watermarks {
		setup.BroadcastWatermark(ctx)
	}
	if r.in != nil {
		r.in.SetEnabled(true)
	}

	var (
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	stopWorkers := func() {
		stop.Store(true)
		wg.Wait()
	}
	t.Cleanup(stopWorkers) // a chaos phase that fails must not leave them running
	for w := 0; w < bankWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.work(ctx, w, &stop)
		}()
	}
	if cfg.chaos != nil {
		cfg.chaos(r)
	} else {
		r.runChaos()
	}
	if r.in != nil {
		r.in.Quiesce()
	}
	stopWorkers()
	if cfg.settle > 0 {
		r.settle(ctx)
	}
	return r
}

// client builds a transaction client that records into the run's history.
func (r *bankRun) client(id uint32) *milana.Client {
	txc := r.c.NewTxnClient(id)
	txc.SetHistory(r.hist)
	return txc
}

// work is worker w's transfer loop. n numbers its attempts from 1.
func (r *bankRun) work(ctx context.Context, w int, stop *atomic.Bool) {
	txc := r.client(uint32(w + 1))
	rng := rand.New(rand.NewSource(r.cfg.seed*100 + int64(w)))
	for n := int64(1); !stop.Load(); n++ {
		from, to := rng.Intn(bankAccounts), rng.Intn(bankAccounts)
		if from == to {
			continue
		}
		wrote := false
		tctx, cancel := context.WithTimeout(ctx, time.Second)
		err := txc.RunTransaction(tctx, func(tx *milana.Txn) (err error) {
			wrote, err = transfer(tctx, tx, from, to)
			if err != nil || !wrote || !r.cfg.receipts {
				return err
			}
			return tx.Put(ctrKey(w), []byte(strconv.FormatInt(n, 10)))
		})
		cancel()
		// Transient errors under chaos are expected (lease expiry,
		// unreachable primary, timeouts); only the invariants matter.
		switch {
		case err == nil:
			r.transfers.Add(1)
			if wrote && r.cfg.receipts {
				r.acked[w].Store(n)
			}
		case errors.Is(err, milana.ErrUnknown):
			// The outcome is genuinely undecided at the client; the
			// sweepers will terminate it either way. It must NOT be
			// retried as if aborted.
			r.unknowns.Add(1)
		}
		if r.cfg.watermarks && n%10 == 0 {
			// Keep the watermark — and with it the auditor's cut — moving
			// while chaos is live, so windows close online.
			txc.BroadcastWatermark(ctx)
		}
	}
	if r.cfg.watermarks {
		txc.BroadcastWatermark(ctx)
	}
}

// runChaos is the default chaos phase: faults.Chaos disturbs the replica
// groups for the configured window, then Stop heals the network and
// revives every killed replica.
func (r *bankRun) runChaos() {
	groups := make([][]string, bankShards)
	for s := range groups {
		for rep := 0; rep < bankReplicas; rep++ {
			groups[s] = append(groups[s], Addr(s, rep))
		}
	}
	opt := faults.ChaosOptions{
		Seed:         r.cfg.seed,
		Groups:       groups,
		Clocks:       r.c.Clocks(),
		MaxClockStep: chaosMaxStep(r.cfg.profile),
		Tick:         5 * time.Millisecond,
		MaxSlow:      r.cfg.maxSlow,
	}
	if r.cfg.kill {
		opt.Kill = func(n string) error {
			if err := r.c.KillServer(n); err != nil {
				return err
			}
			r.killMu.Lock()
			r.kills[n]++
			r.killMu.Unlock()
			return nil
		}
		opt.Revive = r.c.RestartServer
	}
	r.ch = faults.NewChaos(r.in, opt)
	r.ch.Start()
	time.Sleep(r.cfg.window)
	r.ch.Stop()
}

// fail logs how to replay the round and what its chaos did, then fails it.
func (r *bankRun) fail(format string, args ...any) {
	r.t.Helper()
	r.t.Logf("replay: CHAOS_SEED=%d CHAOS_ROUNDS=1 go test -race -run '%s' ./internal/core/", r.cfg.seed, r.t.Name())
	if r.in != nil {
		r.t.Logf("injector: %+v", r.in.Stats())
	}
	if r.ch != nil {
		r.t.Logf("chaos schedule: %v", r.ch.Log())
	}
	if r.cfg.kill {
		r.killMu.Lock()
		r.t.Logf("kills: %v", r.kills)
		r.killMu.Unlock()
	}
	r.t.Fatalf(format, args...)
}

// settle audits until conservation holds: in-doubt transfers are being
// terminated by the sweepers in the background.
func (r *bankRun) settle(ctx context.Context) {
	r.auditor = r.client(50)
	deadline := time.Now().Add(r.cfg.settle)
	for {
		total := 0
		actx, cancel := context.WithTimeout(ctx, 2*time.Second)
		err := r.auditor.RunTransaction(actx, func(tx *milana.Txn) (err error) {
			total, err = bankTotal(actx, tx, bankAccounts)
			return err
		})
		cancel()
		if err == nil && total == bankAccounts*bankInitial {
			break
		}
		if time.Now().After(deadline) {
			r.dumpAccounts()
			r.fail("money not conserved after chaos: total=%d want=%d err=%v (%d transfers, %d unknown)",
				total, bankAccounts*bankInitial, err, r.transfers.Load(), r.unknowns.Load())
		}
		time.Sleep(25 * time.Millisecond)
	}
	if r.cfg.watermarks {
		r.auditor.BroadcastWatermark(ctx)
	}
}

// dumpAccounts logs every account's latest version on each replica of its
// shard; * marks the primary.
func (r *bankRun) dumpAccounts() {
	for i := 0; i < bankAccounts; i++ {
		key := acct(i)
		shard := int(r.c.Dir.ShardFor(key))
		line := fmt.Sprintf("acct:%d shard%d:", i, shard)
		for rep := 0; rep < bankReplicas; rep++ {
			srv := r.c.Server(Addr(shard, rep))
			if srv == nil {
				line += fmt.Sprintf("  r%d down", rep)
				continue
			}
			val, ver, found, _ := srv.Backend().Latest(key)
			role := ""
			if srv.IsPrimary() {
				role = "*"
			}
			line += fmt.Sprintf("  r%d%s=%s@%d(%v)", rep, role, val, ver.Ticks, found)
		}
		r.t.Log(line)
	}
}

// checkHistory demands that the recorded history is serializable —
// conservation alone would miss reorderings that happen to preserve sums —
// and that at least one transfer committed.
func (r *bankRun) checkHistory() {
	r.t.Helper()
	rep := check.Serializability(r.hist.Txns())
	if !rep.Serializable {
		r.fail("history not serializable: %v", rep)
	}
	com, abt, unk := r.hist.Outcomes()
	r.t.Logf("%v; outcomes committed=%d aborted=%d unknown=%d", rep, com, abt, unk)
	if r.in != nil {
		r.t.Logf("faults=%+v", r.in.Stats())
	}
	if r.transfers.Load() == 0 {
		r.fail("no transfer ever committed; chaos too aggressive to be meaningful")
	}
}

// auditorSilent drains the streaming auditor and demands silence: no
// conviction, online or in the drain, and no ε violation.
func (r *bankRun) auditorSilent() audit.Summary {
	r.t.Helper()
	rep := r.c.Auditor().Drain()
	s := r.c.Auditor().Stats()
	if !rep.Serializable {
		r.fail("chaos run convicted: %s (cycle %v)", rep.Anomaly, rep.Cycle)
	}
	if s.Convictions != 0 {
		r.fail("%d online convictions\nartifacts: %+v", s.Convictions, r.c.Auditor().Artifacts())
	}
	if s.EpsilonViolations != 0 {
		r.fail("%d ε violations (profile %s)\nartifacts: %+v",
			s.EpsilonViolations, r.cfg.profile.Name, r.c.Auditor().Artifacts())
	}
	return s
}

func acct(i int) []byte { return []byte(fmt.Sprintf("acct:%d", i)) }

func ctrKey(w int) []byte { return []byte(fmt.Sprintf("ctr:%d", w)) }

// fund is the setup transaction: accounts accounts of bankInitial each.
func fund(accounts int) func(*milana.Txn) error {
	return func(tx *milana.Txn) error {
		for i := 0; i < accounts; i++ {
			if err := tx.Put(acct(i), []byte(strconv.Itoa(bankInitial))); err != nil {
				return err
			}
		}
		return nil
	}
}

// transfer moves 5 from account from to account to, unless from holds less
// (a read-only commit); wrote reports whether it moved the money.
func transfer(ctx context.Context, tx *milana.Txn, from, to int) (wrote bool, err error) {
	fb, _, err := tx.Get(ctx, acct(from))
	if err != nil {
		return false, err
	}
	tb, _, err := tx.Get(ctx, acct(to))
	if err != nil {
		return false, err
	}
	f, _ := strconv.Atoi(string(fb))
	g, _ := strconv.Atoi(string(tb))
	if f < 5 {
		return false, nil
	}
	if err := tx.Put(acct(from), []byte(strconv.Itoa(f-5))); err != nil {
		return false, err
	}
	if err := tx.Put(acct(to), []byte(strconv.Itoa(g+5))); err != nil {
		return false, err
	}
	return true, nil
}

// bankTotal sums the first accounts accounts; a missing one is an error.
func bankTotal(ctx context.Context, tx *milana.Txn, accounts int) (int, error) {
	total := 0
	for i := 0; i < accounts; i++ {
		raw, found, err := tx.Get(ctx, acct(i))
		if err != nil {
			return total, err
		}
		if !found {
			return total, fmt.Errorf("account %d missing after chaos", i)
		}
		n, _ := strconv.Atoi(string(raw))
		total += n
	}
	return total, nil
}

// counterKey is the one key the counter workload increments.
var counterKey = []byte("ctr")

// increment is the read-modify-write body of every counter workload: read
// key (absent reads as 0) and write it back plus one.
func increment(ctx context.Context, key []byte) func(*milana.Txn) error {
	return func(tx *milana.Txn) error {
		raw, _, err := tx.Get(ctx, key)
		if err != nil {
			return err
		}
		n, _ := strconv.Atoi(string(raw))
		return tx.Put(key, []byte(strconv.Itoa(n+1)))
	}
}

// newCounterCluster builds the one-shard cluster the counter gates share;
// with mutate, every replica skips read-set validation, so concurrent
// increments lose updates.
func newCounterCluster(t *testing.T, seed int64, ao *audit.Options, mutate bool) *Cluster {
	c := newTestCluster(t, ClusterOptions{
		Shards: 1, Replicas: 3,
		PreparedTimeout: 150 * time.Millisecond,
		Seed:            seed,
		Audit:           ao,
	})
	if mutate {
		for r := 0; r < 3; r++ {
			c.Server(Addr(0, r)).Manager().MutateSkipReadValidation(true)
		}
	}
	return c
}

// counterClients builds four synchronous-decision clients, ids firstID
// onwards, recording into hist when it is non-nil.
func counterClients(c *Cluster, firstID uint32, hist *check.History) []*milana.Client {
	clients := make([]*milana.Client, 4)
	for w := range clients {
		clients[w] = c.NewTxnClient(firstID + uint32(w))
		clients[w].SyncDecisions = true
		clients[w].SetHistory(hist)
	}
	return clients
}

// incrementRound has every client increment counterKey perClient times at
// once, each attempt bounded by a second and its outcome ignored: the
// counter gates want contention, not progress. With an auditor, every
// client then broadcasts its watermark and the auditor flushes, closing a
// real mid-run window.
func incrementRound(ctx context.Context, c *Cluster, clients []*milana.Client, perClient int) {
	var wg sync.WaitGroup
	for _, txc := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				tctx, cancel := context.WithTimeout(ctx, time.Second)
				_ = txc.RunTransaction(tctx, increment(tctx, counterKey))
				cancel()
			}
		}()
	}
	wg.Wait()
	if c.Auditor() != nil {
		for _, txc := range clients {
			txc.BroadcastWatermark(ctx)
		}
		c.Auditor().Flush()
	}
}

// TestChaosFailoverUnderLoad runs the bank while killing and promoting
// primaries, then checks the two invariants that must survive any
// fail-stop schedule: no committed money is lost (conservation) and the
// recorded history is serializable.
func TestChaosFailoverUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runBankChaos(t, bankChaos{seed: seed, chaos: killPrimaries, settle: 8 * time.Second}).checkHistory()
		})
	}
}

// killPrimaries kills each shard's primary once, in a seeded order. (A
// second kill on the same shard would drop it below a majority of its
// original group, and promotion would — correctly — refuse; see
// TestPromoteNeedsMajority.)
func killPrimaries(r *bankRun) {
	rng := rand.New(rand.NewSource(r.cfg.seed))
	order := []int{0, 1}
	if rng.Intn(2) == 0 {
		order[0], order[1] = order[1], order[0]
	}
	for round, shard := range order {
		time.Sleep(60 * time.Millisecond)
		fctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		promoted, err := r.c.KillPrimary(fctx, clusterShard(shard))
		cancel()
		if err != nil {
			r.fail("round %d: failover of shard %d: %v", round, shard, err)
		}
		r.t.Logf("round %d: promoted %s on shard %d (transfers so far: %d)", round, promoted, shard, r.transfers.Load())
	}
	time.Sleep(100 * time.Millisecond)
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
	hist := check.NewHistory()
	setup := c.NewTxnClient(100)
	setup.SetHistory(hist)
	setup.SyncDecisions = true
	if err := setup.RunTransaction(ctx, fund(accounts)); err != nil {
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
				_, err := transfer(tctx, tx, from, to)
				return err
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
		err := auditor.RunTransaction(actx, func(tx *milana.Txn) (err error) {
			total, err = bankTotal(actx, tx, accounts)
			return err
		})
		cancel()
		if err == nil && total == accounts*bankInitial {
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
