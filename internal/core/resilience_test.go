package core

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/transport"
)

// TestResilienceChaosAudit is the admission-enabled chaos matrix: admission
// control and propagated deadlines run under probabilistic message faults,
// structural chaos, amnesia kills, AND gray-failure slow events, across the
// three clock profiles, with the streaming auditor always on. It demands:
//
//	(a) zero serializability convictions and zero ε violations — shedding
//	    and retrying aborted transactions must never manufacture an anomaly;
//	(b) money conserved after the dust settles;
//	(c) admission actually shed: the budget is sized so three transfer
//	    workers, parked prepares and replication traffic cross the read
//	    and prepare thresholds (2 and 3 in flight).
func TestResilienceChaosAudit(t *testing.T) {
	chaosSweep(t, 1, func(t *testing.T, seed int64, p clock.Profile) {
		r := runBankChaos(t, bankChaos{
			seed: seed, profile: p,
			faults: true, window: 400 * time.Millisecond,
			kill: true, maxSlow: 3 * time.Millisecond,
			wal: true, audit: true,
			admission: &resilience.AdmissionOptions{
				MaxInflight:   4,
				MaxQueueDelay: 50 * time.Millisecond,
			},
			watermarks: true,
			settle:     15 * time.Second, // (b)
		})

		// (a) the streaming auditor stayed silent and the history is
		// serializable despite sheds and retries.
		r.auditorSilent()
		r.checkHistory()
		// (c) counts the live replicas only: a killed replica's restart
		// starts a fresh registry.
		sheds := shedTotal(mergedServerCounters(r.c, bankShards, bankReplicas))
		if sheds == 0 {
			r.fail("admission never shed: the matrix checked only the admit path")
		}
		t.Logf("%d transfers, %d sheds, slowed %d deliveries", r.transfers.Load(), sheds, r.in.Stats().Slowed)
	})
}

// mergedServerCounters folds every live replica's registry into one counter
// map — admission metrics live server-side (each server has its own
// registry, exactly as semeld exports them), not in the cluster-wide
// client registry.
func mergedServerCounters(c *Cluster, shards, replicas int) map[string]int64 {
	out := map[string]int64{}
	for s := 0; s < shards; s++ {
		for r := 0; r < replicas; r++ {
			srv := c.Server(Addr(s, r))
			if srv == nil {
				continue
			}
			for name, v := range srv.Metrics().Snapshot().Counters {
				out[name] += v
			}
		}
	}
	return out
}

func shedTotal(counters map[string]int64) int64 {
	var n int64
	for name, v := range counters {
		if len(name) >= len("admission_shed_total") && name[:len("admission_shed_total")] == "admission_shed_total" {
			n += v
		}
	}
	return n
}

// TestOverloadGoodputCurve is the graceful-degradation gate behind
// `make overload`: a cluster with admission control holds ≥70% of its
// pre-overload goodput when offered 4× the load with one gray-failed
// (slowed) backup, sheds reads before prepares, answers sheds fast with a
// RetryAfter hint, and never sheds control traffic. Opt-in via
// OVERLOAD_GATE because it is a wall-clock throughput comparison.
func TestOverloadGoodputCurve(t *testing.T) {
	if os.Getenv("OVERLOAD_GATE") == "" {
		t.Skip("set OVERLOAD_GATE=1 (make overload does) to run the goodput gate")
	}
	const (
		baseWorkers = 8
		overWorkers = 4 * baseWorkers
		maxInflight = 16
		measureFor  = 1500 * time.Millisecond
	)
	in := faults.New(faults.Options{Seed: 3})
	c := newTestCluster(t, ClusterOptions{
		Shards: 1, Replicas: 3,
		LeaseDuration: -1,
		Seed:          3,
		NetWrapper:    in.Wrap,
		Latency:       transport.LatencyModel{OneWay: 150 * time.Microsecond, Jitter: 50 * time.Microsecond},
		Admission: &resilience.AdmissionOptions{
			MaxInflight:   maxInflight,
			MaxQueueDelay: 20 * time.Millisecond,
		},
	})
	ctx := context.Background()
	key := func(w, i int) []byte { return []byte(fmt.Sprintf("k%d-%d", w, i%64)) }

	// run drives `workers` concurrent read-modify-write clients for dur and
	// returns goodput (committed txns/sec) plus the observed failure mix.
	run := func(workers int, dur time.Duration) (goodput float64, busyFails, otherFails int64) {
		var (
			commits atomic.Int64
			busy    atomic.Int64
			other   atomic.Int64
			wg      sync.WaitGroup
		)
		start := time.Now()
		stopAt := start.Add(dur)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				cl := c.NewTxnClient(uint32(1000 + w))
				for i := 0; time.Now().Before(stopAt); i++ {
					tctx, cancel := context.WithTimeout(ctx, time.Second)
					err := cl.RunTransaction(tctx, increment(tctx, key(w, i)))
					cancel()
					switch {
					case err == nil:
						commits.Add(1)
					case resilience.IsServerBusy(err):
						busy.Add(1)
						if hint, ok := resilience.RetryAfterFrom(err); !ok || hint <= 0 {
							t.Errorf("shed error carries no RetryAfter hint: %v", err)
							return
						}
					default:
						other.Add(1)
					}
				}
			}(w)
		}
		wg.Wait()
		return float64(commits.Load()) / time.Since(start).Seconds(), busy.Load(), other.Load()
	}

	// Both measurement windows are short wall-clock throughput samples, so a
	// scheduler hiccup can push a healthy cluster just under the floor; the
	// gate retries the whole baseline→overload comparison a couple of times
	// and passes if any attempt holds the floor. A real degradation bug
	// fails every attempt.
	const attempts = 3
	slowBackup := Addr(0, 2)
	defer in.ClearSlow(slowBackup)
	var (
		baseline, goodput     float64
		busyFails, otherFails int64
		preSheds              int64
		counters              map[string]int64
	)
	for a := 1; a <= attempts; a++ {
		// Pre-overload plateau.
		run(baseWorkers, 300*time.Millisecond) // warm up paths and pools
		baseline, _, _ = run(baseWorkers, measureFor)
		preSheds = shedTotal(mergedServerCounters(c, 1, 3))

		// 4× offered load with one gray-failed backup.
		in.SetSlow(slowBackup, 2*time.Millisecond)
		goodput, busyFails, otherFails = run(overWorkers, measureFor)
		in.ClearSlow(slowBackup)

		counters = mergedServerCounters(c, 1, 3)
		t.Logf("attempt %d: baseline %.0f txn/s (%d workers) → overload %.0f txn/s (%d workers, %s slowed); busy-failures=%d other=%d",
			a, baseline, baseWorkers, goodput, overWorkers, slowBackup, busyFails, otherFails)
		if goodput >= 0.70*baseline {
			break
		}
		if a == attempts {
			t.Fatalf("goodput collapsed under overload on all %d attempts: %.0f txn/s < 70%% of baseline %.0f txn/s", attempts, goodput, baseline)
		}
	}

	shedRead := counters[`admission_shed_total{pri="read"}`]
	shedPrepare := counters[`admission_shed_total{pri="prepare"}`]
	t.Logf("sheds read=%d prepare=%d (pre-overload %d)", shedRead, shedPrepare, preSheds)
	// The overload must have been real: admission actually shed work.
	if shedRead+shedPrepare == preSheds {
		t.Fatal("no request was shed; the test never drove the cluster past its knee")
	}
	// Strict priority: reads shed at half the depth prepares tolerate, so
	// under the same overload reads must shed at least as often.
	if shedRead < shedPrepare {
		t.Fatalf("priority inversion: %d reads shed < %d prepares shed", shedRead, shedPrepare)
	}
	// Control traffic is never shed — there is no counter for it at all.
	for name := range counters {
		if len(name) > len("admission_shed_total") && name[:len("admission_shed_total")] == "admission_shed_total" {
			if name != `admission_shed_total{pri="read"}` && name != `admission_shed_total{pri="prepare"}` {
				t.Fatalf("unexpected shed class %q — control traffic must never shed", name)
			}
		}
	}
}

// TestResilienceOverheadGate is the make-overhead gate for the idle-path
// cost of admission control on every server: < 2% of a bus
// read-modify-write transaction. Opt-in via RESILIENCE_OVERHEAD_GATE, same
// reasoning as the other wall-clock gates.
//
// The tight 2% bound is asserted on *accounted* cost: each admission class's
// warm fast path is benchmarked in this process, multiplied by how many times
// one transaction exercises it, and divided by the cluster's measured
// per-txn latency. A direct A/B throughput delta cannot carry a 2% assertion
// here — on a shared machine its run-to-run noise is ±3%, larger than the
// budget itself — so the wall-clock comparison below instead gets a loose
// bound that still catches structural regressions the per-component
// accounting would miss (an accidental goroutine or lock convoy per
// operation).
func TestResilienceOverheadGate(t *testing.T) {
	if os.Getenv("RESILIENCE_OVERHEAD_GATE") == "" {
		t.Skip("set RESILIENCE_OVERHEAD_GATE=1 (make overhead does) to run the overhead gate")
	}
	ctx := context.Background()
	const accountedBudget = 0.02
	const wallClockBudget = 0.10

	// How one runSequentialTxns transaction (1 Get + 1 Put, one shard,
	// three replicas) exercises admission, at most: get (read class) +
	// prepare (prepare class) classify and check queue delay; decision + 4
	// replication messages (2 backups × prepare, decision) are control
	// class.
	const (
		classifiedReqs = 2
		controlReqs    = 5
	)

	bench := func(name string, f func(b *testing.B)) float64 {
		ns := float64(testing.Benchmark(f).NsPerOp())
		t.Logf("%-28s %7.1f ns/op", name, ns)
		return ns
	}

	adm := resilience.NewAdmission(resilience.AdmissionOptions{})
	// A traced server-side context carries one value, the request record;
	// admission pays for looking it up, so the benchmark context does too.
	actx := obs.WithReq(ctx, obs.Req{TraceContext: obs.TraceContext{TraceID: 1, SpanID: 2, Sampled: true}})
	nsAdmitRead := bench("admit read/prepare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if adm.Admit(actx, resilience.PriRead) == nil {
				adm.Done()
			}
		}
	})
	nsAdmitCtl := bench("admit control", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if adm.Admit(actx, resilience.PriControl) == nil {
				adm.Done()
			}
		}
	})

	perTxn := classifiedReqs*nsAdmitRead + controlReqs*nsAdmitCtl

	// Denominator: the per-transaction latency of an admission-enabled
	// cluster, best of two runs (peaks are far less noisy than means).
	measure := func(withAdmission bool) float64 {
		opt := ClusterOptions{}
		if withAdmission {
			opt.Admission = &resilience.AdmissionOptions{}
		}
		c, err := NewCluster(opt)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		cl := c.NewTxnClient(1)
		runSequentialTxns(t, ctx, cl, 64) // warm pools and code paths
		const txns = 3000
		start := time.Now()
		runSequentialTxns(t, ctx, cl, txns)
		return float64(txns) / time.Since(start).Seconds()
	}
	measure(true) // burn-in: a fresh process's first run reads fast

	instr := measure(true)
	if v := measure(true); v > instr {
		instr = v
	}
	txnNs := 1e9 / instr
	accounted := perTxn / txnNs
	t.Logf("accounted %.0f ns per %.0f ns txn = %.2f%% (budget %.0f%%)",
		perTxn, txnNs, 100*accounted, 100*accountedBudget)
	if accounted > accountedBudget {
		t.Fatalf("idle admission control costs %.2f%% of a transaction, budget is %.0f%%",
			100*accounted, 100*accountedBudget)
	}

	// Loose wall-clock cross-check, interleaved base/instr and best-of so
	// machine drift hits both sides equally.
	base := measure(false)
	if v := measure(true); v > instr {
		instr = v
	}
	if v := measure(false); v > base {
		base = v
	}
	wall := 1 - instr/base
	t.Logf("wall-clock: base %.0f txn/s, admission %.0f txn/s, delta %.2f%% (budget %.0f%%)",
		base, instr, 100*wall, 100*wallClockBudget)
	if wall > wallClockBudget {
		t.Fatalf("admission control wall-clock cost %.2f%% exceeds structural-regression bound %.0f%%",
			100*wall, 100*wallClockBudget)
	}
}
