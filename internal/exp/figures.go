package exp

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/flash"
	"repro/internal/retwis"
	"repro/internal/semel"
	"repro/internal/transport"
	"repro/internal/wire"
)

// intraVMLatency models the in-host RPC cost of the paper's single-VM
// experiments; clusterLatency models the testbed LAN.
var (
	intraVMLatency = transport.LatencyModel{OneWay: 10 * time.Microsecond, Jitter: 3 * time.Microsecond}
	clusterLatency = transport.LatencyModel{OneWay: 50 * time.Microsecond, Jitter: 10 * time.Microsecond}
)

// ---- Figure 1: impact of clock skew on a lagging writer ----

// Fig1Row quantifies Figure 1's scenario: with two clients updating a
// shared object, the client with the lagging clock is rejected until real
// time passes its skew ε; the penalty grows with ε / t_w.
type Fig1Row struct {
	Epsilon time.Duration
	// RejectionRate is the fraction of the lagging client's write
	// attempts rejected as stale.
	RejectionRate float64
	// AvgSuccessLatency is the lagging client's average time from first
	// attempt to an accepted write.
	AvgSuccessLatency time.Duration
	// Attempts is the lagging client's write attempts: the sample
	// RejectionRate is taken over.
	Attempts int64
}

// RunFigure1 measures the lagging-writer penalty for a sweep of skews ε
// around the system's write latency t_w.
func RunFigure1(ctx context.Context, cfg Config) ([]Fig1Row, error) {
	// The quick window must hold enough attempts for RejectionRate to mean
	// something: 50 ms gave the 2 ms-skew row 21–26 attempts and rates of
	// 0.35–0.56 (0.22 once, beside a loaded suite); 500 ms gives it ten
	// times the sample.
	duration := cfg.duration(3*time.Second, 500*time.Millisecond)
	epsilons := []time.Duration{0, 100 * time.Microsecond, 500 * time.Microsecond, 2 * time.Millisecond, 8 * time.Millisecond}
	if cfg.Quick {
		epsilons = []time.Duration{0, 2 * time.Millisecond}
	}
	var rows []Fig1Row
	for _, eps := range epsilons {
		row, err := runFig1Point(ctx, cfg, cfg.dilate(eps), duration, cfg.Seed)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runFig1Point(ctx context.Context, cfg Config, eps time.Duration, duration time.Duration, seed int64) (Fig1Row, error) {
	c, err := core.NewCluster(core.ClusterOptions{
		Shards: 1, Replicas: 1,
		Latency:             cfg.latency(transport.LatencyModel{OneWay: 100 * time.Microsecond, Jitter: 10 * time.Microsecond}),
		LeaseDuration:       -1,
		AntiEntropyInterval: -1,
		Seed:                seed,
	})
	if err != nil {
		return Fig1Row{}, err
	}
	defer c.Close()

	key := []byte("shared")
	leader := c.NewSemelClient(1)
	lagClk := clock.NewSkewed(c.Source, 2, -eps, 0)
	laggard := semel.NewClient(lagClk, c.Bus, c.Dir)

	runCtx, cancel := context.WithTimeout(ctx, duration)
	defer cancel()

	// The leading client updates the shared object at a steady period.
	go func() {
		for runCtx.Err() == nil {
			_, _ = leader.Put(runCtx, key, []byte("lead"))
			time.Sleep(cfg.dilate(400 * time.Microsecond))
		}
	}()

	var attempts, rejections, successes int64
	var latencySum time.Duration
	for runCtx.Err() == nil {
		start := time.Now()
		for runCtx.Err() == nil {
			_, err := laggard.Put(runCtx, key, []byte("lag"))
			attempts++
			if err == nil {
				successes++
				latencySum += time.Since(start)
				break
			}
			if !errors.Is(err, semel.ErrRejected) {
				break
			}
			rejections++
		}
	}
	row := Fig1Row{Epsilon: eps, Attempts: attempts}
	if attempts > 0 {
		row.RejectionRate = float64(rejections) / float64(attempts)
	}
	if successes > 0 {
		row.AvgSuccessLatency = latencySum / time.Duration(successes)
	}
	return row, nil
}

// ---- Figure 6: abort rate vs clients, single- vs multi-version FTL ----

// Fig6Row is one point of Figure 6.
type Fig6Row struct {
	Backend   string // "SFTL" or "MFTL"
	Alpha     float64
	Clients   int
	AbortRate float64
}

// RunFigure6 reproduces Figure 6: Retwis abort rates on one storage node
// (no replication, no clock skew) for the single-version FTL vs the
// multi-version FTL, varying client count and the contention parameter α.
func RunFigure6(ctx context.Context, cfg Config) ([]Fig6Row, error) {
	duration := cfg.duration(2500*time.Millisecond, 60*time.Millisecond)
	users := cfg.users(1500, 150)
	clientCounts := []int{4, 8, 12, 16, 20}
	alphas := []float64{0.6, 0.9}
	if cfg.Quick {
		clientCounts = []int{4}
		alphas = []float64{0.9}
	}
	var rows []Fig6Row
	for _, backendKind := range []string{core.BackendSFTL, core.BackendMFTL} {
		name := "SFTL"
		if backendKind == core.BackendMFTL {
			name = "MFTL"
		}
		for _, alpha := range alphas {
			for _, n := range clientCounts {
				geo := clusterFlashGeometry
				if backendKind == core.BackendSFTL {
					// The single-version baseline stores one key per
					// logical page; give it room for the population.
					geo.BlocksPerChannel = 192
				}
				c, err := core.NewCluster(core.ClusterOptions{
					Shards: 1, Replicas: 1,
					Backend:             backendKind,
					RealFlashTiming:     !cfg.Quick,
					Timing:              cfg.flashTiming(),
					PackTimeout:         packFor(cfg),
					Geometry:            geo,
					Latency:             cfg.latency(intraVMLatency),
					LeaseDuration:       -1,
					AntiEntropyInterval: -1,
					Seed:                cfg.Seed,
				})
				if err != nil {
					return nil, err
				}
				res, err := runMilana(ctx, c, milanaRun{
					Instances: n, Users: users, Alpha: alpha,
					Mix: retwis.DefaultMix, Duration: duration,
					LocalValidation: true, WatermarkEvery: 100,
					Seed: cfg.Seed,
				})
				c.Close()
				if err != nil {
					return nil, fmt.Errorf("fig6 %s α=%.1f n=%d: %w", name, alpha, n, err)
				}
				cfg.progress("fig6 %s α=%.1f n=%d: abort %.2f%%", name, alpha, n, 100*res.abortRate())
				rows = append(rows, Fig6Row{Backend: name, Alpha: alpha, Clients: n, AbortRate: res.abortRate()})
			}
		}
	}
	return rows, nil
}

func packFor(cfg Config) time.Duration {
	if cfg.Quick {
		return 100 * time.Microsecond
	}
	return cfg.dilate(time.Millisecond)
}

// clusterFlashGeometry sizes per-replica devices so the Retwis population
// plus its retained version window fits comfortably (GC stays background).
var clusterFlashGeometry = flash.Geometry{Channels: 4, BlocksPerChannel: 64, PagesPerBlock: 16, PageSize: 2048}

// ---- Figure 7: PTP vs NTP abort rates across storage backends ----

// Fig7Row is one point of Figure 7.
type Fig7Row struct {
	Profile   string
	Backend   string // DRAM / VFTL / MFTL
	Alpha     float64
	AbortRate float64
	// AbortsByReason supports the ablation discussion in EXPERIMENTS.md.
	AbortsByReason [wire.NumAbortReasons]int64
}

// RunFigure7 reproduces Figure 7: MILANA transaction abort rates under PTP
// vs NTP client-clock synchronization, for the DRAM, VFTL and MFTL
// backends, with 1 primary + 2 backups and 20 client instances retrying
// aborted transactions with the same keys.
func RunFigure7(ctx context.Context, cfg Config) ([]Fig7Row, error) {
	duration := cfg.duration(3*time.Second, 80*time.Millisecond)
	users := cfg.users(5000, 150)
	instances := 20
	alphas := []float64{0.4, 0.6, 0.8}
	backends := []string{core.BackendDRAM, core.BackendVFTL, core.BackendMFTL}
	if cfg.Quick {
		instances = 6
		alphas = []float64{0.8}
		backends = []string{core.BackendDRAM, core.BackendMFTL}
	}
	profiles := []clock.Profile{clock.PTPSoftware, clock.NTP}

	var rows []Fig7Row
	for _, prof := range profiles {
		for _, backend := range backends {
			for _, alpha := range alphas {
				c, err := core.NewCluster(core.ClusterOptions{
					Shards: 1, Replicas: 3,
					Backend:             backend,
					RealFlashTiming:     !cfg.Quick,
					Timing:              cfg.flashTiming(),
					PackTimeout:         packFor(cfg),
					Geometry:            clusterFlashGeometry,
					Latency:             cfg.latency(clusterLatency),
					ClockProfile:        cfg.clockProfile(prof),
					LeaseDuration:       -1,
					AntiEntropyInterval: -1,
					Seed:                cfg.Seed + int64(alpha*100),
				})
				if err != nil {
					return nil, err
				}
				res, err := runMilana(ctx, c, milanaRun{
					Instances: instances, Users: users, Alpha: alpha,
					Mix: retwis.DefaultMix, Duration: duration,
					LocalValidation: true, WatermarkEvery: 100,
					Seed: cfg.Seed,
				})
				c.Close()
				if err != nil {
					return nil, fmt.Errorf("fig7 %s/%s α=%.1f: %w", prof.Name, backend, alpha, err)
				}
				cfg.progress("fig7 %s/%s α=%.1f: abort %.2f%% (%d attempts)", prof.Name, backend, alpha, 100*res.abortRate(), res.Attempts)
				rows = append(rows, Fig7Row{Profile: prof.Name, Backend: backendName(backend), Alpha: alpha, AbortRate: res.abortRate(), AbortsByReason: res.AbortsByReason})
			}
		}
	}
	return rows, nil
}

func backendName(kind string) string {
	switch kind {
	case core.BackendDRAM:
		return "DRAM"
	case core.BackendVFTL:
		return "VFTL"
	case core.BackendMFTL:
		return "MFTL"
	case core.BackendSFTL:
		return "SFTL"
	default:
		return kind
	}
}

// ---- Figure 8: latency vs throughput with and without local validation ----

// Fig8Row is one point of Figure 8.
type Fig8Row struct {
	Backend         string
	LocalValidation bool
	Clients         int
	ThroughputTPS   float64
	AvgLatency      time.Duration
	// Latency percentiles of successful transactions, from the run's
	// obs latency histogram.
	P50 time.Duration
	P95 time.Duration
	P99 time.Duration
	// StageP99 attributes the tail: p99 of each stage-ledger stage with
	// samples, so a point's latency decomposes into where it was spent.
	StageP99 map[string]time.Duration
}

// RunFigure8 reproduces Figure 8: average transaction latency vs throughput
// for the 75%-read-only Retwis mix over 3 shards × 3 replicas, comparing
// the three storage backends with client-local validation on and off.
func RunFigure8(ctx context.Context, cfg Config) ([]Fig8Row, error) {
	duration := cfg.duration(3*time.Second, 80*time.Millisecond)
	users := cfg.users(2400, 200)
	clientCounts := []int{4, 8, 16, 24, 32}
	backends := []string{core.BackendDRAM, core.BackendVFTL, core.BackendMFTL}
	if cfg.Quick {
		clientCounts = []int{6}
		backends = []string{core.BackendMFTL}
	}
	var rows []Fig8Row
	for _, backend := range backends {
		for _, lv := range []bool{true, false} {
			for _, n := range clientCounts {
				c, err := core.NewCluster(core.ClusterOptions{
					Shards: 3, Replicas: 3,
					Backend:             backend,
					RealFlashTiming:     !cfg.Quick,
					Timing:              cfg.flashTiming(),
					PackTimeout:         packFor(cfg),
					Geometry:            clusterFlashGeometry,
					Latency:             cfg.latency(clusterLatency),
					ClockProfile:        cfg.clockProfile(clock.PTPSoftware),
					LeaseDuration:       -1,
					AntiEntropyInterval: -1,
					Seed:                cfg.Seed,
				})
				if err != nil {
					return nil, err
				}
				res, err := runMilana(ctx, c, milanaRun{
					Instances: n, Users: users, Alpha: 0.6,
					Mix: retwis.ReadHeavyMix, Duration: duration,
					LocalValidation: lv, WatermarkEvery: 100,
					Seed: cfg.Seed,
				})
				c.Close()
				if err != nil {
					return nil, fmt.Errorf("fig8 %s lv=%v n=%d: %w", backend, lv, n, err)
				}
				cfg.progress("fig8 %s lv=%v n=%d: %.0f txn/s, %v", backend, lv, n, res.ThroughputTPS, res.AvgLatency)
				p50, p95, p99, _ := res.Latency.Percentiles()
				row := Fig8Row{
					Backend:         backendName(backend),
					LocalValidation: lv,
					Clients:         n,
					ThroughputTPS:   res.ThroughputTPS,
					AvgLatency:      res.AvgLatency,
					P50:             time.Duration(p50),
					P95:             time.Duration(p95),
					P99:             time.Duration(p99),
				}
				if len(res.Stages) > 0 {
					row.StageP99 = make(map[string]time.Duration, len(res.Stages))
					for stage, h := range res.Stages {
						row.StageP99[stage] = time.Duration(h.Quantile(0.99))
					}
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}
