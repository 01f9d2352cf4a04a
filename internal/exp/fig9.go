package exp

import (
	"context"
	"fmt"
	"time"

	"repro/internal/centiman"
	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/retwis"
)

// Fig9Row is one point of Figure 9: throughput of MILANA vs Centiman under
// increasing contention, with Centiman's local-validation success fraction.
type Fig9Row struct {
	System        string // "MILANA" or "Centiman"
	Alpha         float64
	ThroughputTPS float64
	AbortRate     float64
	// LocalValidatedPct is the fraction of read-only transactions that
	// validated locally (always 100% for MILANA; drops with contention
	// for Centiman).
	LocalValidatedPct float64
}

// RunFigure9 reproduces Figure 9 (§5.3): MILANA's always-local read-only
// validation vs Centiman's watermark-gated local validation, on 3 shards
// (MFTL, no replication), 30 client instances, 75% read-only Retwis, with
// watermarks disseminated every 1,000 transactions.
func RunFigure9(ctx context.Context, cfg Config) ([]Fig9Row, error) {
	duration := cfg.duration(3*time.Second, 80*time.Millisecond)
	users := cfg.users(2400, 200)
	instances := 30
	alphas := []float64{0.4, 0.6, 0.8}
	if cfg.Quick {
		instances = 6
		alphas = []float64{0.8}
	}
	var rows []Fig9Row
	for _, alpha := range alphas {
		mRow, err := runFig9Milana(ctx, cfg, alpha, users, instances, duration)
		if err != nil {
			return nil, fmt.Errorf("fig9 milana α=%.1f: %w", alpha, err)
		}
		cfg.progress("fig9 MILANA α=%.1f: %.0f txn/s abort %.2f%%", alpha, mRow.ThroughputTPS, 100*mRow.AbortRate)
		rows = append(rows, mRow)
		cRow, err := runFig9Centiman(ctx, cfg, alpha, users, instances, duration)
		if err != nil {
			return nil, fmt.Errorf("fig9 centiman α=%.1f: %w", alpha, err)
		}
		cfg.progress("fig9 Centiman α=%.1f: %.0f txn/s abort %.2f%% LV %.1f%%", alpha, cRow.ThroughputTPS, 100*cRow.AbortRate, cRow.LocalValidatedPct)
		rows = append(rows, cRow)
	}
	return rows, nil
}

// disseminateEvery scales the paper's 1,000-transaction watermark cadence
// to this harness: time dilation cuts per-client transaction rates ~25×,
// so the same *temporal* dissemination interval corresponds to ~25× fewer
// transactions between posts.
func disseminateEvery(cfg Config) int {
	if cfg.Quick {
		return 40
	}
	n := 1000 / int(cfg.dilation())
	if n < 1 {
		n = 1
	}
	return n
}

func fig9Cluster(cfg Config) (*core.Cluster, error) {
	return core.NewCluster(core.ClusterOptions{
		Shards: 3, Replicas: 1,
		Backend:             core.BackendMFTL,
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
}

func runFig9Milana(ctx context.Context, cfg Config, alpha float64, users, instances int, duration time.Duration) (Fig9Row, error) {
	c, err := fig9Cluster(cfg)
	if err != nil {
		return Fig9Row{}, err
	}
	defer c.Close()
	res, err := runMilana(ctx, c, milanaRun{
		Instances: instances, Users: users, Alpha: alpha,
		Mix: retwis.ReadHeavyMix, Duration: duration,
		LocalValidation: true, WatermarkEvery: disseminateEvery(cfg),
		Seed: cfg.Seed,
	})
	if err != nil {
		return Fig9Row{}, err
	}
	return Fig9Row{
		System: "MILANA", Alpha: alpha,
		ThroughputTPS:     res.ThroughputTPS,
		AbortRate:         res.abortRate(),
		LocalValidatedPct: 100, // every read-only transaction validates locally (§4.3)
	}, nil
}

func runFig9Centiman(ctx context.Context, cfg Config, alpha float64, users, instances int, duration time.Duration) (Fig9Row, error) {
	c, err := fig9Cluster(cfg)
	if err != nil {
		return Fig9Row{}, err
	}
	defer c.Close()
	for s := 0; s < 3; s++ {
		c.Bus.Register(fmt.Sprintf("validator/%d", s), centiman.NewValidator())
	}
	vaddr := func(s cluster.ShardID) string { return fmt.Sprintf("validator/%d", s) }
	board := centiman.NewBoard()

	if err := populate(ctx, c, users); err != nil {
		return Fig9Row{}, err
	}
	clients := make([]*centiman.Client, instances)
	sessions := make([]retwis.Session[*centiman.Txn], instances)
	for i := range clients {
		cl := centiman.NewClient(c.ClientClock(uint32(i+1)), c.Bus, c.Dir, board, vaddr)
		cl.DisseminateEvery = disseminateEvery(cfg)
		clients[i] = cl
		sessions[i] = retwis.Session[*centiman.Txn]{RunTransaction: cl.RunTransaction}
	}
	stopSync := c.StartSynchronizer()
	defer stopSync()

	run, err := retwis.Run(ctx, retwis.Spec{
		Users: users, Alpha: alpha, Mix: retwis.ReadHeavyMix, Seed: cfg.Seed,
		Duration: duration,
	}, sessions)
	if err != nil {
		return Fig9Row{}, err
	}
	var total centiman.Stats
	for _, cl := range clients {
		st := cl.Stats()
		total.Committed += st.Committed
		total.Aborted += st.Aborted
		total.LocalValidated += st.LocalValidated
		total.ReadOnly += st.ReadOnly
		total.ReadOnlyRemotely += st.ReadOnlyRemotely
	}
	row := Fig9Row{
		System: "Centiman", Alpha: alpha,
		ThroughputTPS: float64(total.Committed) / run.Elapsed.Seconds(),
	}
	if att := total.Committed + total.Aborted; att > 0 {
		row.AbortRate = float64(total.Aborted) / float64(att)
	}
	if total.ReadOnly > 0 {
		row.LocalValidatedPct = 100 * float64(total.LocalValidated) / float64(total.ReadOnly)
	}
	return row, nil
}
