package exp

import (
	"context"
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/retwis"
	"repro/internal/wire"
)

// AblationRow is one point of the clock-synchronization ablation: the same
// workload under successively tighter synchronization technologies.
type AblationRow struct {
	Profile       string
	MeanSkew      time.Duration // undilated
	AbortRate     float64
	ThroughputTPS float64
	// Aborts is the number of aborts SkewAbortPct is a share of.
	Aborts int64
	// SkewAbortPct is the fraction of aborts attributable to the
	// clock-skew-sensitive branches of Algorithm 1 (late-write rules).
	SkewAbortPct float64
	// ProvenanceSkewPct is the server-side abort-provenance view: the
	// fraction of validation aborts whose losing margin fell inside the
	// profile's 2·Epsilon skew window (milana_abort_provenance_total).
	// Unlike SkewAbortPct — which counts every late-write abort — this
	// only counts the near-misses better clocks would have reordered.
	ProvenanceSkewPct float64
}

// RunSkewAblation extends Figure 7 along the axis §2.1 sketches: the paper
// observes that "the bounds on clock skew continue to tighten" (PTP
// hardware timestamping ≈1 µs, DTP ≈150 ns). This ablation runs the
// high-contention Retwis point on the MFTL backend under NTP, software PTP,
// hardware PTP, DTP, and perfectly synchronized clocks, showing where
// tighter clocks stop paying off: once skew falls below the device write
// time, aborts are pure contention.
func RunSkewAblation(ctx context.Context, cfg Config) ([]AblationRow, error) {
	// The quick window must hold enough aborts for SkewAbortPct to mean
	// something: 80 ms gave the perfect-clock row 3–9 aborts and shares of
	// 0–67 %, 800 ms gives it 36–148 aborts and 7–25 %.
	duration := cfg.duration(3*time.Second, 800*time.Millisecond)
	users := cfg.users(5000, 150)
	instances := 20
	profiles := []clock.Profile{clock.NTP, clock.PTPSoftware, clock.PTPHardware, clock.DTP, clock.PerfectProfile}
	if cfg.Quick {
		instances = 6
		profiles = []clock.Profile{clock.NTP, clock.PerfectProfile}
	}
	var rows []AblationRow
	for _, prof := range profiles {
		c, err := core.NewCluster(core.ClusterOptions{
			Shards: 1, Replicas: 3,
			Backend:             core.BackendMFTL,
			RealFlashTiming:     !cfg.Quick,
			Timing:              cfg.flashTiming(),
			PackTimeout:         packFor(cfg),
			Geometry:            clusterFlashGeometry,
			Latency:             cfg.latency(clusterLatency),
			ClockProfile:        cfg.clockProfile(prof),
			LeaseDuration:       -1,
			AntiEntropyInterval: -1,
			Seed:                cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		res, err := runMilana(ctx, c, milanaRun{
			Instances: instances, Users: users, Alpha: 0.8,
			Mix: retwis.DefaultMix, Duration: duration,
			LocalValidation: true, WatermarkEvery: 100,
			Seed: cfg.Seed,
		})
		snap := c.MergedSnapshot()
		c.Close()
		if err != nil {
			return nil, fmt.Errorf("ablation %s: %w", prof.Name, err)
		}
		row := AblationRow{
			Profile:       prof.Name,
			MeanSkew:      prof.MeanAbsOffset,
			AbortRate:     res.abortRate(),
			ThroughputTPS: res.ThroughputTPS,
		}
		for _, n := range res.AbortsByReason {
			row.Aborts += n
		}
		if row.Aborts > 0 {
			skew := res.AbortsByReason[wire.AbortLateWriteRead] + res.AbortsByReason[wire.AbortLateWrite]
			row.SkewAbortPct = 100 * float64(skew) / float64(row.Aborts)
		}
		provSkew := snap.Counters[`milana_abort_provenance_total{cause="skew"}`]
		provConflict := snap.Counters[`milana_abort_provenance_total{cause="conflict"}`]
		if prov := provSkew + provConflict; prov > 0 {
			row.ProvenanceSkewPct = 100 * float64(provSkew) / float64(prov)
		}
		cfg.progress("ablation %s: abort %.2f%% (%d aborts, skew-attributable %.1f%%, provenance skew %.1f%%)",
			prof.Name, 100*row.AbortRate, row.Aborts, row.SkewAbortPct, row.ProvenanceSkewPct)
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderSkewAblation prints the ablation table.
func RenderSkewAblation(rows []AblationRow) string {
	out := "Ablation: clock-synchronization technology vs abort rate (MFTL, α=0.8)\n"
	out += fmt.Sprintf("%-10s %-12s %-10s %-12s %-16s %-14s\n", "clock", "mean skew", "abort%", "txn/s", "skew-caused %", "provenance %")
	for _, r := range rows {
		out += fmt.Sprintf("%-10s %-12v %-10.2f %-12.0f %-16.1f %-14.1f\n", r.Profile, r.MeanSkew, 100*r.AbortRate, r.ThroughputTPS, r.SkewAbortPct, r.ProvenanceSkewPct)
	}
	return out
}
