// Package exp regenerates every table and figure of the paper's evaluation
// (§5). Each experiment has a typed runner (RunTable1, RunFigure1,
// RunFigure6 ... RunFigure9) returning result rows, and a renderer that
// prints them in the same shape the paper reports. cmd/experiments drives
// them from the command line; bench_test.go wraps each in a testing.B.
//
// Scale note: the paper's testbed ran 2-6 million keys for 15 minutes per
// point on emulated NVMe hardware. The runners default to a laptop-scale
// configuration (thousands of keys, sub-minute points) that preserves every
// qualitative relationship; Config.Quick shrinks further for CI. Absolute
// numbers differ from the paper — EXPERIMENTS.md records both.
package exp

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/flash"
	"repro/internal/milana"
	"repro/internal/obs"
	"repro/internal/retwis"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Config tunes experiment scale.
type Config struct {
	// Quick shrinks populations and durations for unit tests.
	Quick bool
	// Duration is the measured run length per data point (0 = default).
	Duration time.Duration
	// Users is the Retwis population (0 = default).
	Users int
	// Seed drives every random choice.
	Seed int64
	// Verbose prints per-point progress to stderr.
	Verbose bool
	// TimeDilation multiplies every temporal parameter of an experiment:
	// device latencies, network latencies, clock skews and packing
	// delays. 0 picks the default (25 at full scale, 1 in Quick mode).
	//
	// Why it exists: the paper's latencies are microseconds, but a
	// typical virtualized host can only sleep with ~1 ms granularity, so
	// sleeping 50 µs and 1.5 ms both take ~1.1 ms — which would flatten
	// the very ratios (clock skew over write latency) the paper is
	// about. Dilating everything by one constant moves every sleep into
	// the accurate regime while keeping all dimensionless ratios — and
	// therefore every figure's shape — unchanged. Absolute throughputs
	// scale down by the same constant.
	TimeDilation float64
}

// dilation returns the effective time-dilation factor.
func (c Config) dilation() float64 {
	if c.TimeDilation > 0 {
		return c.TimeDilation
	}
	if c.Quick {
		return 1
	}
	return 25
}

// dilate scales one duration by the dilation factor.
func (c Config) dilate(d time.Duration) time.Duration {
	return time.Duration(float64(d) * c.dilation())
}

// latency dilates a network latency model.
func (c Config) latency(m transport.LatencyModel) transport.LatencyModel {
	return transport.LatencyModel{OneWay: c.dilate(m.OneWay), Jitter: c.dilate(m.Jitter)}
}

// flashTiming returns the paper's device latencies under dilation.
func (c Config) flashTiming() flash.Timing {
	t := flash.DefaultTiming
	t.TimeScale = c.dilation()
	return t
}

// clockProfile dilates a synchronization profile's skew.
func (c Config) clockProfile(p clock.Profile) clock.Profile {
	return p.Scale(c.dilation())
}

// progress logs a per-point progress line when Verbose is set.
func (c Config) progress(format string, args ...any) {
	if c.Verbose {
		fmt.Fprintf(os.Stderr, "exp: "+format+"\n", args...)
	}
}

func (c Config) duration(def, quick time.Duration) time.Duration {
	if c.Duration > 0 {
		return c.Duration
	}
	if c.Quick {
		return quick
	}
	return def
}

func (c Config) users(def, quick int) int {
	if c.Users > 0 {
		return c.Users
	}
	if c.Quick {
		return quick
	}
	return def
}

// milanaRun describes one closed-loop Retwis run against a cluster.
type milanaRun struct {
	Instances       int
	Users           int
	Alpha           float64
	Mix             retwis.Mix
	Duration        time.Duration
	LocalValidation bool
	// WatermarkEvery registers each client's watermark before the run and
	// broadcasts it again once the client has made N attempts since its
	// last broadcast (0 disables both).
	WatermarkEvery int
	Seed           int64
}

// runResult aggregates a run.
type runResult struct {
	Committed      int64
	Aborted        int64
	LocalValidated int64
	Attempts       int64
	Elapsed        time.Duration
	AvgLatency     time.Duration // successful-transaction latency incl. retries
	// Latency is the full successful-transaction latency distribution,
	// from which AvgLatency and any reported percentiles derive.
	Latency        obs.HistogramSnapshot
	ThroughputTPS  float64
	AbortsByReason [wire.NumAbortReasons]int64
	// Stages is the run's per-stage latency attribution (stage name →
	// histogram) from the clients' stage ledgers: where the end-to-end
	// latency above was actually spent.
	Stages map[string]obs.HistogramSnapshot
}

func (r runResult) abortRate() float64 {
	if r.Attempts == 0 {
		return 0
	}
	return float64(r.Aborted) / float64(r.Attempts)
}

// populate writes the Retwis population through a SEMEL client.
func populate(ctx context.Context, c *core.Cluster, users int) error {
	cl := c.NewSemelClient(9_000_001)
	return retwis.Populate(ctx, users, func(ctx context.Context, key, val []byte) error {
		_, err := cl.Put(ctx, key, val)
		return err
	})
}

// runMilana drives Instances closed-loop Retwis clients against the
// cluster for Duration and aggregates outcomes.
func runMilana(ctx context.Context, c *core.Cluster, o milanaRun) (runResult, error) {
	if err := populate(ctx, c, o.Users); err != nil {
		return runResult{}, fmt.Errorf("populate: %w", err)
	}

	clients := make([]*milana.Client, o.Instances)
	sessions := make([]retwis.Session[*milana.Txn], o.Instances)
	for i := range clients {
		cl := c.NewTxnClient(uint32(i + 1))
		cl.EnableStages(c.Obs)
		cl.LocalValidation = o.LocalValidation
		clients[i] = cl
		sessions[i] = retwis.Session[*milana.Txn]{RunTransaction: cl.RunTransaction, BroadcastWatermark: cl.BroadcastWatermark}
	}
	stopSync := c.StartSynchronizer()
	defer stopSync()

	run, err := retwis.Run(ctx, retwis.Spec{
		Users: o.Users, Alpha: o.Alpha, Mix: o.Mix, Seed: o.Seed,
		Duration:       o.Duration,
		WatermarkEvery: o.WatermarkEvery,
	}, sessions)
	if err != nil {
		return runResult{}, err
	}

	var res runResult
	for _, cl := range clients {
		st := cl.Stats()
		res.Committed += st.Committed
		res.Aborted += st.Aborted
		res.LocalValidated += st.LocalValidated
		for i, n := range st.AbortsByReason {
			res.AbortsByReason[i] += n
		}
	}
	res.Attempts = res.Committed + res.Aborted
	res.Elapsed = run.Elapsed
	res.Latency = run.Latency
	if res.Latency.Count > 0 {
		res.AvgLatency = time.Duration(res.Latency.Mean())
	}
	res.ThroughputTPS = float64(res.Committed) / run.Elapsed.Seconds()
	res.Stages = stageHists(c.Obs.Snapshot())
	return res, nil
}

// stageHists extracts the client stage-ledger histograms from a registry
// snapshot, keyed by bare stage name.
func stageHists(snap obs.Snapshot) map[string]obs.HistogramSnapshot {
	const prefix = `milana_stage_ledger_ns{stage="`
	var out map[string]obs.HistogramSnapshot
	for name, h := range snap.Hists {
		if !strings.HasPrefix(name, prefix) || h.Count == 0 {
			continue
		}
		stage := strings.TrimSuffix(strings.TrimPrefix(name, prefix), `"}`)
		if out == nil {
			out = make(map[string]obs.HistogramSnapshot)
		}
		out[stage] = h
	}
	return out
}
