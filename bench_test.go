// Package repro holds the top-level benchmark harness: one testing.B
// benchmark per table and figure of the paper's evaluation (§5), plus
// device- and store-level microbenchmarks. Run everything with
//
//	go test -bench=. -benchmem
//
// Each experiment benchmark executes the corresponding exp runner once per
// iteration at a reduced per-point duration and reports the headline
// quantities (abort rates, throughputs, latencies) as custom metrics, so
// `go test -bench` regenerates the paper's results end to end. Use
// cmd/experiments for full-scale runs and pretty tables.
package repro

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/flash"
	"repro/internal/milana"
	"repro/internal/mvftl"
)

// benchConfig scales experiments down to benchmark-friendly durations while
// keeping real device timing and clock skew.
func benchConfig(b *testing.B) exp.Config {
	b.Helper()
	if testing.Short() {
		return exp.Config{Quick: true, Seed: 7}
	}
	// Scaled-down full mode: real (dilated) latencies, shorter points and
	// a smaller population than cmd/experiments, so one benchmark
	// iteration stays in the tens of seconds.
	return exp.Config{Duration: 1 * time.Second, Users: 800, Seed: 7}
}

// BenchmarkTable1 regenerates Table 1 (single-SSD VFTL vs MFTL).
func BenchmarkTable1(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		rows, err := exp.RunTable1(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.GetPct == 75 {
				b.ReportMetric(r.KReqPerSec, fmt.Sprintf("%s-kreq/s", r.Store))
				b.ReportMetric(float64(r.AvgGetLatency)/1e3, fmt.Sprintf("%s-get-µs", r.Store))
			}
		}
	}
}

// BenchmarkFigure1 regenerates Figure 1 (clock-skew penalty on a lagging
// writer).
func BenchmarkFigure1(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		rows, err := exp.RunFigure1(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].RejectionRate, "max-skew-rejection-rate")
	}
}

// BenchmarkFigure6 regenerates Figure 6 (abort rate, single- vs
// multi-version FTL).
func BenchmarkFigure6(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		rows, err := exp.RunFigure6(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		var sftl, mftl, n float64
		for _, r := range rows {
			if r.Backend == "SFTL" {
				sftl += r.AbortRate
			} else {
				mftl += r.AbortRate
			}
		}
		n = float64(len(rows)) / 2
		b.ReportMetric(100*sftl/n, "SFTL-abort-%")
		b.ReportMetric(100*mftl/n, "MFTL-abort-%")
	}
}

// BenchmarkFigure7 regenerates Figure 7 (PTP vs NTP abort rates).
func BenchmarkFigure7(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		rows, err := exp.RunFigure7(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		agg := map[string]float64{}
		cnt := map[string]float64{}
		for _, r := range rows {
			agg[r.Profile] += r.AbortRate
			cnt[r.Profile]++
		}
		for prof, sum := range agg {
			b.ReportMetric(100*sum/cnt[prof], prof+"-abort-%")
		}
	}
}

// BenchmarkFigure8 regenerates Figure 8 (latency vs throughput, local
// validation on/off).
func BenchmarkFigure8(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		rows, err := exp.RunFigure8(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		best := map[bool]float64{}
		for _, r := range rows {
			if r.ThroughputTPS > best[r.LocalValidation] {
				best[r.LocalValidation] = r.ThroughputTPS
			}
		}
		b.ReportMetric(best[true], "LV-on-peak-txn/s")
		b.ReportMetric(best[false], "LV-off-peak-txn/s")
	}
}

// BenchmarkFigure9 regenerates Figure 9 (MILANA vs Centiman local
// validation).
func BenchmarkFigure9(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		rows, err := exp.RunFigure9(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Alpha == 0.8 {
				b.ReportMetric(r.ThroughputTPS, r.System+"-txn/s@0.8")
			}
		}
	}
}

// ---- microbenchmarks: device and store layers ----

func newBenchDevice(b *testing.B) *flash.Device {
	b.Helper()
	dev, err := flash.NewDevice(flash.Options{
		Geometry: flash.Geometry{Channels: 8, BlocksPerChannel: 64, PagesPerBlock: 32, PageSize: 4096},
		Sleeper:  flash.NopSleeper{}, // measure software-path overhead
	})
	if err != nil {
		b.Fatal(err)
	}
	return dev
}

// BenchmarkFlashProgram measures the emulator's program-path overhead.
func BenchmarkFlashProgram(b *testing.B) {
	dev := newBenchDevice(b)
	geo := dev.Geometry()
	data := make([]byte, geo.PageSize)
	b.ResetTimer()
	p := 0
	for i := 0; i < b.N; i++ {
		blk := p / geo.PagesPerBlock % geo.Blocks()
		page := p % geo.PagesPerBlock
		if page == 0 && p >= geo.Pages() {
			if err := dev.EraseBlock(blk); err != nil {
				b.Fatal(err)
			}
		}
		if err := dev.ProgramPage(flash.PageAddr{Block: blk, Page: page}, data); err != nil {
			b.Fatal(err)
		}
		p++
	}
}

// BenchmarkMFTLPut measures unified-FTL put overhead (no device sleeps, no
// packing delay): the mapping, packing and GC bookkeeping cost.
func BenchmarkMFTLPut(b *testing.B) {
	dev := newBenchDevice(b)
	st, err := mvftl.New(dev, mvftl.Options{PackTimeout: -1})
	if err != nil {
		b.Fatal(err)
	}
	src := clock.NewSystemSource()
	clk := clock.NewPerfect(src, 1)
	val := make([]byte, 472)
	keys := 1024
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := []byte(fmt.Sprintf("k%d", i%keys))
		if err := st.Put(k, val, clk.Now()); err != nil {
			b.Fatal(err)
		}
		if i%keys == 0 {
			st.SetWatermark(clk.Now().Add(-time.Millisecond))
		}
	}
}

// BenchmarkMFTLGet measures unified-FTL read overhead.
func BenchmarkMFTLGet(b *testing.B) {
	dev := newBenchDevice(b)
	st, err := mvftl.New(dev, mvftl.Options{PackTimeout: -1})
	if err != nil {
		b.Fatal(err)
	}
	clk := clock.NewPerfect(clock.NewSystemSource(), 1)
	val := make([]byte, 472)
	const keys = 1024
	for i := 0; i < keys; i++ {
		if err := st.Put([]byte(fmt.Sprintf("k%d", i)), val, clk.Now()); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, found, err := st.Get([]byte(fmt.Sprintf("k%d", i%keys)), clk.Now()); err != nil || !found {
			b.Fatalf("get: %v %v", found, err)
		}
	}
}

// BenchmarkTxnReadOnly measures an end-to-end read-only transaction with
// local validation on a DRAM cluster with instant network: the protocol's
// software floor.
func BenchmarkTxnReadOnly(b *testing.B) {
	c, err := core.NewCluster(core.ClusterOptions{Shards: 3, LeaseDuration: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	setup := c.NewTxnClient(99)
	setup.SyncDecisions = true
	if err := setup.RunTransaction(ctx, func(t *milana.Txn) error {
		return t.Put([]byte("k"), []byte("v"))
	}); err != nil {
		b.Fatal(err)
	}
	txc := c.NewTxnClient(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := txc.RunTransaction(ctx, func(t *milana.Txn) error {
			_, _, err := t.Get(ctx, []byte("k"))
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTxnReadWrite measures an end-to-end single-key read-write
// transaction (full 2PC) on the same floor configuration.
func BenchmarkTxnReadWrite(b *testing.B) {
	c, err := core.NewCluster(core.ClusterOptions{Shards: 3, LeaseDuration: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	txc := c.NewTxnClient(1)
	txc.SyncDecisions = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := []byte(fmt.Sprintf("k%d", i%64))
		if err := txc.RunTransaction(ctx, func(t *milana.Txn) error {
			_, _, err := t.Get(ctx, key)
			if err != nil {
				return err
			}
			return t.Put(key, []byte("v"))
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMFTLRecovery measures the full-device recovery scan that
// rebuilds the mapping table from media (§3.1's durability story).
func BenchmarkMFTLRecovery(b *testing.B) {
	dev := newBenchDevice(b)
	st, err := mvftl.New(dev, mvftl.Options{PackTimeout: -1})
	if err != nil {
		b.Fatal(err)
	}
	clk := clock.NewPerfect(clock.NewSystemSource(), 1)
	val := make([]byte, 472)
	const keys = 2048
	for i := 0; i < keys; i++ {
		if err := st.Put([]byte(fmt.Sprintf("k%d", i)), val, clk.Now()); err != nil {
			b.Fatal(err)
		}
	}
	st.Flush()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev.Close()
		dev.Reopen()
		r, err := mvftl.Recover(dev, mvftl.Options{PackTimeout: -1})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, found, _ := r.Latest([]byte("k0")); !found {
			b.Fatal("recovery lost data")
		}
	}
}

// BenchmarkSemelPut measures the replicated write path (primary + 2
// backups, DRAM, instant network): timestamping, staleness check, local
// apply, f-of-2f replication.
func BenchmarkSemelPut(b *testing.B) {
	c, err := core.NewCluster(core.ClusterOptions{Shards: 1, Replicas: 3, LeaseDuration: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	cl := c.NewSemelClient(1)
	ctx := context.Background()
	val := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Put(ctx, []byte(fmt.Sprintf("k%d", i%256)), val); err != nil {
			b.Fatal(err)
		}
	}
}
