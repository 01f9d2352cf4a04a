// Command bench runs the write-path and read-path performance benchmarks
// and emits a JSON perf trajectory (BENCH_9.json by default): ops/sec plus
// p50/p95 service latencies pulled from the obs histograms, so future PRs
// have concrete numbers to compare against. Compare two trajectory files
// with `go run ./cmd/bench/compare OLD.json NEW.json`.
//
//	go run ./cmd/bench -out BENCH_9.json
//
// Scenario groups:
//
//   - put/unbatched vs put/batched — the replicated SEMEL write path
//     (1 shard × 3 replicas, DRAM) over real loopback TCP at -conc
//     concurrent clients. Over a real transport every message costs
//     encoding and syscalls, so this isolates what batching amortizes.
//   - put/unbatched-flash vs put/batched-flash — the same comparison on
//     MFTL with real flash sleeps and a data-center latency model. This
//     is the end-to-end number; wins here are bounded by the physical
//     critical path, which neither batching nor encoding can remove.
//   - wal/unsynced vs wal/synced — the replicated put path on the
//     in-process bus with and without a durable write-ahead log. The pair
//     differs only in the WAL append + group fsync under every ack, so the
//     ratio is the end-to-end price of crash durability (log-before-ack).
//   - multiget/serial vs multiget/parallel — snapshot reads of 16 keys per
//     call over loopback TCP against DRAM, so the RPC path is the cost;
//     the -flash variants rerun the pair against MFTL with real flash read
//     sleeps, where the win is channel overlap, not CPU.
//   - codec/* — message-level microbenchmarks (testing.Benchmark with
//     allocation counts) for codec-v1 Append+Decode round trips vs a
//     stateless gob baseline that exists only in this command.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/flash"
	"repro/internal/resilience"
	"repro/internal/semel"
	"repro/internal/storage"
	"repro/internal/transport"
)

type result struct {
	Name        string  `json:"name"`
	Concurrency int     `json:"concurrency"`
	Ops         int64   `json:"ops"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	P50Micros   float64 `json:"p50_us"`
	P95Micros   float64 `json:"p95_us"`
	NsPerOp     float64 `json:"ns_per_op,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	Notes       string  `json:"notes,omitempty"`
}

type report struct {
	Generated   string   `json:"generated"`
	Duration    string   `json:"duration_per_scenario"`
	Environment string   `json:"environment"`
	Results     []result `json:"results"`
}

var debug = flag.Bool("debug", false, "dump merged metric snapshots after each scenario")

func main() {
	out := flag.String("out", "BENCH_9.json", "output JSON path")
	dur := flag.Duration("dur", 3*time.Second, "measured duration per scenario")
	conc := flag.Int("conc", 64, "concurrent clients (>= 8 for the acceptance numbers)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile covering every scenario to this file (go tool pprof)")
	only := flag.String("only", "", "comma-separated scenario filters (exact name, or substring match); empty runs everything")
	flag.Parse()

	want := func(name string) bool {
		if *only == "" {
			return true
		}
		for _, tok := range strings.Split(*only, ",") {
			tok = strings.TrimSpace(tok)
			if tok == name || (tok != "" && strings.Contains(name, tok)) {
				return true
			}
		}
		return false
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			_ = f.Close()
		}()
	}

	rep := report{
		Generated:   time.Now().UTC().Format(time.RFC3339),
		Duration:    dur.String(),
		Environment: environment(),
	}

	fmt.Printf("%s\n", rep.Environment)

	// ran holds each executed scenario by name, for the ratio lines below.
	ran := map[string]result{}
	record := func(r result) {
		rep.Results = append(rep.Results, r)
		ran[r.Name] = r
		fmt.Printf("  %-22s %9.0f ops/s   p50 %7.0fµs  p95 %7.0fµs\n", r.Name+":", r.OpsPerSec, r.P50Micros, r.P95Micros)
	}
	ratio := func(label, base, opt string) {
		b, okB := ran[base]
		o, okO := ran[opt]
		if okB && okO && b.OpsPerSec > 0 {
			fmt.Printf("  %-22s %.2fx (%s vs %s)\n", label+":", o.OpsPerSec/b.OpsPerSec, opt, base)
		}
	}

	fmt.Printf("put path (DRAM over loopback TCP; isolates RPC amortization), conc=%d:\n", *conc)
	if want("put/unbatched") {
		record(runTCPPut("put/unbatched", true, *conc, *dur))
	}
	if want("put/batched") {
		record(runTCPPut("put/batched", false, *conc, *dur))
	}
	ratio("batching win", "put/unbatched", "put/batched")

	fmt.Printf("put path (MFTL, real flash sleeps, DC latency; end-to-end), conc=%d:\n", *conc)
	if want("put/unbatched-flash") {
		record(runPut("put/unbatched-flash", flashPutOptions(true), *conc, *dur, "one replication RPC per put, MFTL + RealSleeper + DC latency"))
	}
	if want("put/batched-flash") {
		record(runPut("put/batched-flash", flashPutOptions(false), *conc, *dur, "replication batcher on, MFTL + RealSleeper + DC latency"))
	}
	ratio("batching win", "put/unbatched-flash", "put/batched-flash")

	fmt.Printf("wal durability (DRAM, in-process bus; what log-before-ack costs), conc=%d:\n", *conc)
	if want("wal/unsynced") {
		record(runPut("wal/unsynced", walPutOptions(""), *conc, *dur, "no WAL: acks leave memory only (an amnesia kill loses them)"))
	}
	if want("wal/synced") {
		walRoot, err := os.MkdirTemp("", "bench-wal-")
		if err != nil {
			fatal(err)
		}
		record(runPut("wal/synced", walPutOptions(walRoot), *conc, *dur, "segmented WAL, group fsync, log-before-ack on every replica"))
		_ = os.RemoveAll(walRoot)
	}
	ratio("wal cost", "wal/unsynced", "wal/synced")

	fmt.Printf("resilience layer (DRAM, in-process bus; idle-path admission cost), conc=%d:\n", *conc)
	if want("resilience/off") {
		record(runPut("resilience/off", resiliencePutOptions(false), *conc, *dur, "seed behavior: no admission control"))
	}
	if want("resilience/on") {
		record(runPut("resilience/on", resiliencePutOptions(true), *conc, *dur, "admission control on every server (uncontended: nothing sheds, the check itself is the cost)"))
	}
	ratio("resilience cost", "resilience/off", "resilience/on")

	fmt.Printf("multiget fan-out (DRAM over loopback TCP, 16 keys per call), conc=%d:\n", *conc)
	if want("multiget/serial") {
		record(runTCPMultiGet("multiget/serial", true, *conc, *dur))
	}
	if want("multiget/parallel") {
		record(runTCPMultiGet("multiget/parallel", false, *conc, *dur))
	}

	fmt.Printf("multiget fan-out (MFTL, real flash read sleeps, 16 keys per call), conc=4:\n")
	if want("multiget/serial-flash") {
		record(runMultiGet("multiget/serial-flash", true, 4, *dur))
	}
	if want("multiget/parallel-flash") {
		record(runMultiGet("multiget/parallel-flash", false, 4, *dur))
	}
	ratio("fan-out win", "multiget/serial-flash", "multiget/parallel-flash")

	if want("codec/") {
		fmt.Printf("codec microbenchmarks (message round trips, allocations counted):\n")
		micro := codecMicrobenchmarks()
		rep.Results = append(rep.Results, micro...)
		for _, r := range micro {
			fmt.Printf("  %-28s %9.0f ns/op  %6d B/op  %4d allocs/op\n", r.Name+":", r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}

// environment records the two machine properties that bound what these
// numbers can show: the CPU count (CPU-bound paths cannot scale past it)
// and the sleep quantum (every emulated flash/network delay is rounded up
// to it, which compresses latency differences between scenarios).
func environment() string {
	q := measureSleepQuantum()
	return fmt.Sprintf("cpus=%d sleep_quantum~%v (emulated delays round up to the quantum)", runtime.GOMAXPROCS(0), q.Round(10*time.Microsecond))
}

func measureSleepQuantum() time.Duration {
	var tot time.Duration
	const n = 10
	for i := 0; i < n; i++ {
		t0 := time.Now()
		time.Sleep(50 * time.Microsecond)
		tot += time.Since(t0)
	}
	return tot / n
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// lateHandler lets a TCP listener start before the server behind it exists
// (ports are allocated by the OS, but replica addresses must be known before
// semel.NewServer runs).
type lateHandler struct {
	mu sync.RWMutex
	h  transport.Handler
}

func (l *lateHandler) set(h transport.Handler) {
	l.mu.Lock()
	l.h = h
	l.mu.Unlock()
}

func (l *lateHandler) Serve(ctx context.Context, req any) (any, error) {
	l.mu.RLock()
	h := l.h
	l.mu.RUnlock()
	if h == nil {
		return nil, fmt.Errorf("bench: server not ready")
	}
	return h.Serve(ctx, req)
}

// runTCPPut measures the replicated put path over real loopback TCP: three
// replicas, each its own TCP server, DRAM storage so the transport is the
// only cost. Clients share one connection per server, as one application
// process would.
func runTCPPut(name string, disableBatch bool, conc int, dur time.Duration) result {
	const replicas = 3
	handlers := make([]*lateHandler, replicas)
	tcpSrvs := make([]*transport.TCPServer, replicas)
	addrs := make([]string, replicas)
	for i := range handlers {
		handlers[i] = &lateHandler{}
		srv, err := transport.NewTCPServer("127.0.0.1:0", handlers[i])
		if err != nil {
			fatal(err)
		}
		tcpSrvs[i] = srv
		addrs[i] = srv.Addr()
	}
	dir, err := cluster.New([]cluster.ReplicaSet{{Primary: addrs[0], Backups: addrs[1:]}})
	if err != nil {
		fatal(err)
	}
	source := clock.NewSystemSource()
	servers := make([]*semel.Server, replicas)
	nets := make([]*transport.TCPClient, replicas)
	for i := range servers {
		nets[i] = transport.NewTCPClient()
		srv, err := semel.NewServer(semel.ServerOptions{
			Addr:                addrs[i],
			Shard:               0,
			Primary:             i == 0,
			Backend:             storage.NewDRAM(),
			Net:                 nets[i],
			Dir:                 dir,
			Clock:               clock.NewPerfect(source, uint32(1<<20+i)),
			LeaseDuration:       -1,
			AntiEntropyInterval: -1,
			// One in-flight flush slot is what makes this group commit: the
			// next batch accumulates for exactly as long as the previous
			// flush takes, so batch size tracks load instead of collapsing
			// to one op per RPC when flushes are fast.
			ReplBatch: semel.BatchOptions{Disabled: disableBatch, Workers: 1},
		})
		if err != nil {
			fatal(err)
		}
		servers[i] = srv
		handlers[i].set(srv)
	}
	cliNet := transport.NewTCPClient()
	defer func() {
		for _, s := range servers {
			s.Close()
		}
		for _, s := range tcpSrvs {
			s.Close()
		}
		for _, n := range nets {
			n.Close()
		}
		cliNet.Close()
	}()

	var (
		ops atomic.Int64
		wg  sync.WaitGroup
	)
	val := make([]byte, 64)
	// Untimed warmup: let connections, buffers and the GC reach steady
	// state before the measured window opens.
	warmEnd := time.Now().Add(500 * time.Millisecond)
	start := warmEnd
	deadline := start.Add(dur)
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := semel.NewClient(clock.NewPerfect(source, uint32(100+w)), cliNet, dir)
			ctx := context.Background()
			for i := 0; time.Now().Before(deadline); i++ {
				key := []byte(fmt.Sprintf("c%d-k%d", w, i%256))
				if _, err := cl.Put(ctx, key, val); err != nil {
					fatal(fmt.Errorf("tcp put: %w", err))
				}
				if time.Now().After(warmEnd) {
					ops.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	snap := servers[0].Metrics().Snapshot()
	var p50, p95 float64
	if h, ok := snap.Hists[`semel_serve_ns{op="put"}`]; ok {
		p50, p95 = float64(h.Quantile(0.50))/1e3, float64(h.Quantile(0.95))/1e3
	}
	if *debug {
		if h, ok := snap.Hists["semel_repl_batch_ops"]; ok {
			fmt.Printf("    batch ops: n=%d p50=%d p95=%d\n", h.Count, h.Quantile(0.50), h.Quantile(0.95))
		}
		for _, r := range []string{"size", "bytes", "linger", "drain"} {
			fmt.Printf("    flush %-6s %d\n", r, snap.Counters[fmt.Sprintf("semel_repl_flush_total{reason=%q}", r)])
		}
	}
	notes := "replication batcher on (group commit), DRAM over loopback TCP"
	if disableBatch {
		notes = "one replication RPC per put, DRAM over loopback TCP"
	}
	return result{
		Name:        name,
		Concurrency: conc,
		Ops:         ops.Load(),
		OpsPerSec:   float64(ops.Load()) / elapsed.Seconds(),
		P50Micros:   p50,
		P95Micros:   p95,
		Notes:       notes,
	}
}

// runTCPMultiGet measures snapshot multigets over real loopback TCP against
// a single DRAM replica: 16 keys per call, so each RPC carries a fat
// request and a fatter response and the encode/decode path dominates.
// serialReads disables the server's per-key fan-out (the PR-2 baseline).
func runTCPMultiGet(name string, serialReads bool, conc int, dur time.Duration) result {
	handler := &lateHandler{}
	tcpSrv, err := transport.NewTCPServer("127.0.0.1:0", handler)
	if err != nil {
		fatal(err)
	}
	dir, err := cluster.New([]cluster.ReplicaSet{{Primary: tcpSrv.Addr()}})
	if err != nil {
		fatal(err)
	}
	source := clock.NewSystemSource()
	srv, err := semel.NewServer(semel.ServerOptions{
		Addr:                tcpSrv.Addr(),
		Shard:               0,
		Primary:             true,
		Backend:             storage.NewDRAM(),
		Net:                 transport.NewTCPClient(),
		Dir:                 dir,
		Clock:               clock.NewPerfect(source, 1<<20),
		LeaseDuration:       -1,
		AntiEntropyInterval: -1,
		SerialReads:         serialReads,
	})
	if err != nil {
		fatal(err)
	}
	handler.set(srv)
	cliNet := transport.NewTCPClient()
	defer func() {
		srv.Close()
		tcpSrv.Close()
		cliNet.Close()
	}()

	const keys = 1024
	const perCall = 16
	ctx := context.Background()
	setup := semel.NewClient(clock.NewPerfect(source, 99), cliNet, dir)
	val := make([]byte, 64)
	for i := 0; i < keys; i++ {
		if _, err := setup.Put(ctx, []byte(fmt.Sprintf("k%d", i)), val); err != nil {
			fatal(err)
		}
	}
	var (
		ops atomic.Int64
		wg  sync.WaitGroup
	)
	warmEnd := time.Now().Add(500 * time.Millisecond)
	start := warmEnd
	deadline := start.Add(dur)
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := semel.NewClient(clock.NewPerfect(source, uint32(200+w)), cliNet, dir)
			batch := make([][]byte, perCall)
			for i := 0; time.Now().Before(deadline); i++ {
				for j := range batch {
					batch[j] = []byte(fmt.Sprintf("k%d", (i*perCall+j*61+w*131)%keys))
				}
				if _, err := cl.MultiGet(ctx, batch); err != nil {
					fatal(fmt.Errorf("tcp multiget: %w", err))
				}
				if time.Now().After(warmEnd) {
					ops.Add(perCall)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	snap := srv.Metrics().Snapshot()
	var p50, p95 float64
	if h, ok := snap.Hists[`semel_serve_ns{op="multiget"}`]; ok {
		p50, p95 = float64(h.Quantile(0.50))/1e3, float64(h.Quantile(0.95))/1e3
	}
	notes := fmt.Sprintf("%d keys per call, parallel key fan-out, DRAM over loopback TCP", perCall)
	if serialReads {
		notes = fmt.Sprintf("%d keys per call, serial per-key reads (baseline), DRAM over loopback TCP", perCall)
	}
	return result{
		Name:        name,
		Concurrency: conc,
		Ops:         ops.Load(),
		OpsPerSec:   float64(ops.Load()) / elapsed.Seconds(),
		P50Micros:   p50,
		P95Micros:   p95,
		Notes:       notes,
	}
}

// flashPutOptions is the end-to-end configuration: real flash program
// sleeps and a data-center latency model, so queueing is physical. The
// in-process bus delivers every message concurrently at zero CPU cost, so
// message-count amortization cannot pay here; the batcher gets a wide
// dispatch window (Workers) so it does not cap replication parallelism
// below what the unbatched path enjoys.
func flashPutOptions(disableBatch bool) core.ClusterOptions {
	return core.ClusterOptions{
		Shards:          1,
		Replicas:        3,
		Backend:         core.BackendMFTL,
		Geometry:        benchGeometry(),
		RealFlashTiming: true,
		Latency:         transport.DataCenterLatency,
		LeaseDuration:   -1,
		// Anti-entropy pulls a full-store dump; with real flash sleeps that
		// is seconds of device time stolen from the measured window.
		AntiEntropyInterval: -1,
		// MaxOps matches the channel count so one batch's backup programs
		// complete in a single parallel wave instead of convoying behind
		// per-channel queueing and staggered pack timers.
		ReplBatch: semel.BatchOptions{Disabled: disableBatch, Workers: 64, MaxOps: benchGeometry().Channels},
		Seed:      7,
	}
}

// walPutOptions pits the same DRAM bus cluster with and without a durable
// log: the only difference between the pair is the WAL append + group fsync
// on every acknowledged operation, so the synced/unsynced ratio is the
// honest price of crash durability. Checkpoints are pushed out far enough
// that none lands inside the measured window.
func walPutOptions(walRoot string) core.ClusterOptions {
	return core.ClusterOptions{
		Shards:              1,
		Replicas:            3,
		Backend:             core.BackendDRAM,
		LeaseDuration:       -1,
		AntiEntropyInterval: -1,
		WALRoot:             walRoot,
		CheckpointEvery:     1 << 20,
		Seed:                7,
	}
}

// resiliencePutOptions pits the same DRAM bus cluster with and without the
// resilience layer. Uncontended, admission control never sheds: the on/off
// ratio is the pure per-request price of the inflight accounting and
// priority classification on the hot path.
func resiliencePutOptions(on bool) core.ClusterOptions {
	opt := core.ClusterOptions{
		Shards:              1,
		Replicas:            3,
		Backend:             core.BackendDRAM,
		LeaseDuration:       -1,
		AntiEntropyInterval: -1,
		Seed:                7,
	}
	if on {
		opt.Resilience = &resilience.Options{}
	}
	return opt
}

// benchGeometry is a 64 MiB 8-channel device: big enough that a multi-second
// write run never hits garbage-collection pressure, wide enough that channel
// parallelism is real.
func benchGeometry() flash.Geometry {
	return flash.Geometry{Channels: 8, BlocksPerChannel: 64, PagesPerBlock: 32, PageSize: 4096}
}

func runPut(name string, opt core.ClusterOptions, conc int, dur time.Duration, notes string) result {
	c, err := core.NewCluster(opt)
	if err != nil {
		fatal(err)
	}
	defer c.Close()
	var (
		ops atomic.Int64
		wg  sync.WaitGroup
	)
	val := make([]byte, 64)
	start := time.Now()
	deadline := start.Add(dur)
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := c.NewSemelClient(uint32(100 + w))
			ctx := context.Background()
			for i := 0; time.Now().Before(deadline); i++ {
				key := []byte(fmt.Sprintf("c%d-k%d", w, i%256))
				if _, err := cl.Put(ctx, key, val); err != nil {
					fatal(fmt.Errorf("put: %w", err))
				}
				ops.Add(1)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	p50, p95 := latencies(c, `semel_serve_ns{op="put"}`)
	if *debug {
		dumpSnapshot(c)
	}
	return result{
		Name:        name,
		Concurrency: conc,
		Ops:         ops.Load(),
		OpsPerSec:   float64(ops.Load()) / elapsed.Seconds(),
		P50Micros:   p50,
		P95Micros:   p95,
		Notes:       notes,
	}
}

func runMultiGet(name string, serialReads bool, conc int, dur time.Duration) result {
	c, err := core.NewCluster(core.ClusterOptions{
		Shards:              1,
		Replicas:            1,
		Backend:             core.BackendMFTL,
		Geometry:            benchGeometry(),
		RealFlashTiming:     true,
		LeaseDuration:       -1,
		AntiEntropyInterval: -1,
		SerialReads:         serialReads,
		Seed:                7,
	})
	if err != nil {
		fatal(err)
	}
	defer c.Close()
	const keys = 1024
	const perCall = 16
	setup := c.NewSemelClient(99)
	ctx := context.Background()
	val := make([]byte, 64)
	for i := 0; i < keys; i++ {
		if _, err := setup.Put(ctx, []byte(fmt.Sprintf("k%d", i)), val); err != nil {
			fatal(err)
		}
	}
	var (
		ops atomic.Int64
		wg  sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(dur)
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := c.NewSemelClient(uint32(200 + w))
			for i := 0; time.Now().Before(deadline); i++ {
				batch := make([][]byte, perCall)
				for j := range batch {
					batch[j] = []byte(fmt.Sprintf("k%d", (i*perCall+j*61+w*131)%keys))
				}
				if _, err := cl.MultiGet(ctx, batch); err != nil {
					fatal(fmt.Errorf("multiget: %w", err))
				}
				ops.Add(perCall)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	p50, p95 := latencies(c, `semel_serve_ns{op="multiget"}`)
	notes := fmt.Sprintf("%d keys per call, parallel key fan-out, RealSleeper reads", perCall)
	if serialReads {
		notes = fmt.Sprintf("%d keys per call, serial per-key reads (baseline), RealSleeper reads", perCall)
	}
	if *debug {
		dumpSnapshot(c)
	}
	return result{
		Name:        name,
		Concurrency: conc,
		Ops:         ops.Load(),
		OpsPerSec:   float64(ops.Load()) / elapsed.Seconds(),
		P50Micros:   p50,
		P95Micros:   p95,
		Notes:       notes,
	}
}

// latencies pulls p50/p95 (µs) for one histogram from the cluster-wide
// merged snapshot.
func latencies(c *core.Cluster, hist string) (p50, p95 float64) {
	snap := c.MergedSnapshot()
	h, ok := snap.Hists[hist]
	if !ok {
		return 0, 0
	}
	return float64(h.Quantile(0.50)) / 1e3, float64(h.Quantile(0.95)) / 1e3
}

func dumpSnapshot(c *core.Cluster) {
	snap := c.MergedSnapshot()
	names := make([]string, 0, len(snap.Hists))
	for n := range snap.Hists {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := snap.Hists[n]
		if h.Count == 0 {
			continue
		}
		fmt.Printf("    H %-50s n=%-8d p50=%-10d p95=%d\n", n, h.Count, h.Quantile(0.50), h.Quantile(0.95))
	}
	names = names[:0]
	for n := range snap.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if v := snap.Counters[n]; v != 0 {
			fmt.Printf("    C %-50s %d\n", n, v)
		}
	}
}
