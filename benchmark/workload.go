package main

import (
	"time"

	"repro/internal/clock"
	"repro/internal/flash"
	"repro/internal/transport"
)

// Load shape shared by every workload (see README.md for the reasons).
const (
	sessions       = 8    // closed-loop callers, one goroutine and one milana.Client each
	users          = 2000 // Retwis population: 4 keys per user, written during set-up
	txnDeadline    = 2 * time.Second
	watermarkEvery = 50 // finished transactions between a session's watermark broadcasts
	warmup         = 3 * time.Second
	tracedWarmup   = 2 * time.Second
	setupRepeats   = 5 // set-ups per untraced run; setup_s is their median
)

// workload is one cluster shape plus one Retwis contention setting. The
// transaction mix is always Table 2 (5/10/35/50): half the transactions are
// read-only GetTimeline, half read-write. Alpha is 0.4, the low end of the
// paper's contention sweep, except on the workload whose subject is
// contention: at 0.6 a third of the read-only attempts on bus-wal spin on
// prepared versions, and how hard they spin follows the host's speed of the
// minute (ro_p99_ms spread 28 % over ten seeds, 11 % at 0.4).
type workload struct {
	Name string
	Why  string

	TCP       bool                   // loopback TCP (codec v1) instead of the in-process bus
	Latency   transport.LatencyModel // bus one-way delay
	Shards    int
	MFTL      bool          // multi-version FTL on an emulated device with real flash timing
	WAL       bool          // per-replica write-ahead log with real fsync
	Clock     clock.Profile // client clock discipline; the zero value is a perfect clock
	Alpha     float64       // Zipf contention exponent
	ValueSize int
	// Populators is the number of concurrent set-up writers: as many as
	// there are sessions, except on flash, where it takes many more to fill
	// pages instead of programming one page per record.
	Populators int
}

const replicas = 3

// mftlGeometry is sized so garbage collection does not start inside a run:
// 1 GiB per replica, allocated page by page as it is programmed.
var mftlGeometry = flash.Geometry{Channels: 8, BlocksPerChannel: 1024, PagesPerBlock: 32, PageSize: 4096}

var workloads = []workload{
	{
		Name: "tcp-dram",
		Why:  "loopback TCP, DRAM, no WAL: CPU-bound in wire, transport, semel dispatch/replication and milana validation; flash and wal idle",
		TCP:  true, Shards: 1, Alpha: 0.4, ValueSize: 64, Populators: sessions,
	},
	{
		Name:   "bus-wal",
		Why:    "same cluster and mix on the zero-latency bus with a WAL per replica on a 200 us-fsync log device: wal and the waits on it dominate, wire idle",
		Shards: 1, WAL: true, Alpha: 0.4, ValueSize: 64, Populators: 128,
	},
	{
		Name:    "bus-mftl",
		Why:     "bus with data-center latency over MFTL at real flash timing, 512 B values, no GC: flash and mvftl dominate and the CPU is idle",
		Latency: transport.DataCenterLatency,
		Shards:  1, MFTL: true, Alpha: 0.4, ValueSize: 512, Populators: 128,
	},
	{
		Name:   "bus-ptp-hot",
		Why:    "2 shards, PTP-disciplined client clocks, alpha 0.9: cross-shard 2PC and the abort/retry path instead of the success path",
		Shards: 2, Clock: clock.PTPSoftware, Alpha: 0.9, ValueSize: 64, Populators: sessions,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricSpec names one reported number. Bound is the share of the baseline
// median by which an end-to-end metric may worsen; per-layer metrics have
// none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the store sees, measured with tracing off.
// BENCHMARK.json repeats this table; bench_test.go keeps the two equal.
// Every bound is the contract's cap: across two sets of ten seeds the
// noisiest workload spread 11-22 % on every metric (README.md, Calibration),
// and a bound below three times the spread would reject noise.
var endToEnd = []metricSpec{
	{Name: "txn_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "rw_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "rw_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ro_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ro_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer is the ledger of the traced pass, grouped by the package whose
// public interface the wrapper sits on.
var perLayer = []metricSpec{
	{Name: "proc.cpu_ms_per_txn", Unit: "ms", Better: "lower"},
	{Name: "proc.allocs_per_txn", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_ms_per_s", Unit: "ms/s", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher"},

	{Name: "milana.attempts_per_commit", Unit: "count", Better: "lower"},
	{Name: "milana.abort_ratio", Unit: "ratio", Better: "lower"},
	{Name: "milana.abort_read_prepared_share", Unit: "ratio", Better: "lower"},
	{Name: "milana.abort_late_write_share", Unit: "ratio", Better: "lower"},
	{Name: "milana.local_validated_share", Unit: "ratio", Better: "higher"},
	{Name: "milana.execute_p50_us", Unit: "us", Better: "lower"},
	{Name: "milana.commit_p50_us", Unit: "us", Better: "lower"},
	{Name: "milana.commit_p99_us", Unit: "us", Better: "lower"},
	{Name: "milana.client_self_p50_us", Unit: "us", Better: "lower"},
	{Name: "milana.aborted_attempt_p50_us", Unit: "us", Better: "lower"},

	{Name: "transport.calls_per_txn", Unit: "count", Better: "lower"},
	{Name: "transport.call_p50_us", Unit: "us", Better: "lower"},
	{Name: "transport.call_p99_us", Unit: "us", Better: "lower"},
	{Name: "transport.self_p50_us", Unit: "us", Better: "lower"},

	{Name: "wire.roundtrip_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "wire.bytes_per_msg", Unit: "B", Better: "lower"},
	{Name: "wire.allocs_per_msg", Unit: "count", Better: "lower"},

	{Name: "semel.serve_get_p50_us", Unit: "us", Better: "lower"},
	{Name: "semel.serve_multiget_p50_us", Unit: "us", Better: "lower"},
	{Name: "semel.serve_prepare_p50_us", Unit: "us", Better: "lower"},
	{Name: "semel.serve_prepare_p99_us", Unit: "us", Better: "lower"},
	{Name: "semel.serve_decision_p50_us", Unit: "us", Better: "lower"},
	{Name: "semel.serve_replicate_p50_us", Unit: "us", Better: "lower"},
	{Name: "semel.serve_self_p50_us", Unit: "us", Better: "lower"},
	{Name: "semel.repl_calls_per_txn", Unit: "count", Better: "lower"},
	{Name: "semel.repl_ops_per_call", Unit: "count", Better: "higher"},
	{Name: "semel.repl_call_p50_us", Unit: "us", Better: "lower"},

	{Name: "storage.put_p50_us", Unit: "us", Better: "lower"},
	{Name: "storage.put_p99_us", Unit: "us", Better: "lower"},
	{Name: "storage.get_p50_us", Unit: "us", Better: "lower"},
	{Name: "storage.get_p99_us", Unit: "us", Better: "lower"},
	{Name: "storage.puts_per_txn", Unit: "count", Better: "lower"},
	{Name: "storage.gets_per_txn", Unit: "count", Better: "lower"},

	{Name: "mvftl.gc_relocated", Unit: "count", Better: "lower"},
	{Name: "mvftl.gc_erased", Unit: "count", Better: "lower"},
	{Name: "mvftl.write_amp", Unit: "ratio", Better: "lower"},

	{Name: "flash.sleeps_per_txn", Unit: "count", Better: "lower"},
	{Name: "flash.sleep_overshoot_ratio", Unit: "ratio", Better: "lower"},
	{Name: "flash.programs_per_txn", Unit: "count", Better: "lower"},
	{Name: "flash.reads_per_txn", Unit: "count", Better: "lower"},
	{Name: "flash.busy_ms_per_s", Unit: "ms/s", Better: "lower"},

	{Name: "wal.fsyncs_per_txn", Unit: "count", Better: "lower"},
	{Name: "wal.records_per_fsync", Unit: "count", Better: "higher"},
	{Name: "wal.fsync_p50_us", Unit: "us", Better: "lower"},
	{Name: "wal.fsync_p99_us", Unit: "us", Better: "lower"},
	{Name: "wal.bytes_per_txn", Unit: "B", Better: "lower"},
	{Name: "wal.fsync_busy_ms_per_s", Unit: "ms/s", Better: "lower"},

	{Name: "clock.now_ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "clock.now_calls_per_txn", Unit: "count", Better: "lower"},
}
