// Command semeld runs one SEMEL/MILANA storage replica over TCP.
//
// A three-replica shard on one machine:
//
//	semeld -listen :7001 -shard 0 -replica 0 -peers :7001,:7002,:7003 &
//	semeld -listen :7002 -shard 0 -replica 1 -peers :7001,:7002,:7003 &
//	semeld -listen :7003 -shard 0 -replica 2 -peers :7001,:7002,:7003 &
//
// Replica 0 of each shard starts as primary. The shard map is static: every
// replica must be started with the same -shards description, formatted as
// semicolon-separated shards, each a comma-separated replica address list
// (primary first). When -peers is given, a single shard is assumed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/audit"
	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/semel"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wal"
)

func main() {
	var (
		listen  = flag.String("listen", ":7001", "address to listen on")
		shard   = flag.Int("shard", 0, "shard id this replica serves")
		replica = flag.Int("replica", 0, "replica index within the shard (0 = initial primary)")
		peers   = flag.String("peers", "", "comma-separated replica addresses of this shard, primary first")
		shards  = flag.String("shards", "", "full shard map: ';'-separated shards, each a ','-separated address list")
		backend = flag.String("backend", core.BackendDRAM, "storage backend: dram|mftl|vftl|sftl")
		metrics = flag.String("metrics", "", "address for the HTTP debug endpoint (/metrics, /metrics.json, /debug/timehealth, /debug/audit, /debug/tsdb, /debug/pprof/); empty disables")
		slowlog = flag.Duration("slowlog", 0, "log one structured line for any RPC slower than this (0 disables)")
		skewWin = flag.Duration("skew-window", 0, "validation-abort margins within this window count as skew-induced in abort provenance (0 = all conflict)")

		auditSample  = flag.Float64("audit-sample", 0, "online-audit window sampling rate in [0,1]; 0 disables the auditor")
		auditEpsilon = flag.Duration("audit-epsilon", 500*time.Microsecond, "commit-wait bound epsilon assumed by the auditor's receive-timestamp invariant monitor")
		auditDir     = flag.String("audit-dir", "", "directory for anomaly flight-recorder artifacts (empty keeps them in memory only)")

		walDir    = flag.String("wal-dir", "", "directory for the durable write-ahead log; empty runs without one (DRAM-only, no cold-restart recovery)")
		walSeg    = flag.Int64("wal-segment-bytes", 0, "rotate WAL segments past this size (0 = 4 MiB)")
		ckptEvery = flag.Int("checkpoint-every", 0, "WAL records between checkpoints (0 = 1024, negative disables checkpointing)")

		tsdbInterval = flag.Duration("tsdb-interval", time.Second, "embedded time-series store sampling period")
		tsdbWindow   = flag.Int("tsdb-window", 900, "samples retained per series (window = interval × this)")
		tsdbOff      = flag.Bool("tsdb-off", false, "disable the embedded time-series store and its regression watchdog")
		commitWait   = flag.Duration("commit-wait", 0, "hold each prepare until the local clock clears commit_ts plus this bound (0 disables)")

		callTimeout = flag.Duration("call-timeout", transport.DefaultCallTimeout, "default deadline for outbound RPCs (replication fan-out) when the caller's context has none; negative disables")

		admMaxInflight = flag.Int("admission-max-inflight", 0, "admission control: shed reads above half of this many in-flight requests, prepares above 9/10 (0 disables admission control)")
		admQueueDelay  = flag.Duration("admission-queue-delay", 20*time.Millisecond, "admission control: shed reads queued longer than this, prepares past 4x (needs -admission-max-inflight)")
	)
	flag.Parse()

	var sets []cluster.ReplicaSet
	switch {
	case *shards != "":
		for _, s := range strings.Split(*shards, ";") {
			addrs := strings.Split(s, ",")
			if len(addrs) == 0 || addrs[0] == "" {
				log.Fatalf("bad -shards entry %q", s)
			}
			sets = append(sets, cluster.ReplicaSet{Primary: addrs[0], Backups: addrs[1:]})
		}
	case *peers != "":
		addrs := strings.Split(*peers, ",")
		sets = []cluster.ReplicaSet{{Primary: addrs[0], Backups: addrs[1:]}}
	default:
		sets = []cluster.ReplicaSet{{Primary: *listen}}
	}
	dir, err := cluster.New(sets)
	if err != nil {
		log.Fatal(err)
	}

	be, err := buildBackend(*backend)
	if err != nil {
		log.Fatal(err)
	}
	rs, err := dir.Shard(cluster.ShardID(*shard))
	if err != nil {
		log.Fatal(err)
	}
	replicas := rs.Replicas()
	if *replica < 0 || *replica >= len(replicas) {
		log.Fatalf("replica index %d out of range: shard %d has %d replicas", *replica, *shard, len(replicas))
	}
	addr := replicas[*replica]

	// One registry feeds everything on /metrics: the semel server, the
	// auditor, and the wire layer (wire_bytes_total{dir,codec} plus
	// encode/decode histograms from both the replication client and the
	// serving side).
	reg := obs.NewRegistry()
	opts := semel.ServerOptions{
		Addr:                 addr,
		Shard:                cluster.ShardID(*shard),
		Primary:              *replica == 0,
		Backend:              be,
		Net:                  transport.NewTCPClientOpts(transport.TCPClientOptions{Metrics: reg, CallTimeout: *callTimeout}),
		Dir:                  dir,
		Clock:                clock.NewPerfect(clock.NewSystemSource(), uint32(1<<20+*shard*100+*replica)),
		SlowRequestThreshold: *slowlog,
		SkewWindow:           *skewWin,
		Metrics:              reg,
		CommitWait:           *commitWait,
		CheckpointEvery:      *ckptEvery,
	}
	if *walDir != "" {
		w, err := wal.Open(wal.Options{Dir: *walDir, SegmentBytes: *walSeg, Metrics: reg})
		if err != nil {
			log.Fatalf("semeld: opening WAL: %v", err)
		}
		defer w.Close()
		opts.Log = w
	}
	if *admMaxInflight > 0 {
		opts.Admission = resilience.NewAdmission(resilience.AdmissionOptions{
			MaxInflight:   *admMaxInflight,
			MaxQueueDelay: *admQueueDelay,
			Metrics:       reg,
		})
	}
	// The embedded time-series store samples the registry once per interval
	// (including Go runtime health) and runs the default regression watchdog
	// over the ring; milctl history and /debug/tsdb read it back.
	var tsdb *obs.TSDB
	var dog *obs.Watchdog
	if !*tsdbOff {
		tsdb = obs.NewTSDB(reg, obs.TSDBOptions{
			Interval: *tsdbInterval,
			Window:   *tsdbWindow,
			Runtime:  true,
		})
		dog = obs.NewWatchdog(reg, obs.DefaultWatchdogRules()...)
		tsdb.Attach(dog)
		opts.TSDB = tsdb
	}
	// The standalone daemon has no true-clock oracle, so the auditor runs in
	// receive-timestamp mode: commit timestamps carried by prepares are
	// checked against this replica's receipt time plus 2ε. Auditor and
	// server share one registry so audit_* metrics ride /metrics.
	var aud *audit.Auditor
	if *auditSample > 0 {
		aud = audit.New(audit.Options{
			SampleRate:  *auditSample,
			Epsilon:     *auditEpsilon,
			Profile:     "tcp",
			ArtifactDir: *auditDir,
			Metrics:     opts.Metrics,
		})
		opts.Auditor = aud
	}
	srv, err := semel.NewServer(opts)
	if err != nil {
		log.Fatal(err)
	}
	if aud != nil {
		// The watermark and span ring only exist once the server does.
		aud.SetWatermark(srv.Watermark)
		aud.SetSpanSource(srv.Spans().ForTrace)
		aud.Start()
		defer aud.Close()
	}
	if tsdb != nil {
		// Watchdog convictions land in the log and — when the auditor runs —
		// on the flight-recorder artifact trail next to serializability
		// convictions (RecordAlert is nil-safe).
		dog.OnAlert(func(a obs.Alert) {
			log.Printf("semeld: watchdog alert rule=%s series=%q value=%g threshold=%g: %s",
				a.Rule, a.Series, a.Value, a.Threshold, a.Message)
			aud.RecordAlert(a.Rule, a.Series, a.Message, a.Value, a.Threshold)
		})
		tsdb.Start()
		defer tsdb.Close()
	}
	tcp, err := transport.NewTCPServerOpts(*listen, srv, transport.TCPServerOptions{Metrics: reg})
	if err != nil {
		log.Fatal(err)
	}
	if *metrics != "" {
		mux := http.NewServeMux()
		mux.Handle("/", obs.Handler(srv.Metrics()))
		mux.HandleFunc("/debug/timehealth", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(srv.TimeHealth())
		})
		mux.HandleFunc("/debug/audit", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(struct {
				Summary   audit.Summary     `json:"summary"`
				Artifacts []*audit.Artifact `json:"artifacts"`
			}{aud.Stats(), aud.Artifacts()})
		})
		if tsdb != nil {
			mux.Handle("/debug/tsdb", tsdb)
		}
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.ListenAndServe(*metrics, mux); err != nil {
				log.Printf("semeld: metrics endpoint: %v", err)
			}
		}()
		fmt.Printf("semeld: metrics on http://%s/metrics (also /debug/timehealth, /debug/audit, /debug/tsdb, /debug/pprof/)\n", *metrics)
	}
	fmt.Printf("semeld: shard %d replica %d (%s) serving on %s, backend %s\n",
		*shard, *replica, map[bool]string{true: "primary", false: "backup"}[*replica == 0], tcp.Addr(), *backend)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	srv.Close()
	_ = tcp.Close()
}

func buildBackend(kind string) (storage.Backend, error) {
	be, _, err := core.NewBackend(core.BackendOptions{Kind: kind, RealFlashTiming: true})
	return be, err
}
