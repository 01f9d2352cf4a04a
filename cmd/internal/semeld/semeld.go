// Package semeld is the semeld command: Run serves one replica until its
// context ends. cmd/semeld wraps it with signal handling and the exit code.
package semeld

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"strings"
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

// Run serves one replica, configured by args (without the program name),
// until ctx is done; startup lines go to w.
func Run(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("semeld", flag.ContinueOnError)
	var (
		listen  = fs.String("listen", ":7001", "address to listen on")
		shard   = fs.Int("shard", 0, "shard id this replica serves")
		replica = fs.Int("replica", 0, "replica index within the shard (0 = initial primary)")
		peers   = fs.String("peers", "", "comma-separated replica addresses of this shard, primary first")
		shards  = fs.String("shards", "", "full shard map: ';'-separated shards, each a ','-separated address list")
		backend = fs.String("backend", core.BackendDRAM, "storage backend: dram|mftl|vftl|sftl")
		metrics = fs.String("metrics", "", "address for the HTTP debug endpoint (/metrics, /metrics.json, /debug/audit, /debug/tsdb, /debug/pprof/); empty disables")
		slowlog = fs.Duration("slowlog", 0, "log one structured line for any RPC slower than this (0 disables)")
		skewWin = fs.Duration("skew-window", 0, "validation-abort margins within this window count as skew-induced in abort provenance (0 = all conflict)")

		auditSample  = fs.Float64("audit-sample", 0, "online-audit window sampling rate in [0,1]; 0 disables the auditor")
		auditEpsilon = fs.Duration("audit-epsilon", 500*time.Microsecond, "commit-wait bound epsilon assumed by the auditor's receive-timestamp invariant monitor")
		auditDir     = fs.String("audit-dir", "", "directory for anomaly flight-recorder artifacts (empty keeps them in memory only)")

		walDir    = fs.String("wal-dir", "", "directory for the durable write-ahead log; empty runs without one (DRAM-only, no cold-restart recovery)")
		walSeg    = fs.Int64("wal-segment-bytes", 0, "rotate WAL segments past this size (0 = 4 MiB)")
		ckptEvery = fs.Int("checkpoint-every", 0, "WAL records between checkpoints (0 = 1024, negative disables checkpointing)")

		tsdbInterval = fs.Duration("tsdb-interval", time.Second, "embedded time-series store sampling period")
		tsdbWindow   = fs.Int("tsdb-window", 900, "samples retained per series (window = interval × this)")
		tsdbOff      = fs.Bool("tsdb-off", false, "disable the embedded time-series store and its regression watchdog")
		commitWait   = fs.Duration("commit-wait", 0, "hold each prepare until the local clock clears commit_ts plus this bound (0 disables)")

		callTimeout = fs.Duration("call-timeout", transport.DefaultCallTimeout, "default deadline for outbound RPCs (replication fan-out) when the caller's context has none; negative disables")

		admMaxInflight = fs.Int("admission-max-inflight", 0, "admission control: shed reads above half of this many in-flight requests, prepares above 9/10 (0 disables admission control)")
		admQueueDelay  = fs.Duration("admission-queue-delay", 20*time.Millisecond, "admission control: shed reads queued longer than this, prepares past 4x (needs -admission-max-inflight)")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil
	} else if err != nil {
		return err
	}

	var sets []cluster.ReplicaSet
	switch {
	case *shards != "":
		for _, s := range strings.Split(*shards, ";") {
			addrs := strings.Split(s, ",")
			if len(addrs) == 0 || addrs[0] == "" {
				return fmt.Errorf("bad -shards entry %q", s)
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
		return err
	}

	be, err := buildBackend(*backend)
	if err != nil {
		return err
	}
	rs, err := dir.Shard(cluster.ShardID(*shard))
	if err != nil {
		return err
	}
	replicas := rs.Replicas()
	if *replica < 0 || *replica >= len(replicas) {
		return fmt.Errorf("replica index %d out of range: shard %d has %d replicas", *replica, *shard, len(replicas))
	}
	addr := replicas[*replica]

	// One registry feeds everything on /metrics: the semel server, the
	// auditor, and the wire layer (wire_bytes_total{dir,codec} plus
	// encode/decode histograms from both the replication client and the
	// serving side).
	reg := obs.NewRegistry()
	net := transport.NewTCPClientOpts(transport.TCPClientOptions{Metrics: reg, CallTimeout: *callTimeout})
	defer net.Close()
	opts := semel.ServerOptions{
		Addr:                 addr,
		Shard:                cluster.ShardID(*shard),
		Primary:              *replica == 0,
		Backend:              be,
		Net:                  net,
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
			return fmt.Errorf("opening WAL: %w", err)
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
		return err
	}
	defer srv.Close()
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
		return err
	}
	defer tcp.Close()
	if *metrics != "" {
		mux := http.NewServeMux()
		mux.Handle("/", obs.Handler(srv.Metrics()))
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
		hs := &http.Server{Addr: *metrics, Handler: mux}
		defer hs.Close()
		go func() {
			if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("semeld: metrics endpoint: %v", err)
			}
		}()
		fmt.Fprintf(w, "semeld: metrics on http://%s/metrics (also /debug/audit, /debug/tsdb, /debug/pprof/)\n", *metrics)
	}
	fmt.Fprintf(w, "semeld: shard %d replica %d (%s) serving on %s, backend %s\n",
		*shard, *replica, map[bool]string{true: "primary", false: "backup"}[*replica == 0], tcp.Addr(), *backend)

	<-ctx.Done()
	return nil
}

func buildBackend(kind string) (storage.Backend, error) {
	be, _, err := core.NewBackend(core.BackendOptions{Kind: kind, RealFlashTiming: true})
	return be, err
}
