// Package milctl is the milctl command: Run executes one command line
// against a semeld cluster. cmd/milctl wraps it with signal handling and the
// exit code.
package milctl

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/audit"
	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/milana"
	"repro/internal/obs"
	"repro/internal/semel"
	"repro/internal/transport"
	"repro/internal/wire"
)

// ErrUsage marks a malformed command line: cmd/milctl exits 2 on it and 1
// on any other error.
var ErrUsage = errors.New("usage")

// Run executes one milctl command line (args without the program name),
// printing its output to w.
func Run(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("milctl", flag.ContinueOnError)
	var (
		shards   = fs.String("shards", ":7001", "';'-separated shards, each a ','-separated replica list (primary first)")
		timeout  = fs.Duration("timeout", 5*time.Second, "per-command timeout")
		id       = fs.Uint("id", 1, "client id (must be unique per concurrent client)")
		traceTxn = fs.Bool("trace", false, "with txn: propagate a trace context and print the stitched cross-node timeline")
		interval = fs.Duration("interval", time.Second, "with top: refresh period")
		rounds   = fs.Int("rounds", 0, "with top: number of refreshes (0 = until interrupted)")
		samples  = fs.Int("samples", 60, "with history: samples pulled per series (0 = the full retained window)")
		callTO   = fs.Duration("call-timeout", transport.DefaultCallTimeout, "default per-RPC deadline when a command's context has none; negative disables")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil
	} else if err != nil {
		return fmt.Errorf("%w: %v", ErrUsage, err)
	}
	args = fs.Args()
	if len(args) == 0 {
		return fmt.Errorf("%w: milctl [flags] get|put|del|txn|stats|trace|timehealth|walstatus|audit|top|history ...", ErrUsage)
	}

	var sets []cluster.ReplicaSet
	for _, s := range strings.Split(*shards, ";") {
		addrs := strings.Split(s, ",")
		sets = append(sets, cluster.ReplicaSet{Primary: addrs[0], Backups: addrs[1:]})
	}
	dir, err := cluster.New(sets)
	if err != nil {
		return err
	}
	net := transport.NewTCPClientOpts(transport.TCPClientOptions{CallTimeout: *callTO})
	defer net.Close()
	clk := clock.NewPerfect(clock.NewSystemSource(), uint32(*id))
	if args[0] == "top" {
		return runTop(ctx, w, net, dir, *timeout, *interval, *rounds)
	}
	ctx, cancel := context.WithTimeout(ctx, *timeout)
	defer cancel()

	switch args[0] {
	case "get":
		if err := requireArgs(args, 2); err != nil {
			return err
		}
		cl := semel.NewClient(clk, net, dir)
		val, ver, found, err := cl.Get(ctx, []byte(args[1]))
		if err != nil {
			return err
		}
		if !found {
			fmt.Fprintln(w, "(not found)")
			return nil
		}
		fmt.Fprintf(w, "%s\t(version %v)\n", val, ver)
	case "put":
		if err := requireArgs(args, 3); err != nil {
			return err
		}
		cl := semel.NewClient(clk, net, dir)
		ver, err := cl.Put(ctx, []byte(args[1]), []byte(args[2]))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "ok (version %v)\n", ver)
	case "del":
		if err := requireArgs(args, 2); err != nil {
			return err
		}
		cl := semel.NewClient(clk, net, dir)
		if err := cl.Delete(ctx, []byte(args[1])); err != nil {
			return err
		}
		fmt.Fprintln(w, "ok")
	case "txn":
		return runTxn(ctx, w, net, dir, clk, args[1:], *traceTxn)
	case "trace":
		if err := requireArgs(args, 2); err != nil {
			return err
		}
		tid, err := parseTraceID(args[1])
		if err != nil {
			return err
		}
		return printStitchedTrace(ctx, w, net, dir, tid, nil, nil)
	case "timehealth":
		fmt.Fprintf(w, "%-20s %-7s %12s %12s %12s %12s %14s\n",
			"replica", "role", "offset", "residual", "drift", "uncertainty", "watermark lag")
		return forEachStats(ctx, w, net, dir, func(_ int, st wire.StatsResponse) {
			g := st.Obs.Gauges
			fmt.Fprintf(w, "%-20s %-7s %12v %12v %12v %12v %14v\n",
				st.Addr, role(st.Obs),
				time.Duration(g["clock_offset_ns"]), time.Duration(g["clock_residual_ns"]),
				time.Duration(g["clock_drift_since_sync_ns"]), time.Duration(g["clock_uncertainty_ns"]),
				time.Duration(g["semel_watermark_lag_ns"]))
		})
	case "walstatus":
		fmt.Fprintf(w, "%-20s %-8s %12s %12s %12s %9s %10s %14s %12s\n",
			"replica", "wal", "appended", "durable", "checkpoint", "segments", "fsyncs", "replay recs", "replay time")
		return forEachStats(ctx, w, net, dir, func(_ int, st wire.StatsResponse) {
			g := st.Obs.Gauges
			if _, on := g["wal_appended_lsn"]; !on {
				fmt.Fprintf(w, "%-20s %-8s (DRAM-only: an amnesia kill loses acked state)\n", st.Addr, "off")
				return
			}
			fmt.Fprintf(w, "%-20s %-8s %12d %12d %12d %9d %10d %14d %12v\n",
				st.Addr, "on",
				g["wal_appended_lsn"], g["wal_durable_lsn"], g["wal_checkpoint_lsn"],
				g["wal_segments"], st.Obs.Counters["wal_fsyncs_total"],
				g["recovery_replay_records"], time.Duration(g["recovery_replay_ns"]))
		})
	case "stats":
		var merged obs.Snapshot
		err := forEachStats(ctx, w, net, dir, func(shard int, st wire.StatsResponse) {
			c := st.Obs.Counters
			fmt.Fprintf(w, "%-20s shard %d %-7s gets=%d puts=%d dels=%d prepares=%d commits=%d aborts=%d repl=%d wm=%d\n",
				st.Addr, shard, role(st.Obs),
				served(st.Obs, "get"), served(st.Obs, "put"), served(st.Obs, "delete"), served(st.Obs, "prepare"),
				c["semel_commits_total"], c["semel_aborts_total"], c["semel_replicated_ops_total"],
				st.Obs.Gauges["semel_watermark_ticks"])
			merged.Merge(st.Obs)
		})
		if err != nil {
			return err
		}
		printLatencyTable(w, "transaction stages (cluster-wide)", merged, "milana_txn_stage_ns")
		printLatencyTable(w, "server op latency (cluster-wide)", merged, "semel_serve_ns")
		printLatencyTable(w, "server stage ledger (per-request attribution)", merged, "server_stage_ledger_ns")
		printLatencyTable(w, "parks on a prepared mark (wait)", merged, "milana_park_ns")
		printCounterTable(w, "abort reasons", merged, "milana_aborts_total")
		printCounterTable(w, "parks expired (bound or context)", merged, "milana_park_expired_total")
		printCounterTable(w, "sweep outcomes", merged, "milana_sweep_total")
		printCounterTable(w, "admission sheds (by priority)", merged, "admission_shed_total")
		printCounterTable(w, "deadline drops (admission)", merged, "admission_deadline_dropped_total")
		printCounterTable(w, "deadline drops (wire)", merged, "transport_deadline_expired_total")
		printExemplars(w, merged, "semel_serve_ns")
	case "audit":
		raw := len(args) > 1 && args[1] == "json"
		return runAudit(ctx, w, net, dir, raw)
	case "history":
		return runHistory(ctx, w, net, dir, args[1:], *samples)
	default:
		return fmt.Errorf("%w: unknown command %q", ErrUsage, args[0])
	}
	return nil
}

// runTxn executes ops ("get <key>", "put <key> <value>") inside one MILANA
// transaction and prints what it read, where the wall time went and, with
// traced set, the stitched cross-node timeline.
func runTxn(ctx context.Context, w io.Writer, net transport.Client, dir *cluster.Directory, clk clock.Clock, ops []string, traced bool) error {
	cl := milana.NewClient(clk, net, dir)
	// The process exits as soon as the transaction decides; the
	// default fire-and-forget decision notification would be killed
	// mid-flight, leaving the transaction PREPARED server-side until
	// the cooperative-termination sweep resolves it (and blocking
	// conflicting writers in the meantime).
	cl.SyncDecisions = true
	// Stage attribution rides every request (WantStages), so the servers
	// fold this transaction into their server_stage_ledger series and the
	// client can print where the wall time went.
	stageReg := obs.NewRegistry()
	cl.EnableStages(stageReg)
	if traced {
		cl.EnableTracing(0)
	}
	err := cl.RunTransaction(ctx, func(t *milana.Txn) error {
		ops := ops
		for len(ops) > 0 {
			switch ops[0] {
			case "get":
				if len(ops) < 2 {
					return fmt.Errorf("txn get needs a key")
				}
				val, found, err := t.Get(ctx, []byte(ops[1]))
				if err != nil {
					return err
				}
				if found {
					fmt.Fprintf(w, "%s = %s\n", ops[1], val)
				} else {
					fmt.Fprintf(w, "%s = (not found)\n", ops[1])
				}
				ops = ops[2:]
			case "put":
				if len(ops) < 3 {
					return fmt.Errorf("txn put needs key and value")
				}
				if err := t.Put([]byte(ops[1]), []byte(ops[2])); err != nil {
					return err
				}
				ops = ops[3:]
			default:
				return fmt.Errorf("unknown txn op %q", ops[0])
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "committed")
	printTxnStages(w, stageReg.Snapshot())
	if !traced {
		return nil
	}
	spans := cl.Spans().Recent()
	if len(spans) == 0 {
		fmt.Fprintln(w, "(no trace recorded)")
		return nil
	}
	tid := spans[len(spans)-1].TraceID
	fmt.Fprintf(w, "trace id %016x (also: milctl trace %016x)\n", tid, tid)
	return printStitchedTrace(ctx, w, net, dir, tid, cl.Spans(), cl.Clock())
}

// role names a replica's role from its semel_primary gauge.
func role(snap obs.Snapshot) string {
	if snap.Gauges["semel_primary"] == 1 {
		return "primary"
	}
	return "backup"
}

// served counts the requests of one op a replica has served: the count of
// its semel_serve_ns{op} histogram.
func served(snap obs.Snapshot, op string) uint64 {
	return snap.Hists[obs.WithLabel("semel_serve_ns", "op", op)].Count
}

// printTxnStages renders the client stage ledger folded over the whole
// milctl txn (every attempt, if it retried) as one line of where the wall
// time went. Stages that never accrued time are omitted.
func printTxnStages(w io.Writer, snap obs.Snapshot) {
	e2e := snap.Hists["milana_stage_ledger_e2e_ns"]
	if e2e.Count == 0 {
		return
	}
	var parts []string
	for _, name := range obs.StageNames() {
		if sum := snap.Hists[obs.WithLabel("milana_stage_ledger_ns", "stage", name)].Sum; sum > 0 {
			parts = append(parts, fmt.Sprintf("%s %v", name, time.Duration(sum).Round(time.Microsecond)))
		}
	}
	fmt.Fprintf(w, "stages (%d attempts, e2e %v): %s\n",
		e2e.Count, time.Duration(e2e.Sum).Round(time.Microsecond), strings.Join(parts, ", "))
}

// parseTraceID accepts either a transaction ID in "client.seq" form (the IDs
// printed in server logs and abort errors) or a raw hex trace ID.
func parseTraceID(s string) (uint64, error) {
	if c, seq, ok := strings.Cut(s, "."); ok {
		var id wire.TxnID
		if _, err := fmt.Sscanf(c, "%d", &id.Client); err != nil {
			return 0, fmt.Errorf("bad txn id %q: %v", s, err)
		}
		if _, err := fmt.Sscanf(seq, "%d", &id.Seq); err != nil {
			return 0, fmt.Errorf("bad txn id %q: %v", s, err)
		}
		return id.TraceID(), nil
	}
	var tid uint64
	if _, err := fmt.Sscanf(s, "%x", &tid); err != nil {
		return 0, fmt.Errorf("bad trace id %q (want hex id or client.seq): %v", s, err)
	}
	return tid, nil
}

// printStitchedTrace pulls the trace's spans and clock-health estimates from
// every replica of every shard (plus the local client store, when given),
// aligns them by each node's estimated clock offset, and renders one
// timeline with residual-uncertainty annotations.
func printStitchedTrace(ctx context.Context, w io.Writer, net transport.Client, dir *cluster.Directory, tid uint64, local *obs.SpanStore, localClk clock.Clock) error {
	col := obs.NewCollector()
	if local != nil {
		col.AddSpans(local.ForTrace(tid))
		if hr, ok := localClk.(clock.HealthReporter); ok {
			h := hr.Health()
			col.SetNodeClock(obs.NodeClock{Node: local.Node(), OffsetNs: h.OffsetNs, UncertaintyNs: h.UncertaintyNs})
		}
	}
	err := forEachReplica(dir, func(_ int, addr string) {
		resp, err := net.Call(ctx, addr, wire.TraceRequest{TraceID: tid})
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s unreachable: %v\n", addr, err)
			return
		}
		tr, ok := resp.(wire.TraceResponse)
		if !ok {
			fmt.Fprintf(os.Stderr, "%s: unexpected reply %T\n", addr, resp)
			return
		}
		col.AddSpans(tr.Spans)
		col.SetNodeClock(obs.NodeClock{Node: tr.Addr, OffsetNs: tr.Clock.OffsetNs, UncertaintyNs: tr.Clock.UncertaintyNs})
	})
	if err != nil {
		return err
	}
	fmt.Fprint(w, col.Assemble(tid).Render())
	return nil
}

// labelValue extracts the first label value from a metric name:
// `x{stage="prepare"}` → "prepare". Unlabeled names return themselves.
func labelValue(name string) string {
	i := strings.IndexByte(name, '"')
	if i < 0 {
		return name
	}
	j := strings.IndexByte(name[i+1:], '"')
	if j < 0 {
		return name
	}
	return name[i+1 : i+1+j]
}

// printLatencyTable renders percentiles of every histogram under prefix.
func printLatencyTable(w io.Writer, title string, snap obs.Snapshot, prefix string) {
	var names []string
	for name, h := range snap.Hists {
		if strings.HasPrefix(name, prefix) && h.Count > 0 {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return
	}
	sort.Strings(names)
	fmt.Fprintf(w, "\n%s\n", title)
	fmt.Fprintf(w, "  %-16s %10s %12s %12s %12s\n", "", "count", "p50", "p95", "p99")
	for _, name := range names {
		h := snap.Hists[name]
		p50, p95, p99, _ := h.Percentiles()
		fmt.Fprintf(w, "  %-16s %10d %12v %12v %12v\n",
			labelValue(name), h.Count, time.Duration(p50), time.Duration(p95), time.Duration(p99))
	}
}

// printCounterTable renders every non-zero counter under prefix.
func printCounterTable(w io.Writer, title string, snap obs.Snapshot, prefix string) {
	var names []string
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, prefix) && v > 0 {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return
	}
	sort.Strings(names)
	fmt.Fprintf(w, "\n%s\n", title)
	for _, name := range names {
		fmt.Fprintf(w, "  %-24s %d\n", labelValue(name), snap.Counters[name])
	}
}

// printExemplars renders the slowest remembered traces for every histogram
// under prefix, so a tail spike in the latency table above is one
// `milctl trace` away from its stitched timeline.
func printExemplars(w io.Writer, snap obs.Snapshot, prefix string) {
	var names []string
	for name, h := range snap.Hists {
		if strings.HasPrefix(name, prefix) && len(h.TopExemplars(1)) > 0 {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return
	}
	sort.Strings(names)
	fmt.Fprintf(w, "\nslowest traced requests (inspect with: milctl trace <id>)\n")
	for _, name := range names {
		for _, ex := range snap.Hists[name].TopExemplars(3) {
			fmt.Fprintf(w, "  %-16s %12v-%-12v trace %016x\n",
				labelValue(name), time.Duration(ex.LoNs), time.Duration(ex.HiNs), ex.TraceID)
		}
	}
}

// forEachReplica calls fn with every replica address of every shard.
func forEachReplica(dir *cluster.Directory, fn func(shard int, addr string)) error {
	for i := 0; i < dir.NumShards(); i++ {
		rs, err := dir.Shard(cluster.ShardID(i))
		if err != nil {
			return err
		}
		for _, addr := range rs.Replicas() {
			fn(i, addr)
		}
	}
	return nil
}

// fetchStats pulls one replica's registry snapshot, the source of every
// number a replica view prints.
func fetchStats(ctx context.Context, net transport.Client, addr string) (wire.StatsResponse, error) {
	resp, err := net.Call(ctx, addr, wire.StatsRequest{})
	if err != nil {
		return wire.StatsResponse{}, fmt.Errorf("unreachable: %v", err)
	}
	st, ok := resp.(wire.StatsResponse)
	if !ok {
		// A replica that answered with something else (an old binary, a
		// misrouted error value) is reported, not silently skipped.
		return wire.StatsResponse{}, fmt.Errorf("error: unexpected reply %T", resp)
	}
	return st, nil
}

// forEachStats calls fn with the snapshot of every replica that answers and
// prints one line for each that does not.
func forEachStats(ctx context.Context, w io.Writer, net transport.Client, dir *cluster.Directory, fn func(shard int, st wire.StatsResponse)) error {
	return forEachReplica(dir, func(shard int, addr string) {
		st, err := fetchStats(ctx, net, addr)
		if err != nil {
			fmt.Fprintf(w, "%-20s %v\n", addr, err)
			return
		}
		fn(shard, st)
	})
}

// runAudit prints a per-node summary line read from the audit_* series, then
// every retained flight-recorder artifact. With raw set, artifacts are
// dumped as their original JSON instead of the condensed view.
func runAudit(ctx context.Context, w io.Writer, net transport.Client, dir *cluster.Directory, raw bool) error {
	fmt.Fprintf(w, "%-20s %-8s %8s %8s %8s %8s %6s %6s\n",
		"replica", "enabled", "pending", "unknown", "checked", "skipped", "convc", "epsv")
	err := forEachStats(ctx, w, net, dir, func(_ int, st wire.StatsResponse) {
		c, g := st.Obs.Counters, st.Obs.Gauges
		_, enabled := c["audit_windows_checked_total"]
		fmt.Fprintf(w, "%-20s %-8v %8d %8d %8d %8d %6d %6d\n",
			st.Addr, enabled, g["audit_pending_txns"], g["audit_unknown_retained"],
			c["audit_windows_checked_total"], c["audit_windows_skipped_total"],
			c["audit_convictions_total"], c["audit_epsilon_violations_total"])
	})
	if err != nil {
		return err
	}
	type nodeArt struct {
		addr string
		blob []byte
	}
	var arts []nodeArt
	err = forEachReplica(dir, func(_ int, addr string) {
		resp, err := net.Call(ctx, addr, wire.AuditRequest{})
		if err != nil {
			fmt.Fprintf(w, "%-20s unreachable: %v\n", addr, err)
			return
		}
		ar, ok := resp.(wire.AuditResponse)
		if !ok {
			fmt.Fprintf(w, "%-20s error: unexpected reply %T\n", addr, resp)
			return
		}
		for _, blob := range ar.Artifacts {
			arts = append(arts, nodeArt{addr: ar.Addr, blob: blob})
		}
	})
	if err != nil {
		return err
	}
	if len(arts) == 0 {
		fmt.Fprintln(w, "\nno artifacts recorded")
		return nil
	}
	fmt.Fprintf(w, "\n%d artifact(s)\n", len(arts))
	for _, na := range arts {
		if raw {
			fmt.Fprintf(w, "--- %s ---\n%s\n", na.addr, na.blob)
			continue
		}
		var art audit.Artifact
		if err := json.Unmarshal(na.blob, &art); err != nil {
			fmt.Fprintf(w, "  %s: undecodable artifact: %v\n", na.addr, err)
			continue
		}
		fmt.Fprintf(w, "  [%s #%d] %s %s\n", na.addr, art.Seq, art.Kind, art.Wallclock)
		switch art.Kind {
		case audit.KindConviction:
			fmt.Fprintf(w, "    anomaly: %s\n", art.Anomaly)
			if len(art.Cycle) > 0 {
				fmt.Fprintf(w, "    cycle:")
				for _, e := range art.Cycle {
					fmt.Fprintf(w, " %v-%s->%v", e.From, e.Kind, e.To)
				}
				fmt.Fprintln(w)
			}
			fmt.Fprintf(w, "    window: %d txns, cut %v, %d span(s) attached\n",
				len(art.Window), art.Cut, len(art.Spans))
		case audit.KindEpsilonViolation:
			fmt.Fprintf(w, "    txn %v commit_ts %v exceeded bound by %v (epsilon %v)\n",
				art.TxnID, art.CommitTs, time.Duration(-art.MarginNs), time.Duration(art.Epsilon))
		case audit.KindWatchdogAlert:
			fmt.Fprintf(w, "    rule %s convicted %q: %s (value %g, threshold %g)\n",
				art.Rule, art.Series, art.Anomaly, art.Value, art.Threshold)
		}
	}
	return nil
}

// topSample is one refresh worth of cluster-wide observations.
type topSample struct {
	when      time.Time
	commits   int64
	aborts    int64
	merged    obs.Snapshot
	wmLagMax  time.Duration
	epsViol   int64
	convc     int64
	unreached int
}

// gatherTop polls every replica once for its registry snapshot.
func gatherTop(ctx context.Context, net transport.Client, dir *cluster.Directory) (topSample, error) {
	s := topSample{when: time.Now()}
	err := forEachReplica(dir, func(_ int, addr string) {
		st, err := fetchStats(ctx, net, addr)
		if err != nil {
			s.unreached++
			return
		}
		c := st.Obs.Counters
		// Commit/abort decisions are recorded on primaries; backups see
		// only replication traffic, so summing across roles is safe.
		if st.Obs.Gauges["semel_primary"] == 1 {
			s.commits += c["semel_commits_total"]
			s.aborts += c["semel_aborts_total"]
		}
		if lag := time.Duration(st.Obs.Gauges["semel_watermark_lag_ns"]); lag > s.wmLagMax {
			s.wmLagMax = lag
		}
		s.epsViol += c["audit_epsilon_violations_total"]
		s.convc += c["audit_convictions_total"]
		s.merged.Merge(st.Obs)
	})
	return s, err
}

// runTop renders a single-screen, auto-refreshing cluster view. Each refresh
// repolls every replica with a fresh timeout; throughput is the commit delta
// between consecutive refreshes.
func runTop(ctx context.Context, w io.Writer, net transport.Client, dir *cluster.Directory, timeout, interval time.Duration, rounds int) error {
	var prev *topSample
	for n := 0; rounds == 0 || n < rounds; n++ {
		rctx, cancel := context.WithTimeout(ctx, timeout)
		s, err := gatherTop(rctx, net, dir)
		cancel()
		if err != nil {
			return err
		}

		fmt.Fprint(w, "\033[2J\033[H") // clear screen, cursor home
		fmt.Fprintf(w, "milctl top — %s  (refresh %v", s.when.Format("15:04:05"), interval)
		if s.unreached > 0 {
			fmt.Fprintf(w, ", %d replica(s) unreachable", s.unreached)
		}
		fmt.Fprintln(w, ")")

		if prev != nil {
			dt := s.when.Sub(prev.when).Seconds()
			if dt > 0 {
				fmt.Fprintf(w, "\nthroughput: %8.1f commits/s  %8.1f aborts/s\n",
					float64(s.commits-prev.commits)/dt, float64(s.aborts-prev.aborts)/dt)
			}
		} else {
			fmt.Fprintf(w, "\nthroughput: (first sample: %d commits, %d aborts total)\n", s.commits, s.aborts)
		}

		var stages obs.HistogramSnapshot
		for name, h := range s.merged.Hists {
			if strings.HasPrefix(name, "milana_txn_stage_ns") {
				stages.Merge(h)
			}
		}
		p50, p95, p99, _ := stages.Percentiles()
		fmt.Fprintf(w, "latency:    p50=%-10v p95=%-10v p99=%-10v (all txn stages)\n",
			time.Duration(p50), time.Duration(p95), time.Duration(p99))
		fmt.Fprintf(w, "watermark:  max lag %v\n", s.wmLagMax)
		fmt.Fprintf(w, "audit:      %d epsilon violation(s), %d conviction(s)\n", s.epsViol, s.convc)
		var sheds, ddrops int64
		for name, v := range s.merged.Counters {
			if strings.HasPrefix(name, "admission_shed_total") {
				sheds += v
			}
			if name == "admission_deadline_dropped_total" || name == "transport_deadline_expired_total" {
				ddrops += v
			}
		}
		fmt.Fprintf(w, "overload:   %d shed, %d dropped at deadline\n", sheds, ddrops)
		printLatencyTable(w, "server stage breakdown", s.merged, "server_stage_ledger_ns")
		printCounterTable(w, "abort reasons", s.merged, "milana_aborts_total")
		printCounterTable(w, "admission sheds (by priority)", s.merged, "admission_shed_total")
		printCounterTable(w, "watchdog alerts", s.merged, "obs_alerts_total")

		prev = &s
		if rounds == 0 || n < rounds-1 {
			select {
			case <-time.After(interval):
			case <-ctx.Done():
				return nil
			}
		}
	}
	return nil
}

// runHistory pulls recent samples from every replica's embedded time-series
// store and renders one sparkline per matching series. Patterns are substring
// filters over series names; with none, every series prints (noisy — filter).
func runHistory(ctx context.Context, w io.Writer, net transport.Client, dir *cluster.Directory, patterns []string, lastN int) error {
	return forEachReplica(dir, func(_ int, addr string) {
		resp, err := net.Call(ctx, addr, wire.TSDBRequest{Patterns: patterns, LastN: lastN})
		if err != nil {
			fmt.Fprintf(w, "%-20s unreachable: %v\n", addr, err)
			return
		}
		tr, ok := resp.(wire.TSDBResponse)
		if !ok {
			fmt.Fprintf(w, "%-20s error: unexpected reply %T\n", addr, resp)
			return
		}
		if tr.IntervalNs == 0 {
			fmt.Fprintf(w, "%-20s no time-series store (started with -tsdb-off?)\n", tr.Addr)
			return
		}
		if len(tr.Series) == 0 {
			fmt.Fprintf(w, "%-20s no series match %v\n", tr.Addr, patterns)
			return
		}
		fmt.Fprintf(w, "%s (1 sample per %v, oldest→newest):\n", tr.Addr, time.Duration(tr.IntervalNs))
		for _, sd := range tr.Series {
			vals := sd.Samples()
			lo, hi := vals[0], vals[0]
			for _, v := range vals {
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			fmt.Fprintf(w, "  %-56s %s  min=%d max=%d last=%d\n",
				sd.Name, sparkline(vals, lo, hi), lo, hi, vals[len(vals)-1])
		}
	})
}

// sparkline renders vals as one block character each, scaled to [lo, hi].
func sparkline(vals []int64, lo, hi int64) string {
	blocks := []rune("▁▂▃▄▅▆▇█")
	var b strings.Builder
	for _, v := range vals {
		idx := 0
		if hi > lo {
			idx = int(float64(v-lo) / float64(hi-lo) * float64(len(blocks)-1))
		}
		b.WriteRune(blocks[idx])
	}
	return b.String()
}

func requireArgs(args []string, n int) error {
	if len(args) < n {
		return fmt.Errorf("%w: %s: missing arguments", ErrUsage, args[0])
	}
	return nil
}
