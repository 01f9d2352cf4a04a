// Command milctl is a command-line client for semeld servers.
//
//	milctl -shards ":7001,:7002,:7003" get mykey
//	milctl -shards ":7001,:7002,:7003" put mykey myvalue
//	milctl -shards ":7001,:7002,:7003" del mykey
//	milctl -shards ":7001,:7002,:7003" txn get a put b 2 get c
//
// The txn subcommand executes its operation list inside one MILANA
// transaction: "get <key>" reads, "put <key> <value>" writes; the
// transaction commits at the end (read-only transactions validate locally).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
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

func main() {
	var (
		shards   = flag.String("shards", ":7001", "';'-separated shards, each a ','-separated replica list (primary first)")
		timeout  = flag.Duration("timeout", 5*time.Second, "per-command timeout")
		id       = flag.Uint("id", 1, "client id (must be unique per concurrent client)")
		traceTxn = flag.Bool("trace", false, "with txn: propagate a trace context and print the stitched cross-node timeline")
		interval = flag.Duration("interval", time.Second, "with top: refresh period")
		rounds   = flag.Int("rounds", 0, "with top: number of refreshes (0 = until interrupted)")
		samples  = flag.Int("samples", 60, "with history: samples pulled per series (0 = the full retained window)")
		callTO   = flag.Duration("call-timeout", transport.DefaultCallTimeout, "default per-RPC deadline when a command's context has none; negative disables")
	)
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: milctl [flags] get|put|del|txn|stats|trace|timehealth|walstatus|audit|top|history ...")
		os.Exit(2)
	}

	var sets []cluster.ReplicaSet
	for _, s := range strings.Split(*shards, ";") {
		addrs := strings.Split(s, ",")
		sets = append(sets, cluster.ReplicaSet{Primary: addrs[0], Backups: addrs[1:]})
	}
	dir, err := cluster.New(sets)
	if err != nil {
		log.Fatal(err)
	}
	net := transport.NewTCPClientOpts(transport.TCPClientOptions{CallTimeout: *callTO})
	defer net.Close()
	clk := clock.NewPerfect(clock.NewSystemSource(), uint32(*id))
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	switch args[0] {
	case "get":
		requireArgs(args, 2)
		cl := semel.NewClient(clk, net, dir)
		val, ver, found, err := cl.Get(ctx, []byte(args[1]))
		exitOn(err)
		if !found {
			fmt.Println("(not found)")
			return
		}
		fmt.Printf("%s\t(version %v)\n", val, ver)
	case "put":
		requireArgs(args, 3)
		cl := semel.NewClient(clk, net, dir)
		ver, err := cl.Put(ctx, []byte(args[1]), []byte(args[2]))
		exitOn(err)
		fmt.Printf("ok (version %v)\n", ver)
	case "del":
		requireArgs(args, 2)
		cl := semel.NewClient(clk, net, dir)
		exitOn(cl.Delete(ctx, []byte(args[1])))
		fmt.Println("ok")
	case "txn":
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
		if *traceTxn {
			cl.EnableTracing(0)
		}
		err := cl.RunTransaction(ctx, func(t *milana.Txn) error {
			ops := args[1:]
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
						fmt.Printf("%s = %s\n", ops[1], val)
					} else {
						fmt.Printf("%s = (not found)\n", ops[1])
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
		exitOn(err)
		fmt.Println("committed")
		printTxnStages(stageReg.Snapshot())
		if *traceTxn {
			spans := cl.Spans().Recent()
			if len(spans) == 0 {
				fmt.Println("(no trace recorded)")
				return
			}
			tid := spans[len(spans)-1].TraceID
			fmt.Printf("trace id %016x (also: milctl trace %016x)\n", tid, tid)
			printStitchedTrace(ctx, net, dir, tid, cl.Spans(), cl.Clock())
		}
	case "trace":
		requireArgs(args, 2)
		tid, err := parseTraceID(args[1])
		exitOn(err)
		printStitchedTrace(ctx, net, dir, tid, nil, nil)
	case "timehealth":
		fmt.Printf("%-20s %-7s %12s %12s %12s %12s %14s\n",
			"replica", "role", "offset", "residual", "drift", "uncertainty", "watermark lag")
		for i := 0; i < dir.NumShards(); i++ {
			rs, err := dir.Shard(cluster.ShardID(i))
			exitOn(err)
			for _, addr := range rs.Replicas() {
				resp, err := net.Call(ctx, addr, wire.TimeHealthRequest{})
				if err != nil {
					fmt.Printf("%-20s unreachable: %v\n", addr, err)
					continue
				}
				th, ok := resp.(wire.TimeHealthResponse)
				if !ok {
					fmt.Printf("%-20s error: unexpected reply %T\n", addr, resp)
					continue
				}
				role := "backup"
				if th.Primary {
					role = "primary"
				}
				fmt.Printf("%-20s %-7s %12v %12v %12v %12v %14v\n",
					th.Addr, role,
					time.Duration(th.Clock.OffsetNs), time.Duration(th.Clock.ResidualNs),
					time.Duration(th.Clock.DriftNs), time.Duration(th.Clock.UncertaintyNs),
					time.Duration(th.WatermarkLagNs))
			}
		}
	case "walstatus":
		fmt.Printf("%-20s %-8s %12s %12s %12s %9s %10s %14s %12s\n",
			"replica", "wal", "appended", "durable", "checkpoint", "segments", "fsyncs", "replay recs", "replay time")
		for i := 0; i < dir.NumShards(); i++ {
			rs, err := dir.Shard(cluster.ShardID(i))
			exitOn(err)
			for _, addr := range rs.Replicas() {
				resp, err := net.Call(ctx, addr, wire.WALStatusRequest{})
				if err != nil {
					fmt.Printf("%-20s unreachable: %v\n", addr, err)
					continue
				}
				ws, ok := resp.(wire.WALStatusResponse)
				if !ok {
					fmt.Printf("%-20s error: unexpected reply %T\n", addr, resp)
					continue
				}
				if !ws.Enabled {
					fmt.Printf("%-20s %-8s (DRAM-only: an amnesia kill loses acked state)\n", ws.Addr, "off")
					continue
				}
				fmt.Printf("%-20s %-8s %12d %12d %12d %9d %10d %14d %12v\n",
					ws.Addr, "on",
					ws.AppendedLSN, ws.DurableLSN, ws.CheckpointLSN,
					ws.Segments, ws.Fsyncs,
					ws.ReplayRecords, time.Duration(ws.ReplayNs))
			}
		}
	case "stats":
		var merged obs.Snapshot
		for i := 0; i < dir.NumShards(); i++ {
			rs, err := dir.Shard(cluster.ShardID(i))
			exitOn(err)
			for _, addr := range rs.Replicas() {
				resp, err := net.Call(ctx, addr, wire.StatsRequest{Detailed: true})
				if err != nil {
					fmt.Printf("%-20s unreachable: %v\n", addr, err)
					continue
				}
				st, ok := resp.(wire.StatsResponse)
				if !ok {
					// A replica that answered with something else (an old
					// binary, a misrouted error value) is reported, not
					// silently skipped.
					fmt.Printf("%-20s error: unexpected reply %T\n", addr, resp)
					continue
				}
				role := "backup"
				if st.Primary {
					role = "primary"
				}
				fmt.Printf("%-20s shard %d %-7s gets=%d puts=%d dels=%d prepares=%d commits=%d aborts=%d repl=%d wm=%v\n",
					addr, st.Shard, role, st.Gets, st.Puts, st.Deletes, st.Prepares, st.Commits, st.Aborts, st.ReplOps, st.Watermark)
				merged.Merge(st.Obs)
			}
		}
		printLatencyTable("transaction stages (cluster-wide)", merged, "milana_txn_stage_ns")
		printLatencyTable("server op latency (cluster-wide)", merged, "semel_serve_ns")
		printLatencyTable("server stage ledger (per-request attribution)", merged, "server_stage_ledger_ns")
		printLatencyTable("parks on a prepared mark (wait)", merged, "milana_park_ns")
		printCounterTable("abort reasons", merged, "milana_aborts_total")
		printCounterTable("parks expired (bound or context)", merged, "milana_park_expired_total")
		printCounterTable("sweep outcomes", merged, "milana_sweep_total")
		printCounterTable("admission sheds (by priority)", merged, "admission_shed_total")
		printCounterTable("deadline drops (admission)", merged, "admission_deadline_dropped_total")
		printCounterTable("deadline drops (wire)", merged, "transport_deadline_expired_total")
		printExemplars(merged, "semel_serve_ns")
	case "audit":
		raw := len(args) > 1 && args[1] == "json"
		runAudit(ctx, net, dir, raw)
	case "top":
		runTop(net, dir, *timeout, *interval, *rounds)
	case "history":
		runHistory(ctx, net, dir, args[1:], *samples)
	default:
		fmt.Fprintf(os.Stderr, "unknown command %q\n", args[0])
		os.Exit(2)
	}
}

// printTxnStages renders the client stage ledger folded over the whole
// milctl txn (every attempt, if it retried) as one line of where the wall
// time went. Stages that never accrued time are omitted.
func printTxnStages(snap obs.Snapshot) {
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
	fmt.Printf("stages (%d attempts, e2e %v): %s\n",
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
func printStitchedTrace(ctx context.Context, net transport.Client, dir *cluster.Directory, tid uint64, local *obs.SpanStore, localClk clock.Clock) {
	col := obs.NewCollector()
	if local != nil {
		col.AddSpans(local.ForTrace(tid))
		if hr, ok := localClk.(clock.HealthReporter); ok {
			h := hr.Health()
			col.SetNodeClock(obs.NodeClock{Node: local.Node(), OffsetNs: h.OffsetNs, UncertaintyNs: h.UncertaintyNs})
		}
	}
	for i := 0; i < dir.NumShards(); i++ {
		rs, err := dir.Shard(cluster.ShardID(i))
		exitOn(err)
		for _, addr := range rs.Replicas() {
			resp, err := net.Call(ctx, addr, wire.TraceRequest{TraceID: tid})
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s unreachable: %v\n", addr, err)
				continue
			}
			tr, ok := resp.(wire.TraceResponse)
			if !ok {
				fmt.Fprintf(os.Stderr, "%s: unexpected reply %T\n", addr, resp)
				continue
			}
			col.AddSpans(tr.Spans)
			col.SetNodeClock(obs.NodeClock{Node: tr.Addr, OffsetNs: tr.Clock.OffsetNs, UncertaintyNs: tr.Clock.UncertaintyNs})
		}
	}
	fmt.Print(col.Assemble(tid).Render())
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
func printLatencyTable(title string, snap obs.Snapshot, prefix string) {
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
	fmt.Printf("\n%s\n", title)
	fmt.Printf("  %-16s %10s %12s %12s %12s\n", "", "count", "p50", "p95", "p99")
	for _, name := range names {
		h := snap.Hists[name]
		p50, p95, p99, _ := h.Percentiles()
		fmt.Printf("  %-16s %10d %12v %12v %12v\n",
			labelValue(name), h.Count, time.Duration(p50), time.Duration(p95), time.Duration(p99))
	}
}

// printCounterTable renders every non-zero counter under prefix.
func printCounterTable(title string, snap obs.Snapshot, prefix string) {
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
	fmt.Printf("\n%s\n", title)
	for _, name := range names {
		fmt.Printf("  %-24s %d\n", labelValue(name), snap.Counters[name])
	}
}

// printExemplars renders the slowest remembered traces for every histogram
// under prefix, so a tail spike in the latency table above is one
// `milctl trace` away from its stitched timeline.
func printExemplars(snap obs.Snapshot, prefix string) {
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
	fmt.Printf("\nslowest traced requests (inspect with: milctl trace <id>)\n")
	for _, name := range names {
		for _, ex := range snap.Hists[name].TopExemplars(3) {
			fmt.Printf("  %-16s %12v-%-12v trace %016x\n",
				labelValue(name), time.Duration(ex.LoNs), time.Duration(ex.HiNs), ex.TraceID)
		}
	}
}

// forEachReplica calls fn with every replica address of every shard.
func forEachReplica(dir *cluster.Directory, fn func(shard int, addr string)) {
	for i := 0; i < dir.NumShards(); i++ {
		rs, err := dir.Shard(cluster.ShardID(i))
		exitOn(err)
		for _, addr := range rs.Replicas() {
			fn(i, addr)
		}
	}
}

// runAudit pulls the online-audit state from every replica: a per-node
// summary line, then every retained flight-recorder artifact. With raw set,
// artifacts are dumped as their original JSON instead of the condensed view.
func runAudit(ctx context.Context, net transport.Client, dir *cluster.Directory, raw bool) {
	fmt.Printf("%-20s %-8s %-10s %8s %8s %8s %8s %6s %6s\n",
		"replica", "enabled", "profile", "pending", "unknown", "checked", "skipped", "convc", "epsv")
	type nodeArt struct {
		addr string
		blob []byte
	}
	var arts []nodeArt
	forEachReplica(dir, func(_ int, addr string) {
		resp, err := net.Call(ctx, addr, wire.AuditRequest{})
		if err != nil {
			fmt.Printf("%-20s unreachable: %v\n", addr, err)
			return
		}
		ar, ok := resp.(wire.AuditResponse)
		if !ok {
			fmt.Printf("%-20s error: unexpected reply %T\n", addr, resp)
			return
		}
		fmt.Printf("%-20s %-8v %-10s %8d %8d %8d %8d %6d %6d\n",
			ar.Addr, ar.Enabled, ar.Profile, ar.Pending, ar.UnknownRetained,
			ar.WindowsChecked, ar.WindowsSkipped, ar.Convictions, ar.EpsilonViolations)
		for _, blob := range ar.Artifacts {
			arts = append(arts, nodeArt{addr: ar.Addr, blob: blob})
		}
	})
	if len(arts) == 0 {
		fmt.Println("\nno artifacts recorded")
		return
	}
	fmt.Printf("\n%d artifact(s)\n", len(arts))
	for _, na := range arts {
		if raw {
			fmt.Printf("--- %s ---\n%s\n", na.addr, na.blob)
			continue
		}
		var art audit.Artifact
		if err := json.Unmarshal(na.blob, &art); err != nil {
			fmt.Printf("  %s: undecodable artifact: %v\n", na.addr, err)
			continue
		}
		fmt.Printf("  [%s #%d] %s %s\n", na.addr, art.Seq, art.Kind, art.Wallclock)
		switch art.Kind {
		case audit.KindConviction:
			fmt.Printf("    anomaly: %s\n", art.Anomaly)
			if len(art.Cycle) > 0 {
				fmt.Printf("    cycle:")
				for _, e := range art.Cycle {
					fmt.Printf(" %v-%s->%v", e.From, e.Kind, e.To)
				}
				fmt.Println()
			}
			fmt.Printf("    window: %d txns, cut %v, %d span(s) attached\n",
				len(art.Window), art.Cut, len(art.Spans))
		case audit.KindEpsilonViolation:
			fmt.Printf("    txn %v commit_ts %v exceeded bound by %v (epsilon %v)\n",
				art.TxnID, art.CommitTs, time.Duration(-art.MarginNs), time.Duration(art.Epsilon))
		case audit.KindWatchdogAlert:
			fmt.Printf("    rule %s convicted %q: %s (value %g, threshold %g)\n",
				art.Rule, art.Series, art.Anomaly, art.Value, art.Threshold)
		}
	}
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

// gatherTop polls every replica once for stats, time health, and audit state.
func gatherTop(ctx context.Context, net transport.Client, dir *cluster.Directory) topSample {
	s := topSample{when: time.Now()}
	forEachReplica(dir, func(_ int, addr string) {
		resp, err := net.Call(ctx, addr, wire.StatsRequest{Detailed: true})
		if err != nil {
			s.unreached++
			return
		}
		st, ok := resp.(wire.StatsResponse)
		if !ok {
			s.unreached++
			return
		}
		// Commit/abort decisions are recorded on primaries; backups see
		// only replication traffic, so summing across roles is safe.
		if st.Primary {
			s.commits += int64(st.Commits)
			s.aborts += int64(st.Aborts)
		}
		s.merged.Merge(st.Obs)
		if resp, err := net.Call(ctx, addr, wire.TimeHealthRequest{}); err == nil {
			if th, ok := resp.(wire.TimeHealthResponse); ok {
				if lag := time.Duration(th.WatermarkLagNs); lag > s.wmLagMax {
					s.wmLagMax = lag
				}
			}
		}
		if resp, err := net.Call(ctx, addr, wire.AuditRequest{}); err == nil {
			if ar, ok := resp.(wire.AuditResponse); ok && ar.Enabled {
				s.epsViol += ar.EpsilonViolations
				s.convc += ar.Convictions
			}
		}
	})
	return s
}

// runTop renders a single-screen, auto-refreshing cluster view. Each refresh
// repolls every replica with a fresh timeout; throughput is the commit delta
// between consecutive refreshes.
func runTop(net transport.Client, dir *cluster.Directory, timeout, interval time.Duration, rounds int) {
	var prev *topSample
	for n := 0; rounds == 0 || n < rounds; n++ {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		s := gatherTop(ctx, net, dir)
		cancel()

		fmt.Print("\033[2J\033[H") // clear screen, cursor home
		fmt.Printf("milctl top — %s  (refresh %v", s.when.Format("15:04:05"), interval)
		if s.unreached > 0 {
			fmt.Printf(", %d replica(s) unreachable", s.unreached)
		}
		fmt.Println(")")

		if prev != nil {
			dt := s.when.Sub(prev.when).Seconds()
			if dt > 0 {
				fmt.Printf("\nthroughput: %8.1f commits/s  %8.1f aborts/s\n",
					float64(s.commits-prev.commits)/dt, float64(s.aborts-prev.aborts)/dt)
			}
		} else {
			fmt.Printf("\nthroughput: (first sample: %d commits, %d aborts total)\n", s.commits, s.aborts)
		}

		var stages obs.HistogramSnapshot
		for name, h := range s.merged.Hists {
			if strings.HasPrefix(name, "milana_txn_stage_ns") {
				stages.Merge(h)
			}
		}
		p50, p95, p99, _ := stages.Percentiles()
		fmt.Printf("latency:    p50=%-10v p95=%-10v p99=%-10v (all txn stages)\n",
			time.Duration(p50), time.Duration(p95), time.Duration(p99))
		fmt.Printf("watermark:  max lag %v\n", s.wmLagMax)
		fmt.Printf("audit:      %d epsilon violation(s), %d conviction(s)\n", s.epsViol, s.convc)
		var sheds, ddrops int64
		for name, v := range s.merged.Counters {
			if strings.HasPrefix(name, "admission_shed_total") {
				sheds += v
			}
			if name == "admission_deadline_dropped_total" || name == "transport_deadline_expired_total" {
				ddrops += v
			}
		}
		fmt.Printf("overload:   %d shed, %d dropped at deadline\n", sheds, ddrops)
		printLatencyTable("server stage breakdown", s.merged, "server_stage_ledger_ns")
		printCounterTable("abort reasons", s.merged, "milana_aborts_total")
		printCounterTable("admission sheds (by priority)", s.merged, "admission_shed_total")
		printCounterTable("watchdog alerts", s.merged, "obs_alerts_total")

		prev = &s
		if rounds == 0 || n < rounds-1 {
			time.Sleep(interval)
		}
	}
}

// runHistory pulls recent samples from every replica's embedded time-series
// store and renders one sparkline per matching series. Patterns are substring
// filters over series names; with none, every series prints (noisy — filter).
func runHistory(ctx context.Context, net transport.Client, dir *cluster.Directory, patterns []string, lastN int) {
	forEachReplica(dir, func(_ int, addr string) {
		resp, err := net.Call(ctx, addr, wire.TSDBRequest{Patterns: patterns, LastN: lastN})
		if err != nil {
			fmt.Printf("%-20s unreachable: %v\n", addr, err)
			return
		}
		tr, ok := resp.(wire.TSDBResponse)
		if !ok {
			fmt.Printf("%-20s error: unexpected reply %T\n", addr, resp)
			return
		}
		if tr.IntervalNs == 0 {
			fmt.Printf("%-20s no time-series store (started with -tsdb-off?)\n", tr.Addr)
			return
		}
		if len(tr.Series) == 0 {
			fmt.Printf("%-20s no series match %v\n", tr.Addr, patterns)
			return
		}
		fmt.Printf("%s (1 sample per %v, oldest→newest):\n", tr.Addr, time.Duration(tr.IntervalNs))
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
			fmt.Printf("  %-56s %s  min=%d max=%d last=%d\n",
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

func requireArgs(args []string, n int) {
	if len(args) < n {
		fmt.Fprintf(os.Stderr, "%s: missing arguments\n", args[0])
		os.Exit(2)
	}
}

func exitOn(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
