package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/check"
	"repro/internal/wire"
)

// The ledger below turns what the traced pass recorded into the per-layer
// metrics. Three things feed it: the spans the wrappers recorded, the
// layers' own Stats counters read at the window's edges, and the runtime's
// accounting of the process.

const (
	maxTrees      = 10000 // transactions whose span trees are built; more are thinned by stride
	traceFileTxns = 500   // transactions written to the trace file
)

// ref locates one attempt: a root and an attempt within it.
type ref struct {
	root    int32
	attempt int32
}

// layer names the package a tree node's self time is charged to.
type layer uint8

const (
	layerMilana layer = iota
	layerTransport
	layerSemel
	layerStorage
)

var layerNames = []string{"milana", "transport", "semel", "storage"}

// treeNode is node plus what the ledger and the trace file need to name it.
type treeNode struct {
	layer layer
	name  string
	at    uint8 // node it ran on
	peer  uint8
	txn   wire.TxnID
}

// ledger collects duration samples (ns) and counts over the traced window.
type ledger struct {
	commits float64 // transactions committed inside the window
	seconds float64

	execute, commitRW, clientSelf, abortedAttempt []int64
	clientCall, clientCallSelf                    []int64
	clientCalls                                   int64
	serve                                         [numOps][]int64
	serveSelf                                     []int64
	replCall                                      []int64
	replOps                                       int64
	put, get                                      []int64
	putBytes                                      int64
	sleeps, sleepAsked, sleepTook                 int64
	fsync                                         []int64
	fsyncTook                                     int64

	trees          int
	worstImbalance float64 // max over trees of |Σ self − root| ÷ root
	file           []fileSpan
}

// fileSpan is one span as the trace file spells it.
type fileSpan struct {
	Trace  string  `json:"trace"` // "s<session>.<n>" of the RunTransaction call; "" for node-level work
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // id within the same trace; -1 for a tree's root
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	Node   string  `json:"node"`
	Peer   string  `json:"peer,omitempty"`
	Txn    string  `json:"txn,omitempty"` // wire.TxnID of the attempt
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	Self   float64 `json:"self_ns"`
}

// buildLedger joins every span to its transaction attempt, builds the
// per-transaction trees, and accumulates the samples.
func buildLedger(tr *tracer, hist []check.Txn, seconds int, commits float64) *ledger {
	lg := &ledger{commits: commits, seconds: float64(seconds)}
	closed := tr.closedAt

	var roots []*root
	for _, s := range tr.sessions {
		for i := range s.roots {
			if s.roots[i].end > 0 { // finished
				roots = append(roots, &s.roots[i])
			}
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].start < roots[j].start })

	// Every identity a request can carry, mapped to its attempt.
	refs := make(map[ident]ref)
	for ri, r := range roots {
		for ai, a := range r.attempts {
			at := ref{int32(ri), int32(ai)}
			refs[txnIdent(a.id)] = at
			refs[tsIdent(idBegin, a.begin)] = at
		}
	}
	for _, t := range hist {
		if at, ok := refs[txnIdent(t.ID)]; ok && !t.Commit.IsZero() {
			refs[tsIdent(idCommit, t.Commit)] = at
		}
	}

	all := tr.spans()
	// Group span indices by root with a counting sort; -1 = no transaction.
	owner := make([]ref, len(all))
	perRoot := make([]int32, len(roots)+1)
	for i, s := range all {
		owner[i] = ref{-1, -1}
		if s.id.kind != idNone {
			if at, ok := refs[s.id]; ok {
				owner[i] = at
				perRoot[at.root+1]++
			}
		}
		if s.start < closed {
			lg.aggregate(s)
		}
	}
	for i := 1; i < len(perRoot); i++ {
		perRoot[i] += perRoot[i-1]
	}
	order := make([]int32, perRoot[len(roots)])
	fill := append([]int32(nil), perRoot[:len(roots)]...)
	for i := range all {
		if r := owner[i].root; r >= 0 {
			order[fill[r]] = int32(i)
			fill[r]++
		}
	}

	stride := 1
	if len(roots) > maxTrees {
		stride = (len(roots) + maxTrees - 1) / maxTrees
	}
	for ri, r := range roots {
		for _, a := range r.attempts {
			if a.start < closed {
				lg.execute = append(lg.execute, a.execEnd-a.start)
				if !a.committed {
					lg.abortedAttempt = append(lg.abortedAttempt, a.end-a.start)
				} else if !r.readOnly {
					lg.commitRW = append(lg.commitRW, a.end-a.execEnd)
				}
			}
		}
		if ri%stride != 0 {
			continue
		}
		mine := order[perRoot[ri]:perRoot[ri+1]]
		lg.tree(tr, r, all, owner, mine, lg.trees < traceFileTxns)
	}
	for _, sample := range [][]int64{
		lg.execute, lg.commitRW, lg.clientSelf, lg.abortedAttempt, lg.clientCall, lg.clientCallSelf,
		lg.serveSelf, lg.replCall, lg.put, lg.get, lg.fsync,
		lg.serve[opGet], lg.serve[opMultiGet], lg.serve[opPrepare], lg.serve[opDecision], lg.serve[opReplicate],
	} {
		sortInt64(sample) // once, for every quantile read from it
	}
	// Node-level work (flash sleeps, fsyncs) that overlaps the transactions
	// in the trace file goes into it too, with no trace of its own.
	if n := len(lg.file); n > 0 {
		lo, hi := lg.file[0].Start, lg.file[0].End
		for _, f := range lg.file {
			if f.End > hi {
				hi = f.End
			}
		}
		for _, s := range all {
			if (s.kind == kindSleep || s.kind == kindFsync) && s.start >= lo && s.start <= hi {
				name, lay := "sleep", "flash"
				if s.kind == kindFsync {
					name, lay = "fsync", "wal"
				}
				lg.file = append(lg.file, fileSpan{ID: len(lg.file), Parent: -1, Layer: lay, Name: name, Node: tr.nodeName(s.node), Start: s.start, End: s.end, Self: float64(s.end - s.start)})
			}
		}
	}
	return lg
}

// aggregate adds one span to the duration samples and counts, whether or
// not it could be joined to a transaction.
func (lg *ledger) aggregate(s span) {
	d := s.end - s.start
	switch {
	case s.kind < kindServe:
		if s.node == 0 {
			lg.clientCalls++
			lg.clientCall = append(lg.clientCall, d)
		} else if op(s.kind-kindCall) == opReplicate {
			lg.replCall = append(lg.replCall, d)
			lg.replOps += s.arg
		}
	case s.kind < kindStoragePut:
		o := op(s.kind - kindServe)
		lg.serve[o] = append(lg.serve[o], d)
	case s.kind == kindStoragePut:
		lg.put = append(lg.put, d)
		lg.putBytes += s.arg
	case s.kind == kindStorageGet:
		lg.get = append(lg.get, d)
	case s.kind == kindSleep:
		lg.sleeps++
		lg.sleepAsked += s.arg
		lg.sleepTook += d
	case s.kind == kindFsync:
		lg.fsync = append(lg.fsync, d)
		lg.fsyncTook += d
	}
}

// tree builds one RunTransaction call's span tree, computes self times, and
// adds them to the ledger. A span's parent is the latest-starting span of
// the same attempt, one layer up and on the right node, that was open when
// it started: a server's serve under the call addressed to that server, a
// replication call or a storage operation under the serve running on its
// node. A span with no such parent — the asynchronous decision a client
// sends after RunTransaction has returned — starts a tree of its own, so
// its self times still count but the transaction's identity does not
// include it.
func (lg *ledger) tree(tr *tracer, r *root, all []span, owner []ref, mine []int32, toFile bool) {
	nodes := []node{{start: r.start, end: r.end, parent: -1}}
	info := []treeNode{{layer: layerMilana, name: "txn"}}
	phase := make([][2]int, len(r.attempts)) // attempt → its execute and commit nodes
	for ai, a := range r.attempts {
		at := len(nodes)
		nodes = append(nodes,
			node{start: a.start, end: a.end, parent: 0},
			node{start: a.start, end: a.execEnd, parent: at},
			node{start: a.execEnd, end: a.end, parent: at})
		info = append(info,
			treeNode{layer: layerMilana, name: "attempt", txn: a.id},
			treeNode{layer: layerMilana, name: "execute", txn: a.id},
			treeNode{layer: layerMilana, name: "commit", txn: a.id})
		phase[ai] = [2]int{at + 1, at + 2}
	}
	clientNodes := len(nodes)

	sort.Slice(mine, func(i, j int) bool {
		a, b := all[mine[i]], all[mine[j]]
		if a.start != b.start {
			return a.start < b.start
		}
		return a.kind < b.kind // a call opens before the serve it causes
	})
	first := len(nodes)
	for _, si := range mine {
		s := all[si]
		a := r.attempts[owner[si].attempt]
		tn := treeNode{at: s.node, peer: s.peer, txn: a.id}
		parent := -1
		// within reports whether node p was open when s started.
		within := func(p int) bool { return nodes[p].start <= s.start && s.start <= nodes[p].end }
		// serveHere accepts a serve span running on the node s ran on.
		serveHere := func(p span) bool { return p.kind >= kindServe && p.kind < kindStoragePut && p.node == s.node }
		// latest finds the latest-starting earlier span of this attempt
		// that was open when s started and that ok accepts.
		latest := func(ok func(p span) bool) {
			for k := len(nodes) - 1; k >= first; k-- {
				p := all[mine[k-first]]
				if owner[mine[k-first]].attempt == owner[si].attempt && within(k) && ok(p) {
					parent = k
					return
				}
			}
		}
		switch {
		case s.kind < kindServe:
			o := op(s.kind - kindCall)
			tn.layer, tn.name = layerTransport, "call."+opNames[o]
			if s.node == 0 {
				p := phase[owner[si].attempt][1]
				if o == opGet || o == opMultiGet {
					p = phase[owner[si].attempt][0]
				}
				if within(p) {
					parent = p
				}
			} else {
				latest(serveHere)
			}
		case s.kind < kindStoragePut:
			o := op(s.kind - kindServe)
			tn.layer, tn.name = layerSemel, "serve."+opNames[o]
			latest(func(p span) bool { return p.kind == kindCall+kind(o) && p.peer == s.node })
		default:
			tn.layer, tn.name = layerStorage, "put"
			if s.kind == kindStorageGet {
				tn.name = "get"
			}
			latest(serveHere)
		}
		nodes = append(nodes, node{start: s.start, end: s.end, parent: parent})
		info = append(info, tn)
	}

	selfTimes(nodes)

	// Walk up to each node's tree root: only the main tree counts toward
	// the transaction's identity.
	var sum, clientSelf float64
	for i := range nodes {
		p := i
		for nodes[p].parent >= 0 {
			p = nodes[p].parent
		}
		if p == 0 {
			sum += nodes[i].self
		}
		self := int64(nodes[i].self)
		switch {
		case i < clientNodes:
			clientSelf += nodes[i].self
		case info[i].layer == layerTransport && info[i].at == 0:
			lg.clientCallSelf = append(lg.clientCallSelf, self)
		case info[i].layer == layerSemel:
			lg.serveSelf = append(lg.serveSelf, self)
		}
	}
	if r.ok {
		lg.clientSelf = append(lg.clientSelf, int64(clientSelf))
	}
	if d := float64(r.end - r.start); d > 0 {
		imb := (sum - d) / d
		if imb < 0 {
			imb = -imb
		}
		if imb > lg.worstImbalance {
			lg.worstImbalance = imb
		}
	}
	lg.trees++

	if !toFile {
		return
	}
	trace := fmt.Sprintf("s%d.%d", r.session, lg.trees)
	base := len(lg.file)
	for i, n := range nodes {
		parent := n.parent
		if parent >= 0 {
			parent += base
		}
		f := fileSpan{
			Trace: trace, ID: base + i, Parent: parent,
			Layer: layerNames[info[i].layer], Name: info[i].name,
			Node: tr.nodeName(info[i].at), Start: n.start, End: n.end, Self: n.self,
		}
		if info[i].layer == layerTransport {
			f.Peer = tr.nodeName(info[i].peer)
		}
		if i > 0 {
			f.Txn = info[i].txn.String()
		}
		lg.file = append(lg.file, f)
	}
}

// writeTrace writes the sampled transactions' spans to path.
func (lg *ledger) writeTrace(path, workload string, seed int64) error {
	doc := struct {
		Workload string     `json:"workload"`
		Seed     int64      `json:"seed"`
		Note     string     `json:"note"`
		Spans    []fileSpan `json:"spans"`
	}{
		Workload: workload, Seed: seed,
		Note:  "first transactions of the traced window; times are ns since the tracer's epoch; self_ns is the span's duration minus what its children cover, parallel children sharing the covered time, so self_ns sums to the root span over each trace's main tree; see benchmark/README.md",
		Spans: lg.file,
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantileUs is the q-quantile of a sorted duration sample in microseconds;
// an empty sample (a layer the workload does not use) is zero.
func quantileUs(sorted []int64, q float64) float64 {
	return float64(quantileOf(sorted, q)) / 1e3
}

// perLayerMetrics fills in every metric of the perLayer table. ref is the
// untraced reference window driven just before the traced one: proc.* comes
// from it, because tracing itself costs CPU and allocations. refE2E and
// tracedE2E are the two windows' end-to-end results.
func perLayerMetrics(out *passResult, lg *ledger, tr *tracer, traced, ref *loadResult, tracedE2E, refE2E *passResult, wc wireCost) {
	refCommits := total(refE2E.Windows)
	set := func(name string, v float64) {
		for _, m := range perLayer {
			if m.Name == name {
				out.Metrics[name] = value{Value: v, Unit: m.Unit}
				return
			}
		}
		panic("benchmark: metric " + name + " is not in the perLayer table")
	}
	txns := lg.commits

	rb, ra := ref.before, ref.after
	set("proc.cpu_ms_per_txn", ratio(float64(ra.cpu-rb.cpu)/1e6, refCommits))
	set("proc.allocs_per_txn", ratio(float64(ra.mallocs-rb.mallocs), refCommits))
	set("proc.gc_pause_ms_per_s", ratio(float64(ra.gcPause-rb.gcPause)/1e6, float64(ref.seconds)))
	set("trace.overhead_ratio", ratio(tracedE2E.Metrics["txn_per_s"].Value, refE2E.Metrics["txn_per_s"].Value))

	b, a := traced.before, traced.after
	committed := float64(a.milana.Committed - b.milana.Committed)
	aborted := float64(a.milana.Aborted - b.milana.Aborted)
	reason := func(r wire.AbortReason) float64 {
		return float64(a.milana.AbortsByReason[r] - b.milana.AbortsByReason[r])
	}
	set("milana.attempts_per_commit", ratio(committed+aborted, committed))
	set("milana.abort_ratio", ratio(aborted, committed+aborted))
	set("milana.abort_read_prepared_share", ratio(reason(wire.AbortReadPrepared), aborted))
	set("milana.abort_late_write_share", ratio(reason(wire.AbortLateWriteRead)+reason(wire.AbortLateWrite), aborted))
	set("milana.local_validated_share", ratio(float64(a.milana.LocalValidated-b.milana.LocalValidated), float64(a.milana.ReadOnly-b.milana.ReadOnly)))
	set("milana.execute_p50_us", quantileUs(lg.execute, 0.5))
	set("milana.commit_p50_us", quantileUs(lg.commitRW, 0.5))
	set("milana.commit_p99_us", quantileUs(lg.commitRW, 0.99))
	set("milana.client_self_p50_us", quantileUs(lg.clientSelf, 0.5))
	set("milana.aborted_attempt_p50_us", quantileUs(lg.abortedAttempt, 0.5))

	set("transport.calls_per_txn", ratio(float64(lg.clientCalls), txns))
	set("transport.call_p50_us", quantileUs(lg.clientCall, 0.5))
	set("transport.call_p99_us", quantileUs(lg.clientCall, 0.99))
	set("transport.self_p50_us", quantileUs(lg.clientCallSelf, 0.5))

	set("wire.roundtrip_ns_per_msg", wc.nsPerMsg)
	set("wire.bytes_per_msg", wc.bytesPerMsg)
	set("wire.allocs_per_msg", wc.allocsPerMsg)

	set("semel.serve_get_p50_us", quantileUs(lg.serve[opGet], 0.5))
	set("semel.serve_multiget_p50_us", quantileUs(lg.serve[opMultiGet], 0.5))
	set("semel.serve_prepare_p50_us", quantileUs(lg.serve[opPrepare], 0.5))
	set("semel.serve_prepare_p99_us", quantileUs(lg.serve[opPrepare], 0.99))
	set("semel.serve_decision_p50_us", quantileUs(lg.serve[opDecision], 0.5))
	set("semel.serve_replicate_p50_us", quantileUs(lg.serve[opReplicate], 0.5))
	set("semel.serve_self_p50_us", quantileUs(lg.serveSelf, 0.5))
	set("semel.repl_calls_per_txn", ratio(float64(len(lg.replCall)), txns))
	set("semel.repl_ops_per_call", ratio(float64(lg.replOps), float64(len(lg.replCall))))
	set("semel.repl_call_p50_us", quantileUs(lg.replCall, 0.5))

	set("storage.put_p50_us", quantileUs(lg.put, 0.5))
	set("storage.put_p99_us", quantileUs(lg.put, 0.99))
	set("storage.get_p50_us", quantileUs(lg.get, 0.5))
	set("storage.get_p99_us", quantileUs(lg.get, 0.99))
	set("storage.puts_per_txn", ratio(float64(len(lg.put)), txns))
	set("storage.gets_per_txn", ratio(float64(len(lg.get)), txns))

	programs := float64(a.flash.Programs - b.flash.Programs)
	set("mvftl.gc_relocated", float64(a.mvftl.GCRelocated-b.mvftl.GCRelocated))
	set("mvftl.gc_erased", float64(a.mvftl.GCErased-b.mvftl.GCErased))
	set("mvftl.write_amp", ratio(programs*float64(mftlGeometry.PageSize), float64(lg.putBytes)))

	set("flash.sleeps_per_txn", ratio(float64(lg.sleeps), txns))
	set("flash.sleep_overshoot_ratio", ratio(float64(lg.sleepTook), float64(lg.sleepAsked)))
	set("flash.programs_per_txn", ratio(programs, txns))
	set("flash.reads_per_txn", ratio(float64(a.flash.Reads-b.flash.Reads), txns))
	set("flash.busy_ms_per_s", ratio(float64(lg.sleepTook)/1e6, lg.seconds))

	fsyncs := float64(a.wal.Fsyncs - b.wal.Fsyncs)
	set("wal.fsyncs_per_txn", ratio(fsyncs, txns))
	set("wal.records_per_fsync", ratio(float64(a.wal.AppendedLSN-b.wal.AppendedLSN), fsyncs))
	set("wal.fsync_p50_us", quantileUs(lg.fsync, 0.5))
	set("wal.fsync_p99_us", quantileUs(lg.fsync, 0.99))
	set("wal.bytes_per_txn", ratio(float64(a.wal.Bytes-b.wal.Bytes), txns))
	set("wal.fsync_busy_ms_per_s", ratio(float64(lg.fsyncTook)/1e6, lg.seconds))

	set("clock.now_ns_per_call", ratio(float64(tr.nowNs.Load()), float64(tr.nowCalls.Load())))
	set("clock.now_calls_per_txn", ratio(float64(tr.nowCalls.Load()), txns))
}

// wireCost is the price of the codec alone on the messages the sessions
// actually exchanged.
type wireCost struct{ nsPerMsg, bytesPerMsg, allocsPerMsg float64 }

// measureWire re-runs the captured sample through wire.Codec.Append and
// Decode with the cluster shut down, so nothing else is allocating.
func measureWire(msgs []any) wireCost {
	const passes = 5
	if len(msgs) == 0 {
		return wireCost{}
	}
	var (
		buf     []byte
		bytes   int
		encoded int
		perPass []float64
		m0, m1  runtime.MemStats
	)
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for p := 0; p < passes; p++ {
		bytes, encoded = 0, 0
		start := time.Now()
		for _, m := range msgs {
			var err error
			if buf, err = wire.Codec.Append(buf[:0], m); err != nil {
				continue // no codec for this type: the transport would fall back to gob
			}
			if _, err = wire.Codec.Decode(buf); err != nil {
				continue
			}
			bytes += len(buf)
			encoded++
		}
		perPass = append(perPass, ratio(float64(time.Since(start)), float64(encoded)))
	}
	runtime.ReadMemStats(&m1)
	return wireCost{
		nsPerMsg:     median(perPass),
		bytesPerMsg:  ratio(float64(bytes), float64(encoded)),
		allocsPerMsg: ratio(float64(m1.Mallocs-m0.Mallocs), float64(passes*encoded)),
	}
}
