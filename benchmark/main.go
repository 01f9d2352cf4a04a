// Command benchmark is the repository's benchmark: four Retwis transaction
// workloads driven through milana.Client.RunTransaction against clusters it
// assembles in-process, six end-to-end metrics measured with tracing off,
// and a per-layer ledger from a second, traced pass that times the calls
// into each layer's public interface from this directory's own files.
// README.md says why each workload and metric exists.
//
//	bash benchmark/run.sh                                   every workload, both passes, result file
//	bash benchmark/run.sh -only bus-wal                     one workload, both passes
//	bash benchmark/run.sh -workload W -seed N -seconds S -trace 0|1   one pass, result on the last line
//	bash benchmark/run.sh -compare A.json B.json            verdict per workload and metric
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// environment is recorded with every result; none of it is a metric.
type environment struct {
	Commit         string  `json:"commit"`
	Go             string  `json:"go"`
	NumCPU         int     `json:"nproc"`
	GoMaxProcs     int     `json:"gomaxprocs"`
	SleepQuantumUs float64 `json:"sleep_quantum_us"` // what time.Sleep(50µs) really takes, back to back
	Seed           int64   `json:"seed"`
}

// resultFile is what a full run writes and -compare reads.
type resultFile struct {
	Env     environment   `json:"env"`
	Seconds int           `json:"seconds"`
	Passes  []*passResult `json:"passes"`
}

func probeEnvironment(seed int64) environment {
	env := environment{Commit: "unknown", Go: runtime.Version(), NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), Seed: seed}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	const sleeps = 50
	start := time.Now()
	for i := 0; i < sleeps; i++ {
		time.Sleep(50 * time.Microsecond)
	}
	env.SleepQuantumUs = float64(time.Since(start).Microseconds()) / sleeps
	return env
}

// runner holds what every pass of one process shares.
type runner struct {
	seed    int64
	seconds int
	outDir  string

	warm, tracedWarm time.Duration // warm-up before each measured window
}

// setUp assembles the workload's cluster and populates it: the work
// setup_s times.
func (r *runner) setUp(ctx context.Context, w workload, tr *tracer) (*deployment, error) {
	d, err := assemble(w, r.seed, tr)
	if err != nil {
		return nil, err
	}
	if err := d.populate(ctx, w); err != nil {
		d.close()
		return nil, err
	}
	d.connect(ctx, w, r.seed, tr)
	return d, nil
}

func newPass(w workload, traced bool, seconds int) *passResult {
	return &passResult{Workload: w.Name, Traced: traced, Seconds: seconds, Metrics: map[string]value{}}
}

// untraced is the end-to-end pass: repeated set-ups for setup_s, warm-up,
// the measured window, the correctness checks.
func (r *runner) untraced(ctx context.Context, w workload) (*passResult, error) {
	var (
		d    *deployment
		took []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			d.close()
		}
		start := time.Now()
		var err error
		if d, err = r.setUp(ctx, w, nil); err != nil {
			return nil, err
		}
		took = append(took, time.Since(start).Seconds())
	}
	defer d.close()

	out := newPass(w, false, r.seconds)
	res := drive(ctx, d, w, r.seed, r.warm, r.seconds, nil)
	endToEndMetrics(res, out)
	out.Metrics["setup_s"] = value{Value: median(took), Unit: "s", Spread: spread(took), N: len(took)}
	out.Violations = append(out.Violations, verify(ctx, d, w, res)...)
	out.Correct = len(out.Violations) == 0
	return out, nil
}

// traced is the per-layer pass. It drives an untraced reference window and
// then a traced one, half the run each, on clusters from the same assembly
// function; their throughput ratio is the tracing overhead.
func (r *runner) traced(ctx context.Context, w workload) (*passResult, error) {
	half := r.seconds / 2
	if half < 1 {
		half = 1
	}
	out := newPass(w, true, half)

	d, err := r.setUp(ctx, w, nil)
	if err != nil {
		return nil, err
	}
	ref := drive(ctx, d, w, r.seed, r.tracedWarm, half, nil)
	refOut := newPass(w, false, half)
	endToEndMetrics(ref, refOut)
	out.Violations = append(out.Violations, verify(ctx, d, w, ref)...)
	d.close()

	tr := newTracer()
	if d, err = r.setUp(ctx, w, tr); err != nil {
		return nil, err
	}
	res := drive(ctx, d, w, r.seed, r.tracedWarm, half, tr)
	time.Sleep(100 * time.Millisecond) // let asynchronous decisions land in the trace
	tr.on.Store(false)
	trOut := newPass(w, true, half)
	endToEndMetrics(res, trOut)
	out.Violations = append(out.Violations, verify(ctx, d, w, res)...)
	d.close()

	lg := buildLedger(tr, res.history.Txns(), half, total(trOut.Windows))
	perLayerMetrics(out, lg, tr, res, ref, trOut, refOut, measureWire(tr.msgs))
	if lg.worstImbalance > 0.01 {
		out.Violations = append(out.Violations, fmt.Sprintf("span self times miss a root span by %.2f%%", lg.worstImbalance*100))
	}
	path := filepath.Join(r.outDir, "trace-"+w.Name+".json")
	if err := lg.writeTrace(path, w.Name, r.seed); err != nil {
		return nil, fmt.Errorf("writing %s: %w", path, err)
	}
	fmt.Printf("  trace: %d transactions in %s; span trees built for %d, worst |sum(self) - root| = %.4f%% of root\n",
		min(lg.trees, traceFileTxns), path, lg.trees, lg.worstImbalance*100)

	out.Attempted = refOut.Attempted + trOut.Attempted
	out.Failed = refOut.Failed + trOut.Failed
	out.Errors = refOut.Errors
	for class, n := range trOut.Errors {
		out.Errors[class] += n
	}
	out.Correct = len(out.Violations) == 0
	return out, nil
}

// printPass lists every metric of a pass by name with its unit, and beside
// each percentile the sample count and the percentile the tail rule allowed.
func printPass(p *passResult, specs []metricSpec) {
	pass := "end-to-end (tracing off)"
	if p.Traced {
		pass = "per-layer (traced)"
	}
	fmt.Printf("%s  %s  %d s measured  attempted %d  failed %d  failed_share %.6f\n",
		p.Workload, pass, p.Seconds, p.Attempted, p.Failed, ratio(float64(p.Failed), float64(p.Attempted)))
	for _, m := range specs {
		v, ok := p.Metrics[m.Name]
		if !ok {
			fmt.Printf("  %-34s (not measured)\n", m.Name)
			continue
		}
		line := fmt.Sprintf("  %-34s %14.4f %-6s", m.Name, v.Value, v.Unit)
		if v.Pct > 0 {
			line += fmt.Sprintf("  p%g of n=%d", v.Pct, v.N)
		}
		if !p.Traced {
			line += fmt.Sprintf("  window spread %.1f%%", v.Spread*100)
		}
		fmt.Println(line)
	}
	if len(p.Errors) > 0 {
		fmt.Printf("  transaction errors by class: %v\n", p.Errors)
	}
	for _, v := range p.Violations {
		fmt.Printf("  VIOLATION: %s\n", v)
	}
}

// driverLine prints the one-object result the driver reads from the last
// line of standard output.
func driverLine(p *passResult) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{p.Correct, p.Attempted, p.Failed, map[string]metric{}}
	for name, v := range p.Metrics {
		line.Metrics[name] = metric{v.Value, v.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func run() error {
	var (
		name    = flag.String("workload", "", "run only this workload (default: all four)")
		seed    = flag.Int64("seed", 1, "workload seed; the only workload parameter")
		seconds = flag.Int("seconds", 20, "measured window of the end-to-end pass; the traced pass splits it between its reference and traced windows")
		trace   = flag.Int("trace", -1, "0: end-to-end pass only, 1: traced pass only; either prints the driver's JSON object on the last line (needs -workload). Default: both passes and a result file")
		outDir  = flag.String("out", "out", "directory for trace files and the result file")
		compare = flag.Bool("compare", false, "compare two result files given as arguments instead of running")
	)
	flag.StringVar(name, "only", "", "alias of -workload")
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare wants two result files")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	selected := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		selected = []workload{w}
	}
	driver := *trace == 0 || *trace == 1
	if driver && len(selected) != 1 {
		return fmt.Errorf("-trace %d needs -workload", *trace)
	}
	if !driver && *trace != -1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}

	r := &runner{seed: *seed, seconds: *seconds, outDir: *outDir, warm: warmup, tracedWarm: tracedWarmup}
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return err
	}
	ctx := context.Background()

	env := probeEnvironment(*seed)
	fmt.Printf("environment: commit %s, %s, nproc %d, GOMAXPROCS %d, sleep quantum %.0f us, seed %d\n",
		env.Commit, env.Go, env.NumCPU, env.GoMaxProcs, env.SleepQuantumUs, env.Seed)

	if driver {
		w := selected[0]
		var p *passResult
		var err error
		if *trace == 0 {
			p, err = r.untraced(ctx, w)
		} else {
			p, err = r.traced(ctx, w)
		}
		if err != nil {
			return err
		}
		if *trace == 0 {
			printPass(p, endToEnd)
		} else {
			printPass(p, perLayer)
		}
		return driverLine(p)
	}

	file := resultFile{Env: env, Seconds: *seconds}
	allCorrect := true
	for _, w := range selected {
		fmt.Printf("\n== %s: %s\n", w.Name, w.Why)
		e2e, err := r.untraced(ctx, w)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		printPass(e2e, endToEnd)
		layers, err := r.traced(ctx, w)
		if err != nil {
			return fmt.Errorf("%s traced: %w", w.Name, err)
		}
		printPass(layers, perLayer)
		file.Passes = append(file.Passes, e2e, layers)
		allCorrect = allCorrect && e2e.Correct && layers.Correct
	}
	path := filepath.Join(r.outDir, fmt.Sprintf("result-seed%d.json", *seed))
	b, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("\nresult written to %s\n", path)
	if !allCorrect {
		return fmt.Errorf("a correctness check failed")
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// ---- -compare ----

// compareFiles prints one row per workload and end-to-end metric: both
// values, how much worse B is than A, the metric's bound, and a verdict.
// A difference is unresolved when either run's own window-to-window spread
// exceeds the bound: the instrument cannot see a change that small.
func compareFiles(pathA, pathB string) error {
	load := func(path string) (map[string]*passResult, error) {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f resultFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		passes := map[string]*passResult{}
		for _, p := range f.Passes {
			if !p.Traced {
				passes[p.Workload] = p
			}
		}
		return passes, nil
	}
	a, err := load(pathA)
	if err != nil {
		return err
	}
	b, err := load(pathB)
	if err != nil {
		return err
	}
	var names []string
	for name := range a {
		if _, ok := b[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Printf("%-12s %-10s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "A", "B", "worse", "bound", "spread", "verdict")
	regressed := 0
	for _, name := range names {
		for _, m := range endToEnd {
			va, vb := a[name].Metrics[m.Name], b[name].Metrics[m.Name]
			worse := ratio(vb.Value-va.Value, va.Value)
			if m.Better == "higher" {
				worse = -worse
			}
			noise := max(va.Spread, vb.Spread)
			verdict := "ok"
			switch {
			case noise > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				regressed++
			}
			fmt.Printf("%-12s %-10s %12.4f %12.4f %+7.1f%% %6.0f%% %6.1f%%  %s\n",
				name, m.Name, va.Value, vb.Value, worse*100, m.Bound*100, noise*100, verdict)
		}
		if fa, fb := a[name], b[name]; fa.Failed != 0 || fb.Failed != 0 || !fa.Correct || !fb.Correct {
			fmt.Printf("%-12s failed A %d of %d, B %d of %d; correct A %v, B %v\n", name, fa.Failed, fa.Attempted, fb.Failed, fb.Attempted, fa.Correct, fb.Correct)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond their bound", regressed)
	}
	return nil
}
