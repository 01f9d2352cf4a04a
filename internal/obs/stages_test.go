package obs

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestStageNames(t *testing.T) {
	if NumStages != 12 {
		t.Fatalf("NumStages = %d, want 12", NumStages)
	}
	names := StageNames()
	if len(names) != NumStages {
		t.Fatalf("StageNames len = %d", len(names))
	}
	seen := map[string]bool{}
	for i, name := range names {
		if name == "" || seen[name] {
			t.Fatalf("stage %d has empty or duplicate name %q", i, name)
		}
		seen[name] = true
		if got := Stage(i).String(); got != name {
			t.Fatalf("Stage(%d).String() = %q, want %q", i, got, name)
		}
	}
	if got := Stage(200).String(); got != "unknown" {
		t.Fatalf("out-of-range stage name = %q", got)
	}
	// The returned slice is a copy: mutating it must not corrupt the table.
	names[0] = "corrupted"
	if StageNames()[0] == "corrupted" {
		t.Fatal("StageNames returned the internal table")
	}
}

func TestLedgerBasics(t *testing.T) {
	l := NewLedger()
	defer l.Release()

	l.Add(StageValidate, 5*time.Microsecond)
	l.AddNs(StageValidate, 1000)
	if got := l.Ns(StageValidate); got != 6000 {
		t.Fatalf("validate ns = %d, want 6000", got)
	}
	// Negative and zero attributions are dropped.
	l.Add(StageNetwork, -time.Second)
	l.AddNs(StageNetwork, 0)
	if got := l.Ns(StageNetwork); got != 0 {
		t.Fatalf("network ns = %d after negative adds", got)
	}
	// Out-of-range stages are ignored, not a panic.
	l.AddNs(Stage(250), 99)
	if got := l.Ns(Stage(250)); got != 0 {
		t.Fatalf("out-of-range Ns = %d", got)
	}
	l.AddNs(StageDecode, 4000)
	if got := l.AttributedNs(); got != 10000 {
		t.Fatalf("AttributedNs = %d, want 10000", got)
	}

	// Nil receivers are safe everywhere.
	var nilL *Ledger
	nilL.Add(StageEncode, time.Second)
	nilL.AddNs(StageEncode, 1)
	nilL.Reset()
	nilL.Release()
	if nilL.Ns(StageEncode) != 0 || nilL.AttributedNs() != 0 {
		t.Fatal("nil ledger reported non-zero")
	}
	if ids, ns := nilL.Deltas(); ids != nil || ns != nil {
		t.Fatal("nil ledger produced deltas")
	}
}

func TestLedgerPoolReset(t *testing.T) {
	l := NewLedger()
	l.AddNs(StageCommitWait, 123)
	l.Release()
	// Pooled ledgers come back zeroed no matter how dirty they went in.
	for i := 0; i < 10; i++ {
		l2 := NewLedger()
		for s := 0; s < NumStages; s++ {
			if got := l2.Ns(Stage(s)); got != 0 {
				t.Fatalf("pooled ledger stage %v = %d, want 0", Stage(s), got)
			}
		}
		l2.AddNs(StageEncode, int64(i+1))
		l2.Release()
	}
}

func TestLedgerDeltasRoundTrip(t *testing.T) {
	l := NewLedger()
	defer l.Release()
	if ids, ns := l.Deltas(); len(ids) != 0 || len(ns) != 0 {
		t.Fatalf("empty ledger deltas = %v %v", ids, ns)
	}
	l.AddNs(StageDispatch, 100)
	l.AddNs(StageFlashProgram, 70_000)
	l.AddNs(StageReplAck, 9)

	ids, ns := l.Deltas()
	if len(ids) != 3 || len(ns) != 3 {
		t.Fatalf("deltas = %v %v, want 3 sparse pairs", ids, ns)
	}

	remote := NewLedger()
	defer remote.Release()
	remote.AddDeltas(ids, ns)
	for s := 0; s < NumStages; s++ {
		if remote.Ns(Stage(s)) != l.Ns(Stage(s)) {
			t.Fatalf("stage %v: round-trip %d != original %d",
				Stage(s), remote.Ns(Stage(s)), l.Ns(Stage(s)))
		}
	}

	// Unknown stage ids (a newer peer) are skipped; mismatched slices and
	// nil receivers are no-ops.
	before := remote.AttributedNs()
	remote.AddDeltas([]byte{byte(StageUnattributed)}, []int64{555})
	remote.AddDeltas([]byte{42}, []int64{555})
	remote.AddDeltas([]byte{0, 1}, []int64{5})
	if remote.AttributedNs() != before {
		t.Fatal("bogus deltas changed the ledger")
	}
	(*Ledger)(nil).AddDeltas(ids, ns)
}

func TestStageLedgerContext(t *testing.T) {
	ctx := context.Background()
	if ReqFrom(ctx).Ledger != nil {
		t.Fatal("empty ctx produced a ledger")
	}
	// Attributing without a ledger is a cheap no-op.
	AttributeStage(ctx, StageNetwork, time.Second)

	if got := WithReq(ctx, Req{}); got != ctx {
		t.Fatal("WithReq(zero record) allocated a new context")
	}

	l := NewLedger()
	defer l.Release()
	ctx = WithReq(ctx, Req{Ledger: l})
	if ReqFrom(ctx).Ledger != l {
		t.Fatal("ledger did not round-trip the context")
	}
	AttributeStage(ctx, StageCommitWait, 3*time.Millisecond)
	if got := l.Ns(StageCommitWait); got != int64(3*time.Millisecond) {
		t.Fatalf("commit-wait ns = %d", got)
	}
}

func TestStageSetFoldIdentity(t *testing.T) {
	reg := NewRegistry()
	ss := NewStageSet(reg, "test_stage_ledger")
	if NewStageSet(nil, "x") != nil {
		t.Fatal("nil registry produced a StageSet")
	}

	// Under-attribution: the residual lands in "unattributed".
	l := NewLedger()
	l.AddNs(StageNetwork, 600)
	l.AddNs(StageValidate, 300)
	ss.Fold(l, 1000*time.Nanosecond, 0xabc)
	l.Release()

	snap := reg.Snapshot()
	unattr := snap.Hists[`test_stage_ledger_ns{stage="unattributed"}`]
	if unattr.Count != 1 || unattr.Sum != 100 {
		t.Fatalf("unattributed = %+v, want one 100ns sample", unattr)
	}
	if e2e := snap.Hists["test_stage_ledger_e2e_ns"]; e2e.Sum != 1000 {
		t.Fatalf("e2e sum = %d", e2e.Sum)
	}
	if ov := snap.Counters["test_stage_ledger_overrun_ns_total"]; ov != 0 {
		t.Fatalf("overrun = %d on an under-attributed fold", ov)
	}

	// Over-attribution (parallel fan-out): clamped, excess counted.
	l = NewLedger()
	l.AddNs(StageFlashRead, 900)
	l.AddNs(StageFlashRead, 900) // two parallel reads, 1800ns of device time
	ss.Fold(l, 1000*time.Nanosecond, 0xdef)
	l.Release()

	snap = reg.Snapshot()
	if ov := snap.Counters["test_stage_ledger_overrun_ns_total"]; ov != 800 {
		t.Fatalf("overrun = %d, want 800", ov)
	}

	// The accounting identity across both folds:
	// Σ stage sums − overrun == Σ e2e, exactly.
	var stageSum int64
	for _, name := range StageNames() {
		stageSum += snap.Hists[withLabel("test_stage_ledger_ns", "stage", name)].Sum
	}
	overrun := snap.Counters["test_stage_ledger_overrun_ns_total"]
	e2e := snap.Hists["test_stage_ledger_e2e_ns"]
	if stageSum-overrun != e2e.Sum {
		t.Fatalf("identity broken: stages %d − overrun %d != e2e %d", stageSum, overrun, e2e.Sum)
	}
	if e2e.Count != 2 {
		t.Fatalf("e2e count = %d", e2e.Count)
	}

	// The exemplar trace id survives into the stage histogram.
	net := snap.Hists[`test_stage_ledger_ns{stage="network"}`]
	found := false
	for _, ex := range net.TopExemplars(8) {
		if ex.TraceID == 0xabc {
			found = true
		}
	}
	if !found {
		t.Fatal("fold did not stamp the trace exemplar")
	}

	// Nil-safety of the fold path.
	var nilSS *StageSet
	nilSS.Fold(NewLedger(), time.Second, 1)
	if nilSS.Hist(StageNetwork) != nil {
		t.Fatal("nil StageSet returned a histogram")
	}
	ss.Fold(nil, time.Second, 1)
	ss.Fold(NewLedger(), -time.Second, 1) // negative e2e clamps to zero
}

// TestLedgerPoolStress hammers the acquire→attribute→fold→release cycle from
// many goroutines; run with -race this checks the pool and the atomic cells.
func TestLedgerPoolStress(t *testing.T) {
	reg := NewRegistry()
	ss := NewStageSet(reg, "stress_stage_ledger")
	const workers = 8
	const iters = 500

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				l := NewLedger()
				ctx := WithReq(context.Background(), Req{Ledger: l})
				// Concurrent attribution into one ledger, as RPC fan-out does.
				var inner sync.WaitGroup
				for j := 0; j < 3; j++ {
					inner.Add(1)
					go func(j int) {
						defer inner.Done()
						AttributeStage(ctx, Stage(j), time.Duration(w+i+1))
					}(j)
				}
				inner.Wait()
				ss.Fold(l, time.Duration(3*(w+i+1)), uint64(i))
				l.Release()
			}
		}(w)
	}
	wg.Wait()

	snap := reg.Snapshot()
	if e2e := snap.Hists["stress_stage_ledger_e2e_ns"]; e2e.Count != workers*iters {
		t.Fatalf("e2e count = %d, want %d", e2e.Count, workers*iters)
	}
	var stageSum int64
	for _, name := range StageNames() {
		stageSum += snap.Hists[withLabel("stress_stage_ledger_ns", "stage", name)].Sum
	}
	overrun := snap.Counters["stress_stage_ledger_overrun_ns_total"]
	if e2e := snap.Hists["stress_stage_ledger_e2e_ns"]; stageSum-overrun != e2e.Sum {
		t.Fatalf("identity broken under stress: %d − %d != %d", stageSum, overrun, e2e.Sum)
	}
}
