package core

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/check"
	"repro/internal/clock"
	"repro/internal/milana"
)

// TestAuditConvictsWeakenedValidationOnline is the online counterpart of
// TestStressCheckerCatchesWeakenedValidation: with read-set validation
// disabled on every server, the *streaming* auditor — windows closed by
// watermark broadcasts, never a full-history drain — must convict the run
// with a concrete cycle and file a flight-recorder artifact.
func TestAuditConvictsWeakenedValidationOnline(t *testing.T) {
	c := newCounterCluster(t, 0, &audit.Options{
		SampleRate:    1,
		FlushInterval: 5 * time.Millisecond,
		ArtifactDir:   t.TempDir(),
	}, true)
	ctx := context.Background()

	// Long-lived clients: their watermark reports must keep advancing, or
	// the min over ever-seen clients pins the cut forever.
	clients := counterClients(c, 200, nil)
	deadline := time.Now().Add(30 * time.Second)
	for round := 0; ; round++ {
		incrementRound(ctx, c, clients, 25)
		if s := c.Auditor().Stats(); s.Convictions > 0 {
			arts := c.Auditor().Artifacts()
			var conv *audit.Artifact
			for _, a := range arts {
				if a.Kind == audit.KindConviction {
					conv = a
					break
				}
			}
			if conv == nil {
				t.Fatalf("convictions counted but no conviction artifact retained: %+v", arts)
			}
			// Skipping read validation can be convicted two ways: by a
			// dependency cycle, or first by direct evidence (a read of a
			// version no recorded transaction installed, a dirty read),
			// which names its anomaly but has no cycle to show.
			if conv.Anomaly == "" || len(conv.Window) == 0 ||
				(len(conv.Cycle) == 0 && strings.HasPrefix(conv.Anomaly, "dependency cycle")) {
				t.Fatalf("conviction artifact incomplete: %+v", conv)
			}
			t.Logf("online conviction after round %d: %s (cycle %v, window %d txns, checked %d windows)",
				round, conv.Anomaly, conv.Cycle, len(conv.Window), s.WindowsChecked)
			return
		}
		if time.Now().After(deadline) {
			s := c.Auditor().Stats()
			t.Fatalf("online auditor never convicted weakened validation: %+v", s)
		}
	}
}

// TestAuditHealthyChaosSilent runs the seeded chaos workload (drops, dups,
// delays, partitions, crashes, clock steps) across the three clock profiles
// with the auditor always on, and demands total silence: zero convictions
// and zero ε violations on an unmutated cluster. The auditor's ε is widened
// to cover profile uncertainty plus the largest injected clock step — chaos
// deliberately disciplines clocks beyond the profile's own bound.
func TestAuditHealthyChaosSilent(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos audit skipped in -short mode")
	}
	for _, p := range chaosProfiles {
		t.Run(p.Name, func(t *testing.T) {
			r := runBankChaos(t, bankChaos{
				seed: 1, profile: p,
				faults: true, window: 300 * time.Millisecond,
				audit: true, watermarks: true,
			})
			// The workload quiesced with windows already checked online;
			// the drain sweeps whatever the last broadcast left pending.
			s := r.auditorSilent()
			if s.WindowsChecked == 0 {
				r.fail("no window was ever checked; the test exercised nothing")
			}
			t.Logf("%d windows checked, %d txns evicted, %d unknowns retained, silent",
				s.WindowsChecked, s.Evicted, s.UnknownRetained)
		})
	}
}

// TestAuditTruncationEquivalence is the windowed-truncation correctness
// sweep: the same run is recorded twice — streamed through the windowed
// auditor and captured whole in a check.History — and the streaming verdict
// must match the offline checker's, on healthy runs (both serializable) and
// on mutated runs (both convict, each with a witness cycle). CHAOS_SEED and
// CHAOS_ROUNDS widen the sweep exactly as for TestStressChaosSweep.
func TestAuditTruncationEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence sweep skipped in -short mode")
	}
	base, rounds := chaosEnv(t, 1)
	for seed := base; seed < base+int64(rounds); seed++ {
		for _, mutate := range []bool{false, true} {
			name := fmt.Sprintf("seed=%d/mutated=%v", seed, mutate)
			t.Run(name, func(t *testing.T) { truncationEquivalenceRound(t, seed, mutate) })
		}
	}
}

func truncationEquivalenceRound(t *testing.T, seed int64, mutate bool) {
	c := newCounterCluster(t, seed, &audit.Options{SampleRate: 1, FlushInterval: 5 * time.Millisecond}, mutate)
	ctx := context.Background()
	hist := check.NewHistory()
	clients := counterClients(c, 300, hist) // offline record, alongside the auditor sink
	maxPending := 0
	for round := 0; round < 4; round++ {
		incrementRound(ctx, c, clients, 15)
		if p := c.Auditor().PendingLen(); p > maxPending {
			maxPending = p
		}
	}

	streaming := c.Auditor().Drain()
	convicted := c.Auditor().Stats().Convictions > 0 || !streaming.Serializable
	offline := check.Serializability(hist.Txns())

	if convicted == offline.Serializable {
		t.Fatalf("verdicts diverge: streaming convicted=%v, offline %v", convicted, offline)
	}
	if mutate {
		if !convicted {
			t.Skipf("seed %d produced no anomaly this run (timing-dependent); sweep covers others", seed)
		}
		if offline.Serializable {
			t.Fatalf("streaming convicted but offline checker disagrees: %v", offline)
		}
		if len(offline.Cycle) == 0 {
			t.Fatalf("offline conviction without witness cycle: %v", offline)
		}
		cycleOK := len(streaming.Cycle) > 0
		for _, a := range c.Auditor().Artifacts() {
			if a.Kind == audit.KindConviction && len(a.Cycle) > 0 {
				cycleOK = true
			}
		}
		if !cycleOK {
			t.Fatal("streaming conviction without witness cycle in report or artifacts")
		}
	} else if convicted {
		t.Fatalf("healthy run convicted by streaming checker: %v / %v", streaming, offline)
	}
	// Bounded memory: watermark-driven eviction must keep the buffer within
	// a round's traffic, far below the whole history.
	if total := hist.Len(); maxPending >= total && total > 0 {
		t.Fatalf("auditor buffered the whole history (%d/%d): truncation never evicted", maxPending, total)
	}
	t.Logf("seed %d mutate=%v: offline %d txns, max pending %d", seed, mutate, hist.Len(), maxPending)
}

// TestAuditClusterCloseStopsGoroutines extends the clean-shutdown audit to
// the new background machinery: audit flusher and clock synchronizer must
// all exit on Cluster.Close — even when the caller forgets the
// StartSynchronizer stop function.
func TestAuditClusterCloseStopsGoroutines(t *testing.T) {
	closeStopsGoroutines(t, ClusterOptions{
		Shards: 1, Replicas: 3,
		ClockProfile:    clock.NTP,
		SkewServers:     true,
		LeaseDuration:   50 * time.Millisecond,
		PreparedTimeout: 100 * time.Millisecond,
		Audit:           &audit.Options{SampleRate: 1, FlushInterval: 5 * time.Millisecond},
	}, func(c *Cluster, txc *milana.Client) {
		txc.BroadcastWatermark(context.Background())
		_ = c.StartSynchronizer() // stop func deliberately dropped: Close must cover it
	})
}
