package milana

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/wire"
)

// recordRoute delivers one transaction's prepare and decision to a replica
// by one of the ways a record can reach it.
type recordRoute struct {
	name    string
	prepare func(t *testing.T, m *Manager, rec wire.TxnRecord)
	decide  func(t *testing.T, m *Manager, d wire.ReplicateDecision)
}

func learn(t *testing.T, m *Manager, rec wire.TxnRecord) {
	t.Helper()
	if err := m.Learn(context.Background(), rec); err != nil {
		t.Fatal(err)
	}
}

// replayed round-trips msg through the WAL's record encoding and learns it
// as cold-start replay does.
func replayed(t *testing.T, m *Manager, msg any) {
	t.Helper()
	payload, err := wire.Codec.Append(nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := wire.Codec.Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	switch r := decoded.(type) {
	case wire.ReplicatePrepare:
		learn(t, m, r.Record)
	case wire.ReplicateDecision:
		learn(t, m, r.Record())
	default:
		t.Fatalf("replayed %T", decoded)
	}
}

// holding returns a scratch replica whose table holds rec: prepared, as a
// primary's does until a decision or a one-phase commit's apply lands, or
// decided.
func holding(t *testing.T, rec wire.TxnRecord) *Manager {
	t.Helper()
	src := NewManager(newFakeHost())
	if rec.Status != wire.StatusPrepared {
		learn(t, src, rec)
		return src
	}
	src.mu.Lock()
	src.prepareLocked(&txnState{rec: rec})
	src.mu.Unlock()
	return src
}

// checkpointed checkpoints the table of a replica holding rec through the
// WAL's record encoding, and installs the checkpoint.
func checkpointed(t *testing.T, m *Manager, rec wire.TxnRecord) {
	t.Helper()
	src := holding(t, rec)
	payload, err := wire.Codec.Append(nil, wire.WALCheckpoint{Txns: src.TableRecords()})
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := wire.Codec.Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range decoded.(wire.WALCheckpoint).Txns {
		learn(t, m, r)
	}
}

func merged(t *testing.T, m *Manager, rec wire.TxnRecord) {
	t.Helper()
	if err := m.MergeRecovered(context.Background(), [][]wire.TxnRecord{{rec}}); err != nil {
		t.Fatal(err)
	}
}

var recordRoutes = []recordRoute{
	{
		name: "door",
		prepare: func(t *testing.T, m *Manager, rec wire.TxnRecord) {
			_, err := m.Prepare(context.Background(), wire.PrepareRequest{ID: rec.ID, CommitTs: rec.CommitTs,
				WriteSet: rec.WriteSet, Participants: rec.Participants})
			if err != nil {
				t.Fatal(err)
			}
		},
		decide: func(t *testing.T, m *Manager, d wire.ReplicateDecision) {
			if _, err := m.Decision(context.Background(), wire.DecisionRequest{ID: d.ID, Commit: d.Commit}); err != nil {
				t.Fatal(err)
			}
		},
	},
	{
		name:    "backup-delivery",
		prepare: learn,
		decide:  func(t *testing.T, m *Manager, d wire.ReplicateDecision) { learn(t, m, d.Record()) },
	},
	{
		name:    "replay",
		prepare: func(t *testing.T, m *Manager, rec wire.TxnRecord) { replayed(t, m, wire.ReplicatePrepare{Record: rec}) },
		decide:  func(t *testing.T, m *Manager, d wire.ReplicateDecision) { replayed(t, m, d) },
	},
	{
		name:    "checkpoint",
		prepare: checkpointed,
		decide:  func(t *testing.T, m *Manager, d wire.ReplicateDecision) { checkpointed(t, m, d.Record()) },
	},
	{
		// Anti-entropy pulls the primary's table but learns only its prepared
		// records; a backup learns decisions by delivery.
		name: "anti-entropy",
		prepare: func(t *testing.T, m *Manager, rec wire.TxnRecord) {
			for _, r := range holding(t, rec).TableRecords() {
				if r.Status == wire.StatusPrepared {
					learn(t, m, r)
				}
			}
		},
		decide: func(t *testing.T, m *Manager, d wire.ReplicateDecision) { learn(t, m, d.Record()) },
	},
	{
		// The peer holding the other participant is unreachable, so the
		// merge leaves a lone prepare in doubt rather than terminating it.
		name:    "merge",
		prepare: merged,
		decide:  func(t *testing.T, m *Manager, d wire.ReplicateDecision) { merged(t, m, d.Record()) },
	},
}

// replicaState is everything a transaction's records leave behind on a
// replica that a later transaction, query or operator can observe.
type replicaState struct {
	status          wire.TxnStatus
	prepared, gauge int64
	val             string
	ver             clock.Timestamp
	found           bool
	latestCommitted clock.Timestamp
	marked          bool
}

// TestRecordPathsEquivalent runs one transaction's prepare and decision
// through every route a record reaches a replica by, in both orders, for
// both outcomes — with and without key state for the written key beforehand
// — and requires every route to leave the same state behind, including the
// prepared-transactions gauge after each step and the marks armed once the
// replica becomes primary. A transaction with one participant has no
// decision: its prepare alone must leave it committed by every route.
func TestRecordPathsEquivalent(t *testing.T) {
	key := []byte("k")
	for _, participants := range [][]int{{0, 1}, {0}} {
		rec := wire.TxnRecord{
			ID: wire.TxnID{Client: 1, Seq: 1}, CommitTs: ts(100),
			WriteSet: []wire.KV{{Key: key, Val: []byte("v")}}, Participants: participants,
			Status: wire.StatusPrepared,
		}
		single := len(participants) == 1
		for _, r := range recordRoutes {
			for _, decisionFirst := range []bool{false, true} {
				for _, commit := range []bool{true, false} {
					for _, touched := range []bool{false, true} {
						if single && (decisionFirst || !commit) {
							continue
						}
						name := fmt.Sprintf("%s/decision-first=%v/commit=%v/touched=%v", r.name, decisionFirst, commit, touched)
						if single {
							name = fmt.Sprintf("%s/one-participant/touched=%v", r.name, touched)
						}
						t.Run(name, func(t *testing.T) {
							reg := obs.NewRegistry()
							m := NewManager(newFakeHost())
							m.SetMetrics(reg)
							gauge := reg.Gauge("milana_prepared_txns")
							if touched {
								m.LatestCommitted(key) // a former primary: key state exists
							}
							d := wire.ReplicateDecision{ID: rec.ID, Commit: commit}
							steps := []func(){func() { r.prepare(t, m, rec) }, func() { r.decide(t, m, d) }}
							if single {
								steps = steps[:1]
							}
							if decisionFirst {
								steps[0], steps[1] = steps[1], steps[0]
							}
							for i, step := range steps {
								step()
								if got, want := gauge.Value(), int64(m.PreparedCount()); got != want {
									t.Fatalf("after step %d: gauge %d, PreparedCount %d", i, got, want)
								}
							}
							var got replicaState
							got.status = m.Status(rec.ID)
							got.prepared, got.gauge = int64(m.PreparedCount()), gauge.Value()
							val, ver, found, _ := m.host.Backend().Latest(key)
							got.val, got.ver, got.found = string(val), ver, found
							m.ArmPrepared()
							got.marked = onGet(m, endedCtx(), key, ts(1000))
							got.latestCommitted = m.LatestCommitted(key)

							want := replicaState{status: wire.StatusAborted}
							if commit {
								want = replicaState{status: wire.StatusCommitted, val: "v", ver: ts(100), found: true,
									latestCommitted: ts(100)}
							}
							if got != want {
								t.Fatalf("state %+v, want %+v", got, want)
							}
						})
					}
				}
			}
		}
	}
}

// TestBackupReplicationConcurrentPrepareAndCommit: a prepare and its commit
// delivered to a backup at the same moment must end committed with the write
// set applied, whichever transition wins the race.
func TestBackupReplicationConcurrentPrepareAndCommit(t *testing.T) {
	for i := 0; i < 500; i++ {
		m := NewManager(newFakeHost())
		key := []byte(fmt.Sprintf("k%d", i))
		rec := wire.TxnRecord{
			ID: wire.TxnID{Client: 1, Seq: uint64(i)}, CommitTs: ts(100),
			WriteSet: []wire.KV{{Key: key, Val: []byte("v")}}, Participants: []int{0},
			Status: wire.StatusPrepared,
		}
		records := []wire.TxnRecord{rec, wire.ReplicateDecision{ID: rec.ID, Commit: true}.Record()}
		errs := make([]error, len(records))
		start := make(chan struct{})
		var wg sync.WaitGroup
		for j, r := range records {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				errs[j] = m.Learn(context.Background(), r)
			}()
		}
		close(start)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if _, _, found, _ := m.host.Backend().Latest(key); !found || m.Status(rec.ID) != wire.StatusCommitted || m.PreparedCount() != 0 {
			t.Fatalf("round %d: write applied %v, status %v, %d prepared", i, found, m.Status(rec.ID), m.PreparedCount())
		}
	}
}

// TestRecordPathsReplayedPrepareThenLearnedCommit: a prepare replayed on a
// replica that arms it as primary, then its commit learned by another route,
// must release the mark and raise latestCommitted — or every later
// read-modify-write of the key aborts, on the mark or on a stale read.
func TestRecordPathsReplayedPrepareThenLearnedCommit(t *testing.T) {
	m := NewManager(newFakeHost())
	rec := wire.TxnRecord{
		ID: wire.TxnID{Client: 2, Seq: 1}, CommitTs: ts(100),
		WriteSet: []wire.KV{{Key: []byte("a"), Val: []byte("v")}}, Participants: []int{0, 1},
		Status: wire.StatusPrepared,
	}
	learn(t, m, rec)
	m.ArmPrepared()
	learn(t, m, wire.ReplicateDecision{ID: rec.ID, Commit: true}.Record())
	if onGet(m, endedCtx(), []byte("a"), ts(150)) {
		t.Fatal("the committed transaction still marks its key")
	}
	if got := m.LatestCommitted([]byte("a")); got != ts(100) {
		t.Fatalf("latestCommitted = %v, want %v", got, ts(100))
	}
	resp, err := m.Prepare(context.Background(), prepReq(3, 200,
		[]wire.ReadKey{{Key: []byte("a"), Version: ts(100)}}, []wire.KV{{Key: []byte("a"), Val: []byte("w")}}))
	if err != nil || !resp.OK {
		t.Fatalf("later read-modify-write voted %+v, %v; want YES", resp, err)
	}
}

// TestMergeReplayedPrepareWithBareDecision: a replica whose replayed prepare
// is armed merges a peer's bare decision for it. Neither a commit nor an
// abort may leave the mark behind.
func TestMergeReplayedPrepareWithBareDecision(t *testing.T) {
	for _, status := range []wire.TxnStatus{wire.StatusAborted, wire.StatusCommitted} {
		t.Run(status.String(), func(t *testing.T) {
			m := NewManager(newFakeHost())
			rec := wire.TxnRecord{
				ID: wire.TxnID{Client: 2, Seq: 1}, CommitTs: ts(100),
				WriteSet: []wire.KV{{Key: []byte("a"), Val: []byte("v")}}, Participants: []int{0, 1},
				Status: wire.StatusPrepared,
			}
			learn(t, m, rec)
			m.ArmPrepared()
			merged(t, m, wire.TxnRecord{ID: rec.ID, Status: status})
			m.ArmPrepared()
			if onGet(m, endedCtx(), []byte("a"), ts(150)) {
				t.Fatalf("merged %v left the mark", status)
			}
			if got := m.Status(rec.ID); got != status {
				t.Fatalf("status = %v, want %v", got, status)
			}
			if resp, _ := m.Prepare(context.Background(), prepReq(3, 200, nil, []wire.KV{{Key: []byte("a")}})); !resp.OK {
				t.Fatalf("later writer voted %+v; want YES", resp)
			}
		})
	}
}
