package milana

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/wire"
)

// fakeHost is a single-shard host with loopback replication and scriptable
// peer primaries. Persist records each message and fails as scripted:
// sendErr sends nothing, logErr fails the local append, replErr (with the
// append succeeding) the backup fan-out; onPersist, when set, sees each
// message first.
type fakeHost struct {
	backend storage.Backend
	shard   int

	mu        sync.Mutex
	persisted []any
	sendErr   error
	replErr   error
	logErr    error
	onPersist func(msg any)
	peers     map[int]func(req any) (any, error)
}

func newFakeHost() *fakeHost {
	return &fakeHost{backend: storage.NewDRAM(), peers: make(map[int]func(any) (any, error))}
}

func (h *fakeHost) Backend() storage.Backend { return h.backend }
func (h *fakeHost) ShardID() int             { return h.shard }

func (h *fakeHost) Persist(ctx context.Context, msg any) error {
	h.mu.Lock()
	h.persisted = append(h.persisted, msg)
	sendErr, replErr, logErr, hook := h.sendErr, h.replErr, h.logErr, h.onPersist
	h.mu.Unlock()
	if hook != nil {
		hook(msg)
	}
	if sendErr != nil {
		return fmt.Errorf("%w: %w", ErrNotSent, sendErr)
	}
	if logErr != nil {
		return fmt.Errorf("%w: %w", ErrNotLogged, logErr)
	}
	return replErr
}

func (h *fakeHost) CallPrimary(ctx context.Context, shard int, req any) (any, error) {
	h.mu.Lock()
	fn := h.peers[shard]
	h.mu.Unlock()
	if fn == nil {
		return nil, errors.New("no such peer")
	}
	return fn(req)
}

func ts(t int64) clock.Timestamp { return clock.Timestamp{Ticks: t, Client: 1} }

// prepReq is a prepare of a transaction with two participants, this shard
// and shard 1, so that a YES vote leaves it prepared until a decision.
func prepReq(id uint64, commit int64, reads []wire.ReadKey, writes []wire.KV) wire.PrepareRequest {
	return wire.PrepareRequest{
		ID:           wire.TxnID{Client: 1, Seq: id},
		CommitTs:     ts(commit),
		ReadSet:      reads,
		WriteSet:     writes,
		Participants: []int{0, 1},
	}
}

// singleReq is prepReq for a transaction with this shard as its only
// participant: its prepared record is its commit.
func singleReq(id uint64, commit int64, reads []wire.ReadKey, writes []wire.KV) wire.PrepareRequest {
	req := prepReq(id, commit, reads, writes)
	req.Participants = []int{0}
	return req
}

func TestValidationCleanCommit(t *testing.T) {
	m := NewManager(newFakeHost())
	ctx := context.Background()
	resp, err := m.Prepare(ctx, prepReq(1, 100, nil, []wire.KV{{Key: []byte("a"), Val: []byte("v")}}))
	if err != nil || !resp.OK {
		t.Fatalf("prepare: %+v %v", resp, err)
	}
	if m.Status(wire.TxnID{Client: 1, Seq: 1}) != wire.StatusPrepared {
		t.Fatal("not prepared")
	}
	if _, err := m.Decision(ctx, wire.DecisionRequest{ID: wire.TxnID{Client: 1, Seq: 1}, Commit: true}); err != nil {
		t.Fatal(err)
	}
	if m.Status(wire.TxnID{Client: 1, Seq: 1}) != wire.StatusCommitted {
		t.Fatal("not committed")
	}
	if got := m.LatestCommitted([]byte("a")); got != ts(100) {
		t.Fatalf("latestCommitted = %v", got)
	}
	val, _, found, _ := m.host.Backend().Latest([]byte("a"))
	if !found || string(val) != "v" {
		t.Fatalf("write not applied: %q %v", val, found)
	}
}

func TestValidationAbortsOnPreparedReadKey(t *testing.T) {
	m := NewManager(newFakeHost())
	ctx := context.Background()
	// T1 prepares a write on "a".
	if resp, _ := m.Prepare(ctx, prepReq(1, 100, nil, []wire.KV{{Key: []byte("a")}})); !resp.OK {
		t.Fatal("T1 prepare failed")
	}
	// T2 read "a" (at version zero) — Algorithm 1 line 3: prepared ≠ NONE → ABORT.
	resp, _ := m.Prepare(ctx, prepReq(2, 200, []wire.ReadKey{{Key: []byte("a")}}, []wire.KV{{Key: []byte("b")}}))
	if resp.OK {
		t.Fatal("T2 must abort: read key has prepared version")
	}
}

func TestValidationAbortsOnStaleRead(t *testing.T) {
	m := NewManager(newFakeHost())
	ctx := context.Background()
	// Commit version 100 of "a".
	if resp, _ := m.Prepare(ctx, prepReq(1, 100, nil, []wire.KV{{Key: []byte("a")}})); !resp.OK {
		t.Fatal("T1 prepare")
	}
	_, _ = m.Decision(ctx, wire.DecisionRequest{ID: wire.TxnID{Client: 1, Seq: 1}, Commit: true})
	// T2 read "a" at an older version — line 5: latestCommitted ≠ version → ABORT.
	resp, _ := m.Prepare(ctx, prepReq(2, 200, []wire.ReadKey{{Key: []byte("a"), Version: ts(50)}}, []wire.KV{{Key: []byte("b")}}))
	if resp.OK {
		t.Fatal("T2 must abort: stale read")
	}
	// T3 read the current version — commits.
	resp, _ = m.Prepare(ctx, prepReq(3, 300, []wire.ReadKey{{Key: []byte("a"), Version: ts(100)}}, []wire.KV{{Key: []byte("b")}}))
	if !resp.OK {
		t.Fatal("T3 must commit")
	}
}

func TestValidationAbortsLateWriterAfterRead(t *testing.T) {
	// Algorithm 1 line 13: a key read at latestRead ≥ commitTs kills the
	// writer — the rule that makes client-local validation safe (§4.3).
	m := NewManager(newFakeHost())
	ctx := context.Background()
	if onGet(m, ctx, []byte("a"), ts(500)) {
		t.Fatal("fresh key reported prepared")
	}
	resp, _ := m.Prepare(ctx, prepReq(1, 400, nil, []wire.KV{{Key: []byte("a")}}))
	if resp.OK {
		t.Fatal("late-arriving writer must abort (commitTs ≤ latestRead)")
	}
	// A writer with commitTs above latestRead commits.
	resp, _ = m.Prepare(ctx, prepReq(2, 600, nil, []wire.KV{{Key: []byte("a")}}))
	if !resp.OK {
		t.Fatal("fresh writer must commit")
	}
}

func TestValidationAbortsStaleWriter(t *testing.T) {
	m := NewManager(newFakeHost())
	ctx := context.Background()
	if resp, _ := m.Prepare(ctx, prepReq(1, 500, nil, []wire.KV{{Key: []byte("a")}})); !resp.OK {
		t.Fatal("T1 prepare")
	}
	_, _ = m.Decision(ctx, wire.DecisionRequest{ID: wire.TxnID{Client: 1, Seq: 1}, Commit: true})
	// Line 15: latestCommitted ≥ newVersion → ABORT. This is the clock-skew
	// abort: a lagging client's commit timestamp is below the committed one.
	resp, _ := m.Prepare(ctx, prepReq(2, 400, nil, []wire.KV{{Key: []byte("a")}}))
	if resp.OK {
		t.Fatal("stale writer must abort")
	}
}

func TestAbortDecisionReleasesPrepared(t *testing.T) {
	m := NewManager(newFakeHost())
	ctx := context.Background()
	if resp, _ := m.Prepare(ctx, prepReq(1, 100, nil, []wire.KV{{Key: []byte("a"), Val: []byte("x")}})); !resp.OK {
		t.Fatal("prepare")
	}
	_, _ = m.Decision(ctx, wire.DecisionRequest{ID: wire.TxnID{Client: 1, Seq: 1}, Commit: false})
	if m.Status(wire.TxnID{Client: 1, Seq: 1}) != wire.StatusAborted {
		t.Fatal("not aborted")
	}
	if _, _, found, _ := m.host.Backend().Latest([]byte("a")); found {
		t.Fatal("aborted write applied")
	}
	// Key is free again.
	resp, _ := m.Prepare(ctx, prepReq(2, 200, nil, []wire.KV{{Key: []byte("a")}}))
	if !resp.OK {
		t.Fatal("key still prepared after abort")
	}
}

func TestPrepareIdempotentAndPostDecision(t *testing.T) {
	m := NewManager(newFakeHost())
	ctx := context.Background()
	req := prepReq(1, 100, nil, []wire.KV{{Key: []byte("a")}})
	if resp, _ := m.Prepare(ctx, req); !resp.OK {
		t.Fatal("first prepare")
	}
	if resp, _ := m.Prepare(ctx, req); !resp.OK {
		t.Fatal("retransmitted prepare must succeed")
	}
	_, _ = m.Decision(ctx, wire.DecisionRequest{ID: req.ID, Commit: true})
	if resp, _ := m.Prepare(ctx, req); !resp.OK {
		t.Fatal("prepare after commit decision must report commit")
	}
	// Duplicate decision is harmless.
	if _, err := m.Decision(ctx, wire.DecisionRequest{ID: req.ID, Commit: true}); err != nil {
		t.Fatal(err)
	}
}

// TestRetransmittedPrepareWaitsForPersist: a duplicate prepare that arrives
// while the first copy's Persist is still in flight must not vote before it
// returns — a YES would leave with the record in no log — and then answers
// exactly what the first copy earned, as does every later duplicate.
func TestRetransmittedPrepareWaitsForPersist(t *testing.T) {
	for _, c := range []struct {
		name      string
		replErr   error
		logErr    error
		wantOK    bool
		notLogged bool
	}{
		{name: "persisted", wantOK: true},
		{name: "fan-out-failed", replErr: errors.New("quorum lost")},
		{name: "not-logged", logErr: errors.New("disk gone"), notLogged: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := newFakeHost()
			h.replErr, h.logErr = c.replErr, c.logErr
			entered, release := make(chan struct{}), make(chan struct{})
			h.onPersist = func(msg any) {
				if _, ok := msg.(wire.ReplicatePrepare); ok {
					close(entered)
					<-release
				}
			}
			m := NewManager(h)
			req := prepReq(1, 100, nil, []wire.KV{{Key: []byte("a")}})
			type answer struct {
				resp wire.PrepareResponse
				err  error
			}
			prepare := func() chan answer {
				ch := make(chan answer, 1)
				go func() {
					resp, err := m.Prepare(context.Background(), req)
					ch <- answer{resp, err}
				}()
				return ch
			}
			first := prepare()
			<-entered
			dup := prepare()
			select {
			case a := <-dup:
				t.Fatalf("duplicate answered %+v, %v while the first copy's Persist was held", a.resp, a.err)
			case <-time.After(20 * time.Millisecond):
			}
			close(release)
			check := func(who string, a answer) {
				t.Helper()
				if got := errors.Is(a.err, ErrNotLogged); got != c.notLogged {
					t.Fatalf("%s: error %v, want ErrNotLogged %v", who, a.err, c.notLogged)
				}
				if a.resp.OK != c.wantOK {
					t.Fatalf("%s: vote %+v, want OK %v", who, a.resp, c.wantOK)
				}
			}
			check("first copy", <-first)
			check("duplicate", <-dup)
			check("later duplicate", <-prepare())
		})
	}
}

func TestReplicationFailureAbortsPrepare(t *testing.T) {
	h := newFakeHost()
	h.replErr = errors.New("quorum lost")
	m := NewManager(h)
	resp, _ := m.Prepare(context.Background(), prepReq(1, 100, nil, []wire.KV{{Key: []byte("a")}}))
	if resp.OK {
		t.Fatal("prepare must fail when the record cannot reach f backups")
	}
	// Key is not left prepared.
	h.replErr = nil
	resp, _ = m.Prepare(context.Background(), prepReq(2, 200, nil, []wire.KV{{Key: []byte("a")}}))
	if !resp.OK {
		t.Fatal("key wedged after failed replication")
	}
}

// TestFanOutFailureLogsAbort is the failure rule of the overlapped
// Persist: the prepare reached the local log but not f backups. The vote is
// NO, and the abort decision is logged — after the marks are released and
// the abort recorded — so a replay of the log cannot let §4.5's single-shard
// rule commit what the client was told aborted.
func TestFanOutFailureLogsAbort(t *testing.T) {
	h := newFakeHost()
	h.replErr = errors.New("quorum lost")
	m := NewManager(h)
	req := prepReq(1, 100, nil, []wire.KV{{Key: []byte("a"), Val: []byte("v")}})
	var released, abortedFirst bool
	h.onPersist = func(msg any) {
		if d, ok := msg.(wire.ReplicateDecision); ok && d.ID == req.ID && !d.Commit {
			released = !onGet(m, endedCtx(), []byte("a"), ts(100))
			abortedFirst = m.Status(req.ID) == wire.StatusAborted
		}
	}
	resp, err := m.Prepare(context.Background(), req)
	if err != nil || resp.OK {
		t.Fatalf("prepare = %+v, %v; want a NO vote", resp, err)
	}
	h.mu.Lock()
	persisted := append([]any(nil), h.persisted...)
	h.mu.Unlock()
	want := []any{
		wire.ReplicatePrepare{Record: wire.TxnRecord{ID: req.ID, CommitTs: req.CommitTs, WriteSet: req.WriteSet,
			Participants: req.Participants, Status: wire.StatusPrepared}},
		wire.ReplicateDecision{ID: req.ID, Commit: false},
	}
	if fmt.Sprint(persisted) != fmt.Sprint(want) {
		t.Fatalf("persisted %v, want %v", persisted, want)
	}
	if !released || !abortedFirst {
		t.Fatalf("abort logged before it was applied: marks released %v, status aborted %v", released, abortedFirst)
	}
	if got := m.Status(req.ID); got != wire.StatusAborted {
		t.Fatalf("status = %v, want aborted", got)
	}
}

// TestLocalLogFailureNoVote: when the local append fails the prepare answers
// with an error and no vote, and the transaction stays prepared — in doubt,
// for the sweeper — whatever the fan-out did.
func TestLocalLogFailureNoVote(t *testing.T) {
	h := newFakeHost()
	h.logErr = errors.New("disk gone")
	m := NewManager(h)
	req := prepReq(1, 100, nil, []wire.KV{{Key: []byte("a")}})
	if _, err := m.Prepare(context.Background(), req); !errors.Is(err, ErrNotLogged) {
		t.Fatalf("prepare error = %v, want ErrNotLogged", err)
	}
	if got := m.Status(req.ID); got != wire.StatusPrepared {
		t.Fatalf("status = %v, want prepared", got)
	}
	if len(h.persisted) != 1 {
		t.Fatalf("persisted %v, want the prepare alone", h.persisted)
	}
}

// persistedMsgs copies the messages h was asked to persist.
func (h *fakeHost) persistedMsgs() []any {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]any(nil), h.persisted...)
}

// TestOnePhaseCommit: with one participant the primary commits as soon as
// the prepared record is durable — write set applied, marks released,
// nothing prepared — and persists no decision record.
func TestOnePhaseCommit(t *testing.T) {
	h := newFakeHost()
	m := NewManager(h)
	req := singleReq(1, 100, nil, []wire.KV{{Key: []byte("a"), Val: []byte("v")}})
	if resp, err := m.Prepare(context.Background(), req); err != nil || !resp.OK {
		t.Fatalf("prepare = %+v, %v; want YES", resp, err)
	}
	if got := m.Status(req.ID); got != wire.StatusCommitted {
		t.Fatalf("status = %v, want committed", got)
	}
	if val, ver, found, _ := h.backend.Latest([]byte("a")); !found || string(val) != "v" || ver != ts(100) {
		t.Fatalf("write set not applied: %q %v %v", val, ver, found)
	}
	if onGet(m, endedCtx(), []byte("a"), ts(150)) || m.PreparedCount() != 0 {
		t.Fatalf("commit left a mark or %d prepared", m.PreparedCount())
	}
	if got := h.persistedMsgs(); len(got) != 1 {
		t.Fatalf("persisted %v, want the prepare alone", got)
	}
}

// gatedBackend is a backend that waits on a device: every Put waits until
// release is closed.
type gatedBackend struct {
	storage.Backend
	release chan struct{}
}

func (b gatedBackend) Put(key, val []byte, ver clock.Timestamp) error {
	<-b.release
	return b.Backend.Put(key, val, ver)
}

func (gatedBackend) Blocking() bool { return true }

// TestOnePhaseCommitAppliesAfterVote: on a backend that waits on a device the
// vote does not wait for the apply. Until the write set is applied the
// transaction stays prepared and its marks armed, so a read at a later
// timestamp parks and wakes to the committed value.
func TestOnePhaseCommitAppliesAfterVote(t *testing.T) {
	h := newFakeHost()
	release := make(chan struct{})
	h.backend = gatedBackend{Backend: storage.NewDRAM(), release: release}
	m := NewManager(h)
	defer m.Close()
	reg := obs.NewRegistry()
	m.SetMetrics(reg)
	req := singleReq(1, 100, nil, []wire.KV{{Key: []byte("a"), Val: []byte("v")}})
	if resp, err := m.Prepare(context.Background(), req); err != nil || !resp.OK {
		t.Fatalf("prepare = %+v, %v; want YES", resp, err)
	}
	if got := m.Status(req.ID); got != wire.StatusPrepared {
		t.Fatalf("status before the apply = %v, want prepared", got)
	}
	if !onGet(m, endedCtx(), []byte("a"), ts(150)) {
		t.Fatal("the mark was released before the write set was applied")
	}
	woke := make(chan bool, 1)
	go func() { woke <- onGet(m, context.Background(), []byte("a"), ts(150)) }()
	waitParked(t, reg, "read", 1)
	close(release)
	if <-woke {
		t.Fatal("a parked read woke to a mark, not to the commit")
	}
	if val, _, found, _ := h.backend.Get([]byte("a"), ts(150)); !found || string(val) != "v" {
		t.Fatalf("read after the park: %q %v, want the committed value", val, found)
	}
	if got := m.Status(req.ID); got != wire.StatusCommitted {
		t.Fatalf("status = %v, want committed", got)
	}
}

// TestSingleParticipantFailureRule: a single-participant prepare whose
// Persist failed is aborted only if no backup was sent it — a backup that
// holds the record commits it on receipt. Sent but short of f
// acknowledgements, or not in the local log, it gets no vote and stays
// prepared and marked, and the sweeper commits it.
func TestSingleParticipantFailureRule(t *testing.T) {
	for _, c := range []struct {
		name                     string
		sendErr, replErr, logErr error
		aborted                  bool
	}{
		{name: "not-sent", sendErr: errors.New("deposed"), aborted: true},
		{name: "sent-unacked", replErr: errors.New("quorum lost")},
		{name: "not-logged", logErr: errors.New("disk gone")},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := newFakeHost()
			h.sendErr, h.replErr, h.logErr = c.sendErr, c.replErr, c.logErr
			m := NewManager(h)
			req := singleReq(1, 100, nil, []wire.KV{{Key: []byte("a"), Val: []byte("v")}})
			resp, err := m.Prepare(context.Background(), req)
			prepare := wire.ReplicatePrepare{Record: wire.TxnRecord{ID: req.ID, CommitTs: req.CommitTs,
				WriteSet: req.WriteSet, Participants: req.Participants, Status: wire.StatusPrepared}}
			if c.aborted {
				if err != nil || resp.OK {
					t.Fatalf("prepare = %+v, %v; want a NO vote", resp, err)
				}
				want := []any{prepare, wire.ReplicateDecision{ID: req.ID, Commit: false}}
				if got := h.persistedMsgs(); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("persisted %v, want %v", got, want)
				}
				if got := m.Status(req.ID); got != wire.StatusAborted {
					t.Fatalf("status = %v, want aborted", got)
				}
				if onGet(m, endedCtx(), []byte("a"), ts(150)) {
					t.Fatal("the abort left the mark")
				}
				return
			}
			if err == nil || resp.OK {
				t.Fatalf("prepare = %+v, %v; want an error and no vote", resp, err)
			}
			if got := h.persistedMsgs(); fmt.Sprint(got) != fmt.Sprint([]any{prepare}) {
				t.Fatalf("persisted %v, want the prepare alone", got)
			}
			if got := m.Status(req.ID); got != wire.StatusPrepared {
				t.Fatalf("status = %v, want prepared", got)
			}
			if !onGet(m, endedCtx(), []byte("a"), ts(150)) {
				t.Fatal("the in-doubt prepare lost its mark")
			}
			h.mu.Lock()
			h.replErr, h.logErr = nil, nil
			h.mu.Unlock()
			if res := m.SweepPrepared(context.Background(), 0); res.RecoveredCommit != 1 {
				t.Fatalf("sweep = %+v, want one recovered commit", res)
			}
			if val, _, found, _ := h.backend.Latest([]byte("a")); !found || string(val) != "v" {
				t.Fatalf("sweep did not apply the write set: %q %v", val, found)
			}
		})
	}
}

func TestBackupReplicationOrderIndependence(t *testing.T) {
	// Inconsistent replication: a backup may see the decision before the
	// prepare (Figure 5). Both orders must converge.
	ctx := context.Background()
	for _, order := range []string{"prepare-first", "decision-first"} {
		m := NewManager(newFakeHost())
		rec := wire.TxnRecord{
			ID:       wire.TxnID{Client: 1, Seq: 9},
			CommitTs: ts(100),
			WriteSet: []wire.KV{{Key: []byte("a"), Val: []byte("v")}},
			Status:   wire.StatusPrepared,
		}
		decision := wire.ReplicateDecision{ID: rec.ID, Commit: true}.Record()
		if order == "prepare-first" {
			if err := m.Learn(ctx, rec); err != nil {
				t.Fatal(err)
			}
			if err := m.Learn(ctx, decision); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := m.Learn(ctx, decision); err != nil {
				t.Fatal(err)
			}
			// The late prepare carries the write set the early decision
			// could not apply; it must be applied, not resurrected.
			if err := m.Learn(ctx, rec); err != nil {
				t.Fatal(err)
			}
			if m.PreparedCount() != 0 {
				t.Fatal("late prepare resurrected a decided txn")
			}
		}
		if _, _, found, _ := m.host.Backend().Latest([]byte("a")); !found {
			t.Fatalf("%s: write not applied on backup", order)
		}
		if m.Status(rec.ID) != wire.StatusCommitted {
			t.Fatalf("%s: status = %v", order, m.Status(rec.ID))
		}
	}
}

func TestSweepPreparedCTP(t *testing.T) {
	cases := []struct {
		name       string
		peerStatus wire.TxnStatus
		wantCommit bool
	}{
		{"peer committed", wire.StatusCommitted, true},
		{"peer prepared everywhere", wire.StatusPrepared, true},
		{"peer aborted", wire.StatusAborted, false},
		{"peer never prepared", wire.StatusUnknown, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := newFakeHost()
			h.shard = 0
			var notified []wire.DecisionRequest
			h.peers[1] = func(req any) (any, error) {
				switch r := req.(type) {
				case wire.StatusRequest:
					return wire.StatusResponse{Status: c.peerStatus}, nil
				case wire.DecisionRequest:
					notified = append(notified, r)
					return wire.DecisionResponse{}, nil
				}
				return nil, errors.New("unexpected")
			}
			m := NewManager(h)
			req := wire.PrepareRequest{
				ID:           wire.TxnID{Client: 7, Seq: 1},
				CommitTs:     ts(100),
				WriteSet:     []wire.KV{{Key: []byte("a"), Val: []byte("v")}},
				Participants: []int{0, 1},
			}
			if resp, _ := m.Prepare(context.Background(), req); !resp.OK {
				t.Fatal("prepare")
			}
			// Not yet timed out: nothing happens.
			if res := m.SweepPrepared(context.Background(), time.Hour); res.Terminated() != 0 {
				t.Fatal("sweeper terminated a fresh txn")
			}
			res := m.SweepPrepared(context.Background(), 0)
			if res.Terminated() != 1 {
				t.Fatalf("terminated %d txns, want 1 (%+v)", res.Terminated(), res)
			}
			if c.wantCommit && res.RecoveredCommit != 1 {
				t.Fatalf("sweep outcome = %+v, want recovered-commit", res)
			}
			if !c.wantCommit && res.RecoveredAbort != 1 {
				t.Fatalf("sweep outcome = %+v, want recovered-abort", res)
			}
			want := wire.StatusAborted
			if c.wantCommit {
				want = wire.StatusCommitted
			}
			if got := m.Status(req.ID); got != want {
				t.Fatalf("status = %v want %v", got, want)
			}
			_, _, found, _ := h.backend.Latest([]byte("a"))
			if found != c.wantCommit {
				t.Fatalf("write applied = %v, want %v", found, c.wantCommit)
			}
			if len(notified) != 1 || notified[0].Commit != c.wantCommit {
				t.Fatalf("participant notifications = %+v", notified)
			}
		})
	}
}

// TestSweepNonCoordinatorDefersThenTerminates: the designated backup
// coordinator (lowest participant shard) gets the first timeout window;
// a non-coordinator holds off for one extra timeout, then runs CTP
// itself — otherwise a transaction the coordinator already decided (and
// forgot) would stay prepared here forever.
func TestSweepNonCoordinatorDefersThenTerminates(t *testing.T) {
	h := newFakeHost()
	h.shard = 1 // not the lowest participant
	// CTP will ask shard 0 for its view; it already committed.
	h.peers[0] = func(req any) (any, error) {
		if _, ok := req.(wire.StatusRequest); ok {
			return wire.StatusResponse{Status: wire.StatusCommitted}, nil
		}
		return nil, nil
	}
	m := NewManager(h)
	req := wire.PrepareRequest{
		ID:           wire.TxnID{Client: 7, Seq: 1},
		CommitTs:     ts(100),
		WriteSet:     []wire.KV{{Key: []byte("a"), Val: []byte("v")}},
		Participants: []int{0, 1},
	}
	if resp, _ := m.Prepare(context.Background(), req); !resp.OK {
		t.Fatal("prepare")
	}
	// Age is far below the timeout: nobody sweeps.
	if res := m.SweepPrepared(context.Background(), time.Hour); res.Terminated() != 0 || res.StillPending != 0 {
		t.Fatalf("fresh txn swept: %+v", res)
	}
	// Age is within (timeout, 2·timeout]: a non-coordinator defers.
	time.Sleep(50 * time.Millisecond)
	if res := m.SweepPrepared(context.Background(), 40*time.Millisecond); res.Terminated() != 0 || res.StillPending != 0 {
		t.Fatalf("non-coordinator swept inside the coordinator's window: %+v", res)
	}
	if m.Status(req.ID) != wire.StatusPrepared {
		t.Fatal("txn no longer prepared")
	}
	// Age exceeds 2·timeout: the non-coordinator terminates via CTP,
	// adopting the decision shard 0 reports.
	if res := m.SweepPrepared(context.Background(), 10*time.Millisecond); res.RecoveredCommit != 1 {
		t.Fatalf("non-coordinator failed to terminate after 2x timeout: %+v", res)
	}
	if m.Status(req.ID) != wire.StatusCommitted {
		t.Fatalf("status = %v", m.Status(req.ID))
	}
}

func TestSingleShardPreparedCommitsOnSweep(t *testing.T) {
	h := newFakeHost()
	h.replErr = errors.New("quorum lost")
	m := NewManager(h)
	req := singleReq(1, 100, nil, []wire.KV{{Key: []byte("a"), Val: []byte("v")}})
	// The record was sent but not acknowledged: no vote, and it stays
	// prepared.
	if _, err := m.Prepare(context.Background(), req); err == nil {
		t.Fatal("prepare voted without f acknowledgements")
	}
	h.replErr = nil
	// §4.5: a prepared single-shard transaction would have committed.
	if res := m.SweepPrepared(context.Background(), 0); res.RecoveredCommit != 1 {
		t.Fatalf("single-shard txn not terminated as commit: %+v", res)
	}
	if m.Status(req.ID) != wire.StatusCommitted {
		t.Fatalf("status = %v", m.Status(req.ID))
	}
}

func TestMergeRecovered(t *testing.T) {
	h := newFakeHost()
	h.peers[1] = func(req any) (any, error) {
		if _, ok := req.(wire.StatusRequest); ok {
			return wire.StatusResponse{Status: wire.StatusCommitted}, nil
		}
		return wire.DecisionResponse{}, nil
	}
	m := NewManager(h)
	committed := wire.TxnRecord{
		ID: wire.TxnID{Client: 1, Seq: 1}, CommitTs: ts(10),
		WriteSet: []wire.KV{{Key: []byte("c"), Val: []byte("cv")}},
		Status:   wire.StatusCommitted, Participants: []int{0},
	}
	aborted := wire.TxnRecord{
		ID: wire.TxnID{Client: 1, Seq: 2}, CommitTs: ts(20),
		WriteSet: []wire.KV{{Key: []byte("x"), Val: []byte("xv")}},
		Status:   wire.StatusAborted, Participants: []int{0},
	}
	singlePrepared := wire.TxnRecord{
		ID: wire.TxnID{Client: 1, Seq: 3}, CommitTs: ts(30),
		WriteSet: []wire.KV{{Key: []byte("s"), Val: []byte("sv")}},
		Status:   wire.StatusPrepared, Participants: []int{0},
	}
	multiPrepared := wire.TxnRecord{
		ID: wire.TxnID{Client: 1, Seq: 4}, CommitTs: ts(40),
		WriteSet: []wire.KV{{Key: []byte("m"), Val: []byte("mv")}},
		Status:   wire.StatusPrepared, Participants: []int{0, 1},
	}
	// One replica knows the prepare, another knows the commit status only.
	pulled := [][]wire.TxnRecord{
		{committed, singlePrepared, multiPrepared},
		{aborted, {ID: committed.ID, Status: wire.StatusCommitted}},
	}
	if err := m.MergeRecovered(context.Background(), pulled); err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		key string
		val string
		ok  bool
	}{
		{"c", "cv", true}, // committed re-applied
		{"x", "", false},  // aborted not applied
		{"s", "sv", true}, // single-shard prepared commits
		{"m", "mv", true}, // multi-shard prepared: peer says committed
	} {
		val, _, found, _ := h.backend.Latest([]byte(want.key))
		if found != want.ok || (want.ok && string(val) != want.val) {
			t.Fatalf("key %s: %q %v, want %q %v", want.key, val, found, want.val, want.ok)
		}
	}
	if m.PreparedCount() != 0 {
		t.Fatalf("%d txns still prepared after merge", m.PreparedCount())
	}
}

func TestMergeRecoveredPeerUnreachableStaysPrepared(t *testing.T) {
	h := newFakeHost() // no peers registered → CallPrimary fails
	m := NewManager(h)
	rec := wire.TxnRecord{
		ID: wire.TxnID{Client: 1, Seq: 4}, CommitTs: ts(40),
		WriteSet: []wire.KV{{Key: []byte("m"), Val: []byte("mv")}},
		Status:   wire.StatusPrepared, Participants: []int{0, 1},
	}
	if err := m.MergeRecovered(context.Background(), [][]wire.TxnRecord{{rec}}); err != nil {
		t.Fatal(err)
	}
	if m.Status(rec.ID) != wire.StatusPrepared {
		t.Fatal("in-doubt txn decided without reaching participants")
	}
	// Once the merged replica serves as primary, the key must be blocked for
	// new writers until the txn terminates.
	m.ArmPrepared()
	resp, _ := m.Prepare(context.Background(), prepReq(9, 900, nil, []wire.KV{{Key: []byte("m")}}))
	if resp.OK {
		t.Fatal("prepared key writable during in-doubt window")
	}
}

func TestLatestCommittedLazyInit(t *testing.T) {
	h := newFakeHost()
	_ = h.backend.Put([]byte("a"), []byte("v"), ts(77))
	m := NewManager(h)
	if got := m.LatestCommitted([]byte("a")); got != ts(77) {
		t.Fatalf("lazy init = %v, want %v", got, ts(77))
	}
}

// TestMergeRecoveredGraftsWriteSetFromLocal reproduces the recovery hole
// where one replica knows only the decision (decision outran the prepare)
// while the recovering replica holds the prepared record with the writes:
// the merge must apply the write set, in whichever direction the graft
// goes.
func TestMergeRecoveredGraftsWriteSetFromLocal(t *testing.T) {
	h := newFakeHost()
	m := NewManager(h)
	// Local table: prepared record with the write set (replicated prepare
	// that never saw its decision).
	rec := wire.TxnRecord{
		ID: wire.TxnID{Client: 3, Seq: 7}, CommitTs: ts(50),
		WriteSet: []wire.KV{{Key: []byte("w"), Val: []byte("wv")}},
		Status:   wire.StatusPrepared, Participants: []int{0},
	}
	if err := m.Learn(context.Background(), rec); err != nil {
		t.Fatal(err)
	}
	// A peer replica contributes only the bare decision.
	pulled := [][]wire.TxnRecord{{{ID: rec.ID, Status: wire.StatusCommitted}}}
	if err := m.MergeRecovered(context.Background(), pulled); err != nil {
		t.Fatal(err)
	}
	val, ver, found, _ := h.backend.Latest([]byte("w"))
	if !found || string(val) != "wv" || ver != ts(50) {
		t.Fatalf("committed write lost in merge: %q %v %v", val, ver, found)
	}
	if m.Status(rec.ID) != wire.StatusCommitted {
		t.Fatalf("status = %v", m.Status(rec.ID))
	}
}

// slowBackend is a backend that waits on a device: every Put takes d.
type slowBackend struct {
	storage.Backend
	d time.Duration
}

func (b slowBackend) Put(key, val []byte, ver clock.Timestamp) error {
	time.Sleep(b.d)
	return b.Backend.Put(key, val, ver)
}

func (slowBackend) Blocking() bool { return true }

// TestCommitApplyOverlapsOnBlockingBackend: on a backend whose calls wait on a
// device, a commit applies its write set concurrently — five puts that each
// take d finish in under 2d — and every key holds the committed value.
func TestCommitApplyOverlapsOnBlockingBackend(t *testing.T) {
	const d = 100 * time.Millisecond
	h := newFakeHost()
	h.backend = slowBackend{Backend: storage.NewDRAM(), d: d}
	m := NewManager(h)
	ctx := context.Background()
	var writes []wire.KV
	for i := 0; i < 5; i++ {
		writes = append(writes, wire.KV{Key: []byte(fmt.Sprintf("k%d", i)), Val: []byte("v")})
	}
	if resp, err := m.Prepare(ctx, prepReq(1, 100, nil, writes)); err != nil || !resp.OK {
		t.Fatalf("prepare: %+v %v", resp, err)
	}
	start := time.Now()
	if _, err := m.Decision(ctx, wire.DecisionRequest{ID: wire.TxnID{Client: 1, Seq: 1}, Commit: true}); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took >= 2*d {
		t.Fatalf("a 5-key commit with %v puts applied in %v, want under %v", d, took, 2*d)
	}
	for _, kv := range writes {
		if val, _, found, err := h.backend.Get(kv.Key, ts(100)); err != nil || !found || string(val) != "v" {
			t.Fatalf("key %q after commit: %q %v %v", kv.Key, val, found, err)
		}
	}
}
