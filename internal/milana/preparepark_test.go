package milana

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// waitParked waits until n requests of kind op are parked on a decision.
func waitParked(t *testing.T, reg *obs.Registry, op string, n int64) {
	t.Helper()
	parked := reg.Gauge(`milana_parked{op="` + op + `"}`)
	for deadline := time.Now().Add(5 * time.Second); parked.Value() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("fewer than %d %ss ever parked", n, op)
		}
	}
}

// abortCounts sums the abort-reason counters and the abort-provenance
// counters.
func abortCounts(reg *obs.Registry) (byReason, byCause int64) {
	for name, v := range reg.Snapshot().Counters {
		switch {
		case strings.HasPrefix(name, "milana_aborts_total"):
			byReason += v
		case strings.HasPrefix(name, "milana_abort_provenance_total"):
			byCause += v
		}
	}
	return byReason, byCause
}

// TestPreparePark: a prepare that meets an older transaction's prepared mark
// on a key it writes parks on that transaction's decision and validates
// again; anything its holder's decision cannot cure — a younger holder, an
// expired bound, a late write, its own abort — votes NO, and the abort
// counters move once per NO vote from validation, never once per park.
func TestPreparePark(t *testing.T) {
	key := []byte("k")
	type answer struct {
		resp wire.PrepareResponse
		err  error
	}
	for _, c := range []struct {
		name     string
		holderTs int64
		// parks: the waiter parks, and then during (if set) runs, a second
		// copy is sent when copies is 2, and the holder is decided when
		// decide is "commit" or "abort".
		parks    bool
		ctxEnded bool
		copies   int
		during   func(m *Manager, h *fakeHost, waiter wire.PrepareRequest)
		decide   string
		wantOK   bool
		wantCode wire.AbortReason
		// waited: the vote came no earlier than DecisionWait (true) or
		// before it (false).
		waited     bool
		wantAborts int64
		check      func(t *testing.T, m *Manager, h *fakeHost, waiter wire.PrepareRequest)
	}{
		{
			name: "older-holder-commits", holderTs: 100, parks: true, decide: "commit", wantOK: true,
			check: func(t *testing.T, m *Manager, h *fakeHost, waiter wire.PrepareRequest) {
				if _, err := m.Decision(context.Background(), wire.DecisionRequest{ID: waiter.ID, Commit: true}); err != nil {
					t.Fatal(err)
				}
				for _, want := range []struct {
					at  int64
					val string
				}{{150, "holder"}, {250, "waiter"}} {
					val, ver, found, err := h.backend.Get(key, ts(want.at))
					if err != nil || !found || string(val) != want.val {
						t.Fatalf("read at %d: %q@%v found=%v err=%v, want %q", want.at, val, ver, found, err, want.val)
					}
				}
			},
		},
		{name: "older-holder-aborts", holderTs: 100, parks: true, decide: "abort", wantOK: true},
		{name: "younger-holder", holderTs: 300, wantCode: wire.AbortWritePrepared, wantAborts: 1},
		{name: "bound", holderTs: 100, parks: true, wantCode: wire.AbortWritePrepared, waited: true, wantAborts: 1},
		{name: "context-ended", holderTs: 100, ctxEnded: true, wantCode: wire.AbortWritePrepared, wantAborts: 1},
		{
			name: "late-write", holderTs: 100, parks: true, decide: "abort", wantCode: wire.AbortLateWrite, wantAborts: 1,
			during: func(m *Manager, h *fakeHost, _ wire.PrepareRequest) {
				// A plain Put at version 250 above the waiter's 200: the
				// server applies it, then records the committed write.
				_ = h.backend.Put(key, []byte("put"), ts(250))
				m.OnCommittedWrite(key, ts(250))
			},
		},
		{
			name: "aborted-while-parked", holderTs: 100, parks: true, decide: "commit",
			during: func(m *Manager, _ *fakeHost, waiter wire.PrepareRequest) {
				// A CTP abort for the waiter outruns its vote.
				_, _ = m.Decision(context.Background(), wire.DecisionRequest{ID: waiter.ID, Commit: false})
			},
			check: func(t *testing.T, m *Manager, h *fakeHost, waiter wire.PrepareRequest) {
				if got := m.Status(waiter.ID); got != wire.StatusAborted {
					t.Fatalf("waiter status %v, want aborted", got)
				}
				if val, _, _, _ := h.backend.Latest(key); string(val) != "holder" {
					t.Fatalf("latest value %q, want the holder's", val)
				}
			},
		},
		{
			name: "retransmitted-while-parked", holderTs: 100, parks: true, copies: 2, decide: "abort", wantOK: true,
			check: func(t *testing.T, m *Manager, _ *fakeHost, _ wire.PrepareRequest) {
				if n := m.PreparedCount(); n != 1 {
					t.Fatalf("PreparedCount() = %d, want 1", n)
				}
			},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := newFakeHost()
			m := NewManager(h)
			reg := obs.NewRegistry()
			m.SetMetrics(reg)
			holder := wire.PrepareRequest{
				ID: wire.TxnID{Client: 1, Seq: 1}, CommitTs: ts(c.holderTs),
				WriteSet: []wire.KV{{Key: key, Val: []byte("holder")}}, Participants: []int{0, 1},
			}
			if resp, err := m.Prepare(context.Background(), holder); err != nil || !resp.OK {
				t.Fatalf("holder prepare: %+v %v", resp, err)
			}
			waiter := prepReq(2, 200, nil, []wire.KV{{Key: key, Val: []byte("waiter")}})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if c.ctxEnded {
				cancel()
			}
			answers := make(chan answer, 2)
			prepare := func() {
				resp, err := m.Prepare(ctx, waiter)
				answers <- answer{resp, err}
			}
			start := time.Now()
			go prepare()
			if c.parks {
				waitParked(t, reg, "prepare", 1)
				if c.during != nil {
					c.during(m, h, waiter)
				}
				if c.copies == 2 {
					go prepare()
					waitParked(t, reg, "prepare", 2)
				}
				if c.decide != "" {
					if _, err := m.Decision(context.Background(), wire.DecisionRequest{ID: holder.ID, Commit: c.decide == "commit"}); err != nil {
						t.Fatal(err)
					}
				}
			}
			for i := 0; i < max(c.copies, 1); i++ {
				a := <-answers
				if a.err != nil || a.resp.OK != c.wantOK || a.resp.Code != c.wantCode {
					t.Fatalf("copy %d voted %+v, %v; want OK %v code %v", i, a.resp, a.err, c.wantOK, c.wantCode)
				}
			}
			if waited := time.Since(start) >= DecisionWait; waited != c.waited {
				t.Fatalf("voted after %v; want no earlier than the %v bound: %v", time.Since(start), DecisionWait, c.waited)
			}
			if parked := reg.Gauge(`milana_parked{op="prepare"}`).Value(); parked != 0 {
				t.Fatalf("%d prepares still parked after every vote", parked)
			}
			if byReason, byCause := abortCounts(reg); byReason != c.wantAborts || byCause != c.wantAborts {
				t.Fatalf("abort counters moved by %d (reason) and %d (provenance), want %d", byReason, byCause, c.wantAborts)
			}
			if c.check != nil {
				c.check(t, m, h, waiter)
			}
		})
	}
}
