package milana

import (
	"context"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/wire"
)

// onGet is a single-key read through OnGet: it returns the key's prepared bit.
func onGet(m *Manager, ctx context.Context, key []byte, at clock.Timestamp) bool {
	var prepared [1]bool
	m.OnGet(ctx, [][]byte{key}, at, prepared[:])
	return prepared[0]
}

// endedCtx is an already-ended context: OnGet under it reports a key's mark
// without waiting for the decision.
func endedCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// TestReadPark: a read at or after a prepared timestamp raises latestRead,
// parks on the holder's decision and answers the prepared bit as it stands
// after the park — cleared by either decision, whose commit is already in the
// backend when the read wakes; set when the bound or the read's context ends
// first. A read below the mark, or of another key, never parks; a mark
// re-armed under a parked read wakes it to park again on the new mark. A
// MultiGet raises latestRead on all its keys before it parks on the first.
func TestReadPark(t *testing.T) {
	key := []byte("k")
	holderID := wire.TxnID{Client: 1, Seq: 1}
	rearmID := wire.TxnID{Client: 3, Seq: 1}
	for _, c := range []struct {
		name string
		// keys are the read's keys; default just the holder's. The
		// holder's key comes first, and only it is ever prepared.
		keys     []string
		at       int64
		parks    bool
		ctxEnded bool
		// during runs once the read has parked; then the holder is decided
		// when decide is "commit" or "abort".
		during       func(t *testing.T, m *Manager, reg *obs.Registry)
		decide       string
		wantPrepared bool
		// wantVal is the backend's value at the read's snapshot once the
		// read answered.
		wantVal     string
		waited      bool
		wantParks   uint64
		wantExpired int64
	}{
		{name: "holder-commits", at: 150, parks: true, decide: "commit", wantVal: "holder", wantParks: 1},
		{name: "holder-aborts", at: 150, parks: true, decide: "abort", wantVal: "old", wantParks: 1},
		{name: "bound", at: 150, parks: true, wantPrepared: true, wantVal: "old", waited: true, wantParks: 1, wantExpired: 1},
		{name: "context-ended", at: 150, ctxEnded: true, wantPrepared: true, wantVal: "old", wantParks: 1, wantExpired: 1},
		{name: "below-mark", at: 50, wantVal: "old"},
		{name: "other-key", keys: []string{"other"}, at: 150},
		{
			name: "mark-rearmed", at: 150, parks: true, decide: "commit", wantVal: "rearmed", wantParks: 2,
			during: func(t *testing.T, m *Manager, reg *obs.Registry) {
				// A recovered table re-arms the key under the parked read:
				// the read wakes and parks on the new mark. ArmPrepared arms
				// the holder and the learned transaction in map order, so
				// either may hold the key after it; both are decided.
				if err := m.Learn(context.Background(), wire.TxnRecord{ID: rearmID, CommitTs: ts(120),
					WriteSet: []wire.KV{{Key: key, Val: []byte("rearmed")}}, Participants: []int{0, 1},
					Status: wire.StatusPrepared}); err != nil {
					t.Fatal(err)
				}
				m.ArmPrepared()
				parks, parked := reg.Histogram(`milana_park_ns{op="read"}`), reg.Gauge(`milana_parked{op="read"}`)
				for deadline := time.Now().Add(5 * time.Second); parks.Snapshot().Count < 1 || parked.Value() < 1; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatal("the read never parked on the re-armed mark")
					}
				}
				if _, err := m.Decision(context.Background(), wire.DecisionRequest{ID: rearmID, Commit: true}); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name: "writer-below-read", at: 150, parks: true, decide: "abort", wantVal: "old", wantParks: 1,
			during: func(t *testing.T, m *Manager, _ *obs.Registry) {
				// The holder at 100 is older than this writer at 120, which
				// would park on its mark — but the parked read already
				// raised latestRead to 150.
				start := time.Now()
				resp, err := m.Prepare(context.Background(), prepReq(2, 120, nil, []wire.KV{{Key: key, Val: []byte("writer")}}))
				if err != nil || resp.OK || resp.Code != wire.AbortLateWriteRead {
					t.Fatalf("writer below the parked read voted %+v, %v; want late-write-vs-read NO", resp, err)
				}
				if took := time.Since(start); took >= DecisionWait {
					t.Fatalf("writer below the parked read voted after %v, want at once", took)
				}
			},
		},
		{
			name: "multiget-writer-on-last-key", keys: []string{"k", "a", "last"}, at: 150, parks: true,
			decide: "commit", wantVal: "holder", wantParks: 1,
			during: func(t *testing.T, m *Manager, _ *obs.Registry) {
				// The read is parked on its first key, and its last key
				// has no mark: its read was still recorded before the park.
				start := time.Now()
				resp, err := m.Prepare(context.Background(), prepReq(2, 120, nil, []wire.KV{{Key: []byte("last"), Val: []byte("writer")}}))
				if err != nil || resp.OK || resp.Code != wire.AbortLateWriteRead {
					t.Fatalf("writer on the parked read's last key voted %+v, %v; want late-write-vs-read NO", resp, err)
				}
				if took := time.Since(start); took >= DecisionWait {
					t.Fatalf("writer on the parked read's last key voted after %v, want at once", took)
				}
			},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := newFakeHost()
			_ = h.backend.Put(key, []byte("old"), ts(10))
			m := NewManager(h)
			reg := obs.NewRegistry()
			m.SetMetrics(reg)
			holder := prepReq(1, 100, nil, []wire.KV{{Key: key, Val: []byte("holder")}})
			if resp, err := m.Prepare(context.Background(), holder); err != nil || !resp.OK {
				t.Fatalf("holder prepare: %+v %v", resp, err)
			}
			readKeys := [][]byte{key}
			if c.keys != nil {
				readKeys = nil
				for _, k := range c.keys {
					readKeys = append(readKeys, []byte(k))
				}
			}
			readKey := readKeys[0]
			ctx := context.Background()
			if c.ctxEnded {
				ctx = endedCtx()
			}
			answer := make(chan []bool, 1)
			start := time.Now()
			go func() {
				prepared := make([]bool, len(readKeys))
				m.OnGet(ctx, readKeys, ts(c.at), prepared)
				answer <- prepared
			}()
			if c.parks {
				waitParked(t, reg, "read", 1)
				if c.during != nil {
					c.during(t, m, reg)
				}
				if c.decide != "" {
					if _, err := m.Decision(context.Background(), wire.DecisionRequest{ID: holderID, Commit: c.decide == "commit"}); err != nil {
						t.Fatal(err)
					}
				}
			}
			prepared := <-answer
			for i, bit := range prepared {
				if want := c.wantPrepared && i == 0; bit != want {
					t.Fatalf("read at %d answered prepared %v for key %q, want %v", c.at, bit, readKeys[i], want)
				}
			}
			if waited := time.Since(start) >= DecisionWait; waited != c.waited {
				t.Fatalf("read answered after %v; want no earlier than the %v bound: %v", time.Since(start), DecisionWait, c.waited)
			}
			val, _, _, err := h.backend.Get(readKey, ts(c.at))
			if err != nil || string(val) != c.wantVal {
				t.Fatalf("value at the read's snapshot %q (%v), want %q", val, err, c.wantVal)
			}
			snap := reg.Snapshot()
			if parks, expired, parked := snap.Hists[`milana_park_ns{op="read"}`].Count,
				snap.Counters[`milana_park_expired_total{op="read"}`],
				snap.Gauges[`milana_parked{op="read"}`]; parks != c.wantParks || expired != c.wantExpired || parked != 0 {
				t.Fatalf("parks %d, expired %d, still parked %d; want %d, %d, 0", parks, expired, parked, c.wantParks, c.wantExpired)
			}
			if c.decide != "" && onGet(m, endedCtx(), readKey, ts(c.at)) {
				t.Fatal("key still reports a prepared version after the decision")
			}
		})
	}
}

// TestOnGetNoMarkAllocs: a read of a key with no mark takes no timer and
// allocates nothing. The key is longer than one byte, since Go converts
// one-byte slices to strings without allocating.
func TestOnGetNoMarkAllocs(t *testing.T) {
	m := NewManager(newFakeHost())
	m.SetMetrics(obs.NewRegistry())
	ctx := context.Background()
	keys, prepared := [][]byte{[]byte("timeline:1234")}, make([]bool, 1)
	m.OnGet(ctx, keys, ts(1), prepared)
	if n := testing.AllocsPerRun(100, func() { m.OnGet(ctx, keys, ts(2), prepared) }); n != 0 {
		t.Fatalf("OnGet on a touched key with no mark allocates %v times, want 0", n)
	}
}
