package faults

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// echoServer registers a counting echo handler on the bus and returns the
// delivery counter.
func echoServer(b *transport.Bus, addr string) *atomic.Int64 {
	var n atomic.Int64
	b.Register(addr, transport.HandlerFunc(func(ctx context.Context, req any) (any, error) {
		n.Add(1)
		return req, nil
	}))
	return &n
}

func newTestNet(t *testing.T, opt Options) (*Injector, *transport.Bus, *atomic.Int64) {
	t.Helper()
	bus := transport.NewBus(transport.LatencyModel{}, 1)
	served := echoServer(bus, "srv")
	in := New(opt)
	in.Bind(bus)
	return in, bus, served
}

func TestPassThroughWhenHealthy(t *testing.T) {
	in, _, served := newTestNet(t, Options{Seed: 1})
	cl := in.Client("a")
	resp, err := cl.Call(context.Background(), "srv", "ping")
	if err != nil || resp != "ping" {
		t.Fatalf("Call = %v, %v", resp, err)
	}
	if served.Load() != 1 {
		t.Fatalf("served = %d", served.Load())
	}
	st := in.Stats()
	if st.Calls != 1 || st.DroppedRequests+st.DroppedReplies+st.Duplicates+st.Blocked != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDropRequestPreventsDelivery(t *testing.T) {
	in, _, served := newTestNet(t, Options{Seed: 7, PDropRequest: 1})
	_, err := in.Client("a").Call(context.Background(), "srv", "x")
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v", err)
	}
	if served.Load() != 0 {
		t.Fatalf("handler ran despite dropped request")
	}
	if in.Stats().DroppedRequests != 1 {
		t.Fatalf("stats = %+v", in.Stats())
	}
}

func TestDropReplyStillExecutes(t *testing.T) {
	// The crucial asymmetry: the operation happened, but the caller sees
	// an error. Retry/idempotency paths live here.
	in, _, served := newTestNet(t, Options{Seed: 7, PDropReply: 1})
	_, err := in.Client("a").Call(context.Background(), "srv", "x")
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v", err)
	}
	if served.Load() != 1 {
		t.Fatalf("served = %d, want 1 (handler must run before reply drops)", served.Load())
	}
	if in.Stats().DroppedReplies != 1 {
		t.Fatalf("stats = %+v", in.Stats())
	}
}

func TestDuplicateDeliversTwice(t *testing.T) {
	in, _, served := newTestNet(t, Options{Seed: 3, PDuplicate: 1})
	const calls = 8
	cl := in.Client("a")
	for i := 0; i < calls; i++ {
		if _, err := cl.Call(context.Background(), "srv", i); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	in.Quiesce() // drain in-flight duplicate deliveries
	if got := served.Load(); got != 2*calls {
		t.Fatalf("served = %d, want %d", got, 2*calls)
	}
	if st := in.Stats(); st.Duplicates != calls {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDelayHonorsContext(t *testing.T) {
	in, _, _ := newTestNet(t, Options{Seed: 3, PDelay: 1, MaxDelay: time.Minute})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := in.Client("a").Call(ctx, "srv", "x")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	if in.Stats().Delayed != 1 {
		t.Fatalf("stats = %+v", in.Stats())
	}
}

func TestSymmetricPartition(t *testing.T) {
	in, _, served := newTestNet(t, Options{Seed: 1})
	in.Partition("a", "srv")
	_, err := in.Client("a").Call(context.Background(), "srv", "x")
	if !errors.Is(err, ErrUnreachable) || served.Load() != 0 {
		t.Fatalf("err = %v served = %d", err, served.Load())
	}
	// Unrelated endpoints are unaffected.
	if _, err := in.Client("b").Call(context.Background(), "srv", "x"); err != nil {
		t.Fatalf("bystander blocked: %v", err)
	}
	in.HealLink("a", "srv")
	if _, err := in.Client("a").Call(context.Background(), "srv", "x"); err != nil {
		t.Fatalf("after heal: %v", err)
	}
}

func TestAsymmetricPartitionLosesReply(t *testing.T) {
	// Block only srv → a. Requests from a still arrive and execute, but a
	// never hears back — exactly the half-open link that turns a committed
	// operation into an unknown outcome at the caller.
	in, _, served := newTestNet(t, Options{Seed: 1})
	in.PartitionOneWay("srv", "a")
	_, err := in.Client("a").Call(context.Background(), "srv", "x")
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
	if served.Load() != 1 {
		t.Fatalf("served = %d, want 1 (request direction was open)", served.Load())
	}
	// The reverse orientation blocks the request itself.
	in.Heal()
	in.PartitionOneWay("a", "srv")
	_, err = in.Client("a").Call(context.Background(), "srv", "x")
	if !errors.Is(err, ErrUnreachable) || served.Load() != 1 {
		t.Fatalf("err = %v served = %d", err, served.Load())
	}
}

func TestCrashIsolatesBothDirections(t *testing.T) {
	in, _, served := newTestNet(t, Options{Seed: 1})
	in.Freeze("srv")
	if !in.Frozen("srv") {
		t.Fatal("Frozen = false")
	}
	if _, err := in.Client("a").Call(context.Background(), "srv", "x"); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("to crashed: %v", err)
	}
	// A crashed endpoint cannot send either.
	in.Freeze("a")
	in.Unfreeze("srv")
	if _, err := in.Client("a").Call(context.Background(), "srv", "x"); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("from crashed: %v", err)
	}
	in.Unfreeze("a")
	if _, err := in.Client("a").Call(context.Background(), "srv", "x"); err != nil {
		t.Fatalf("after restart: %v", err)
	}
	if served.Load() != 1 {
		t.Fatalf("served = %d", served.Load())
	}
}

func TestQuiesceRestoresHealth(t *testing.T) {
	in, _, _ := newTestNet(t, Options{Seed: 9, PDropRequest: 1, PDropReply: 1, PDuplicate: 1})
	in.Partition("a", "srv")
	in.Freeze("b")
	in.Quiesce()
	for _, from := range []string{"a", "b"} {
		if _, err := in.Client(from).Call(context.Background(), "srv", "x"); err != nil {
			t.Fatalf("%s after Quiesce: %v", from, err)
		}
	}
}

// TestDeterministicFaultStream replays the same sequential call sequence
// against two injectors with the same seed and requires identical
// per-call outcomes and identical fault counters — the replay guarantee
// `make stress` leans on.
func TestDeterministicFaultStream(t *testing.T) {
	opt := Options{Seed: 42, PDropRequest: 0.3, PDropReply: 0.2, PDuplicate: 0.2, PDelay: 0.3, MaxDelay: time.Millisecond}
	run := func() (string, Stats) {
		bus := transport.NewBus(transport.LatencyModel{}, 5)
		echoServer(bus, "srv")
		in := New(opt)
		in.Bind(bus)
		cl := in.Client("a")
		var pattern string
		for i := 0; i < 200; i++ {
			_, err := cl.Call(context.Background(), "srv", i)
			switch {
			case err == nil:
				pattern += "."
			case errors.Is(err, ErrInjected):
				pattern += "x"
			default:
				pattern += "?"
			}
		}
		in.Quiesce()
		return pattern, in.Stats()
	}
	p1, s1 := run()
	p2, s2 := run()
	if p1 != p2 {
		t.Fatalf("outcome patterns diverge:\n%s\n%s", p1, p2)
	}
	if s1 != s2 {
		t.Fatalf("stats diverge: %+v vs %+v", s1, s2)
	}
	if s1.DroppedRequests == 0 || s1.DroppedReplies == 0 || s1.Duplicates == 0 || s1.Delayed == 0 {
		t.Fatalf("fault mix did not exercise all classes: %+v", s1)
	}
}

// TestDifferentSeedsDiverge is the sanity complement: the stream must
// actually depend on the seed.
func TestDifferentSeedsDiverge(t *testing.T) {
	pattern := func(seed int64) string {
		bus := transport.NewBus(transport.LatencyModel{}, 5)
		echoServer(bus, "srv")
		in := New(Options{Seed: seed, PDropRequest: 0.5})
		in.Bind(bus)
		cl := in.Client("a")
		var p string
		for i := 0; i < 100; i++ {
			if _, err := cl.Call(context.Background(), "srv", i); err != nil {
				p += "x"
			} else {
				p += "."
			}
		}
		return p
	}
	if pattern(1) == pattern(2) {
		t.Fatal("seeds 1 and 2 produced identical fault streams")
	}
}

func TestWrapBindsOnFirstUse(t *testing.T) {
	bus := transport.NewBus(transport.LatencyModel{}, 1)
	served := echoServer(bus, "srv")
	in := New(Options{Seed: 1})
	cl := in.Wrap("a", bus)
	if _, err := cl.Call(context.Background(), "srv", "x"); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if served.Load() != 1 {
		t.Fatalf("served = %d", served.Load())
	}
}

// TestInjectorOverTCP wraps the real TCP transport: the injector is
// transport-agnostic, so drops and partitions must behave identically to
// the in-process bus.
func TestInjectorOverTCP(t *testing.T) {
	var served atomic.Int64
	srv, err := transport.NewTCPServer("127.0.0.1:0", transport.HandlerFunc(func(ctx context.Context, req any) (any, error) {
		served.Add(1)
		return req, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tc := transport.NewTCPClient()
	defer tc.Close()

	// Real TCP carries only what the wire codec can encode, so this test —
	// unlike the bus ones above — sends a wire message.
	ping := wire.LeaseRequest{Primary: "ping"}
	in := New(Options{Seed: 1})
	cl := in.Wrap("a", tc)
	resp, err := cl.Call(context.Background(), srv.Addr(), ping)
	if err != nil || resp != ping {
		t.Fatalf("Call over TCP = %v, %v", resp, err)
	}
	in.Partition("a", srv.Addr())
	if _, err := cl.Call(context.Background(), srv.Addr(), ping); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("partition over TCP: %v", err)
	}
	if served.Load() != 1 {
		t.Fatalf("served = %d", served.Load())
	}
	in.Heal()
	if _, err := cl.Call(context.Background(), srv.Addr(), ping); err != nil {
		t.Fatalf("after heal: %v", err)
	}
}

func TestChaosKeepsQuorumsLive(t *testing.T) {
	groups := [][]string{
		{"s0a", "s0b", "s0c"},
		{"s1a", "s1b", "s1c"},
	}
	in := New(Options{Seed: 11})
	in.Bind(transport.NewBus(transport.LatencyModel{}, 1))
	c := NewChaos(in, ChaosOptions{Seed: 11, Groups: groups})
	for i := 0; i < 500; i++ {
		c.Step()
		c.mu.Lock()
		for gi, g := range groups {
			if d := c.disturbedLocked(gi); d > len(g)/2 {
				c.mu.Unlock()
				t.Fatalf("step %d: group %d has %d disturbed members (max %d); log tail: %v",
					i, gi, d, len(g)/2, c.log[max(0, len(c.log)-5):])
			}
		}
		c.mu.Unlock()
	}
	c.Stop()
	// After Stop everything is healed and restarted.
	for _, g := range groups {
		for _, n := range g {
			if in.Frozen(n) {
				t.Fatalf("%s still crashed after Stop", n)
			}
		}
	}
	// No handler is registered for s1a on this bus, so ErrUnknownAddr is
	// expected — but the injector itself must not be the one blocking.
	if _, err := in.Client("s0a").Call(context.Background(), "s1a", "x"); errors.Is(err, ErrUnreachable) || errors.Is(err, ErrInjected) {
		t.Fatalf("network not restored: %v", err)
	}
}

func TestChaosStepStreamDeterministic(t *testing.T) {
	groups := [][]string{{"a", "b", "c"}}
	run := func() []string {
		in := New(Options{Seed: 5})
		in.Bind(transport.NewBus(transport.LatencyModel{}, 1))
		c := NewChaos(in, ChaosOptions{Seed: 99, Groups: groups})
		for i := 0; i < 200; i++ {
			c.Step()
		}
		return c.Log()
	}
	l1, l2 := run(), run()
	if fmt.Sprint(l1) != fmt.Sprint(l2) {
		t.Fatal("chaos event streams diverge for the same seed")
	}
	// The stream should contain real events, not all noops.
	events := 0
	for _, e := range l1 {
		if e != "noop" {
			events++
		}
	}
	if events < 50 {
		t.Fatalf("only %d/200 steps produced events", events)
	}
}

// TestChaosKillRevive wires counting Kill/Revive callbacks and checks the
// amnesia-kill lifecycle: killed nodes are frozen at the network layer,
// the liveness guard holds with kills in the mix, every kill is eventually
// paired with a revive, and Stop revives the stragglers.
func TestChaosKillRevive(t *testing.T) {
	groups := [][]string{{"a", "b", "c"}, {"d", "e", "f"}}
	in := New(Options{Seed: 4})
	in.Bind(transport.NewBus(transport.LatencyModel{}, 1))
	kills, revives := map[string]int{}, map[string]int{}
	c := NewChaos(in, ChaosOptions{
		Seed:   4,
		Groups: groups,
		Kill:   func(n string) error { kills[n]++; return nil },
		Revive: func(n string) error { revives[n]++; return nil },
	})
	for i := 0; i < 500; i++ {
		c.Step()
		c.mu.Lock()
		for n := range c.killed {
			if !in.Frozen(n) {
				c.mu.Unlock()
				t.Fatalf("step %d: killed node %s reachable", i, n)
			}
		}
		for gi, g := range groups {
			if d := c.disturbedLocked(gi); d > len(g)/2 {
				c.mu.Unlock()
				t.Fatalf("step %d: group %d has %d disturbed (max %d)", i, gi, d, len(g)/2)
			}
		}
		c.mu.Unlock()
	}
	total := 0
	for _, k := range kills {
		total += k
	}
	if total == 0 {
		t.Fatal("500 steps produced no kill events")
	}
	c.Stop()
	if len(c.Killed()) != 0 {
		t.Fatalf("killed after Stop: %v", c.Killed())
	}
	for n, k := range kills {
		if revives[n] != k {
			t.Fatalf("%s: %d kills but %d revives", n, k, revives[n])
		}
	}
	for _, g := range groups {
		for _, n := range g {
			if in.Frozen(n) {
				t.Fatalf("%s still frozen after Stop", n)
			}
		}
	}
}

func TestChaosStartStop(t *testing.T) {
	in := New(Options{Seed: 2})
	in.Bind(transport.NewBus(transport.LatencyModel{}, 1))
	c := NewChaos(in, ChaosOptions{Seed: 2, Groups: [][]string{{"a", "b", "c"}}, Tick: time.Millisecond})
	c.Start()
	c.Start() // double Start must be a no-op, not a second loop
	time.Sleep(20 * time.Millisecond)
	c.Stop()
	if len(c.Log()) == 0 {
		t.Fatal("ticker loop produced no events")
	}
	c.Stop() // double Stop must not panic
}
