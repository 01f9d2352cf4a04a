// Package faults is a deterministic, seeded fault-injection layer over
// the transport. An Injector wraps any transport.Client (the in-process
// Bus or a TCP client) and hands out per-endpoint clients whose calls it
// perturbs: dropped requests, dropped replies (the request executed but
// the caller never learns it — the case that exercises retry and
// idempotency paths), duplicate delivery, bounded random delays (which
// reorder concurrent messages), symmetric and asymmetric partitions, and
// freeze/unfreeze of endpoints (fail-stop with state preserved: a frozen
// endpoint neither sends nor receives). Process death with amnesia — all
// state lost except the WAL directory — is the Chaos driver's kill event,
// delegated to callbacks that actually tear the server down.
//
// Every probabilistic decision is drawn from one PRNG seeded by
// Options.Seed, in a fixed per-call order, so the fault-decision stream
// of a run is an exact function of (seed, message sequence). Goroutine
// interleaving still varies between runs — what replays exactly is which
// messages the network harms and how — which in practice pins down
// failing schedules well enough to reproduce them (see `make stress`).
package faults

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/transport"
)

// ErrInjected marks a message the injector deliberately lost.
var ErrInjected = errors.New("faults: injected message loss")

// ErrUnreachable marks a message blocked by a partition or a crashed
// endpoint.
var ErrUnreachable = errors.New("faults: endpoint unreachable")

// Options sets the probabilistic fault mix. All probabilities are per
// message in [0, 1]; zero disables that fault class.
type Options struct {
	// Seed drives every probabilistic decision.
	Seed int64
	// PDropRequest drops the request before the handler runs.
	PDropRequest float64
	// PDropReply runs the handler but loses the response — the caller
	// sees an error for an operation that happened.
	PDropReply float64
	// PDuplicate delivers the request a second time, concurrently with
	// the first, discarding the duplicate's response.
	PDuplicate float64
	// PDelay holds the request for a random duration up to MaxDelay
	// before delivery, reordering it against concurrent traffic.
	PDelay   float64
	MaxDelay time.Duration
}

// Stats counts injected faults (observability for stress harnesses).
type Stats struct {
	Calls           int64
	DroppedRequests int64
	DroppedReplies  int64
	Duplicates      int64
	Delayed         int64
	Blocked         int64
	// Slowed counts deliveries held up by a SetSlow gray-failure delay.
	Slowed int64
}

type link struct{ from, to string }

// Injector wraps a transport and perturbs traffic. Build one with New,
// bind it to the underlying transport (Bind, or let core call Wrap), and
// give every endpoint its own client via Client(name) — the per-caller
// name is what lets partitions and crashes be asymmetric.
type Injector struct {
	mu      sync.Mutex
	inner   transport.Client
	opt     Options
	rng     *rand.Rand
	enabled bool
	blocked map[link]bool
	frozen  map[string]bool
	slow    map[string]time.Duration
	stats   Stats
	wg      sync.WaitGroup // in-flight duplicate deliveries
}

// New builds an unbound injector with probabilistic faults enabled.
func New(opt Options) *Injector {
	return &Injector{
		opt:     opt,
		rng:     rand.New(rand.NewSource(opt.Seed)),
		enabled: true,
		blocked: make(map[link]bool),
		frozen:  make(map[string]bool),
		slow:    make(map[string]time.Duration),
	}
}

// Bind attaches the underlying transport. Calls panic until bound.
func (in *Injector) Bind(inner transport.Client) {
	in.mu.Lock()
	in.inner = inner
	in.mu.Unlock()
}

// Wrap is shaped for core.ClusterOptions.NetWrapper: it binds the
// injector to the cluster's transport on first use and returns the named
// endpoint's faulty client.
func (in *Injector) Wrap(name string, inner transport.Client) transport.Client {
	in.mu.Lock()
	if in.inner == nil {
		in.inner = inner
	}
	in.mu.Unlock()
	return in.Client(name)
}

// Client returns the transport client for one named endpoint. Server
// endpoints conventionally use their bus address; clients any unique name.
func (in *Injector) Client(name string) transport.Client {
	return endpoint{in: in, name: name}
}

type endpoint struct {
	in   *Injector
	name string
}

func (e endpoint) Call(ctx context.Context, addr string, req any) (any, error) {
	return e.in.call(ctx, e.name, addr, req)
}

// SetEnabled toggles the probabilistic faults (drops, dups, delays).
// Partitions and crashes are explicit state and stay in force regardless.
func (in *Injector) SetEnabled(v bool) {
	in.mu.Lock()
	in.enabled = v
	in.mu.Unlock()
}

// PartitionOneWay blocks messages from → to (requests that way, and the
// replies of calls made the other way).
func (in *Injector) PartitionOneWay(from, to string) {
	in.mu.Lock()
	in.blocked[link{from, to}] = true
	in.mu.Unlock()
}

// Partition blocks both directions between a and b.
func (in *Injector) Partition(a, b string) {
	in.mu.Lock()
	in.blocked[link{a, b}] = true
	in.blocked[link{b, a}] = true
	in.mu.Unlock()
}

// HealLink removes both directions of a partition between a and b.
func (in *Injector) HealLink(a, b string) {
	in.mu.Lock()
	delete(in.blocked, link{a, b})
	delete(in.blocked, link{b, a})
	in.mu.Unlock()
}

// Heal removes every partition.
func (in *Injector) Heal() {
	in.mu.Lock()
	in.blocked = make(map[link]bool)
	in.mu.Unlock()
}

// Freeze isolates an endpoint fail-stop at the network layer: every
// message to or from it is blocked until Unfreeze. The endpoint's STATE IS
// PRESERVED — this models a paused or unreachable process (SIGSTOP, a dead
// NIC), not a dead one. For process death with memory loss (amnesia), see
// Chaos's kill events and core.Cluster.KillServer, which tear the server
// down for real and leave only its WAL directory behind.
func (in *Injector) Freeze(name string) {
	in.mu.Lock()
	in.frozen[name] = true
	in.mu.Unlock()
}

// Unfreeze lifts a Freeze.
func (in *Injector) Unfreeze(name string) {
	in.mu.Lock()
	delete(in.frozen, name)
	in.mu.Unlock()
}

// Frozen reports whether the endpoint is currently frozen.
func (in *Injector) Frozen(name string) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.frozen[name]
}

// SetSlow makes endpoint name a gray failure: every delivery TO it is held
// for d before reaching the handler — the degraded-but-alive replica (GC
// death spiral, saturated disk, overloaded NIC) that freeze/kill cannot
// model because those are binary. The slowness is deterministic state, not
// an rng draw, so it leaves the injector's fault-decision stream untouched.
// d <= 0 clears the slowness.
func (in *Injector) SetSlow(name string, d time.Duration) {
	in.mu.Lock()
	if d <= 0 {
		delete(in.slow, name)
	} else {
		in.slow[name] = d
	}
	in.mu.Unlock()
}

// ClearSlow removes a SetSlow delay.
func (in *Injector) ClearSlow(name string) { in.SetSlow(name, 0) }

// Slow reports endpoint name's current gray-failure delay (0 = healthy).
func (in *Injector) Slow(name string) time.Duration {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.slow[name]
}

// Crash is a legacy alias for Freeze. The old name oversold itself: it
// never destroyed state, it only unplugged the endpoint — pair it with
// core.Cluster.KillPrimary for stateful failover, or use the kill path
// for true crash-with-amnesia.
//
// Deprecated: use Freeze (same semantics, honest name).
func (in *Injector) Crash(name string) { in.Freeze(name) }

// Restart is a legacy alias for Unfreeze.
//
// Deprecated: use Unfreeze.
func (in *Injector) Restart(name string) { in.Unfreeze(name) }

// Crashed is a legacy alias for Frozen.
//
// Deprecated: use Frozen.
func (in *Injector) Crashed(name string) bool { return in.Frozen(name) }

// Quiesce returns the network to health: probabilistic faults off, all
// partitions healed, all crashed endpoints restarted, and every in-flight
// duplicate delivery drained. Call it before a post-chaos audit.
func (in *Injector) Quiesce() {
	in.mu.Lock()
	in.enabled = false
	in.blocked = make(map[link]bool)
	in.frozen = make(map[string]bool)
	in.slow = make(map[string]time.Duration)
	in.mu.Unlock()
	in.wg.Wait()
}

// Stats snapshots the fault counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

func (in *Injector) reachable(from, to string) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return !in.frozen[from] && !in.frozen[to] && !in.blocked[link{from, to}]
}

type decision struct {
	dropReq, dropRep, dup bool
	delay                 time.Duration
}

// decide draws this call's fault decisions. All four draws happen
// unconditionally and in a fixed order, so the PRNG stream — and with it
// every later decision — is independent of which probabilities are set.
func (in *Injector) decide() decision {
	in.mu.Lock()
	defer in.mu.Unlock()
	pDropReq, pDropRep, pDup, pDelay := in.rng.Float64(), in.rng.Float64(), in.rng.Float64(), in.rng.Float64()
	if !in.enabled {
		return decision{}
	}
	var d decision
	d.dropReq = pDropReq < in.opt.PDropRequest
	d.dropRep = pDropRep < in.opt.PDropReply
	d.dup = pDup < in.opt.PDuplicate
	if pDelay < in.opt.PDelay && in.opt.MaxDelay > 0 {
		d.delay = time.Duration(in.rng.Int63n(int64(in.opt.MaxDelay)) + 1)
	}
	return d
}

// beginDuplicate registers one duplicate delivery with the WaitGroup Quiesce
// waits on. It does so under mu and only while the injector is still
// enabled: a call that drew its duplicate before a Quiesce but was delayed
// past it sends none, and every Add is ordered before that Quiesce's Wait.
func (in *Injector) beginDuplicate() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.enabled {
		return false
	}
	in.stats.Duplicates++
	in.wg.Add(1)
	return true
}

func (in *Injector) call(ctx context.Context, from, to string, req any) (any, error) {
	in.mu.Lock()
	inner := in.inner
	in.stats.Calls++
	in.mu.Unlock()
	if inner == nil {
		panic("faults: injector not bound to a transport")
	}
	if !in.reachable(from, to) {
		in.count(func(s *Stats) { s.Blocked++ })
		return nil, fmt.Errorf("%w: %s → %s", ErrUnreachable, from, to)
	}
	if slow := in.Slow(to); slow > 0 {
		// Gray failure: the destination is alive but degraded, so every
		// inbound delivery eats a fixed delay before dispatch. Honors ctx so
		// a deadline-bounded caller times out instead of serving the delay.
		in.count(func(s *Stats) { s.Slowed++ })
		t := time.NewTimer(slow)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		}
	}
	d := in.decide()
	if d.delay > 0 {
		in.count(func(s *Stats) { s.Delayed++ })
		t := time.NewTimer(d.delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		}
	}
	if d.dropReq {
		in.count(func(s *Stats) { s.DroppedRequests++ })
		return nil, fmt.Errorf("%w: request %s → %s", ErrInjected, from, to)
	}
	if d.dup && in.beginDuplicate() {
		// Deliver a second copy concurrently and discard its response —
		// the redelivery a duplicating network causes. The receiver must
		// treat it idempotently; Quiesce waits for stragglers.
		go func() {
			defer in.wg.Done()
			if in.reachable(from, to) {
				_, _ = inner.Call(context.Background(), to, req)
			}
		}()
	}
	resp, err := inner.Call(ctx, to, req)
	if err != nil {
		return nil, err
	}
	if d.dropRep {
		in.count(func(s *Stats) { s.DroppedReplies++ })
		return nil, fmt.Errorf("%w: reply %s → %s", ErrInjected, to, from)
	}
	// An asymmetric partition to → from loses the reply even though the
	// request got through and executed.
	if !in.reachable(to, from) {
		in.count(func(s *Stats) { s.Blocked++ })
		return nil, fmt.Errorf("%w: reply %s → %s", ErrUnreachable, to, from)
	}
	return resp, nil
}

func (in *Injector) count(f func(*Stats)) {
	in.mu.Lock()
	f(&in.stats)
	in.mu.Unlock()
}
