package faults

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/clock"
)

// ChaosOptions configures a Chaos schedule driver.
type ChaosOptions struct {
	// Seed drives the event stream (independent of the Injector's seed).
	Seed int64
	// Groups are the replica groups (one per shard). Chaos keeps each
	// group live: at most f = len(group)/2 members are disturbed
	// (crashed or partitioned) at any time, so quorums stay reachable
	// and the run can make progress while still exercising failover and
	// retry paths.
	Groups [][]string
	// Clocks, when non-empty, enables clock chaos: a step event
	// re-disciplines one random clock with a residual up to ±MaxClockStep.
	Clocks []*clock.Skewed
	// MaxClockStep bounds injected clock steps (0 disables clock chaos).
	MaxClockStep time.Duration
	// Tick is the interval between events under Run (default 10ms).
	Tick time.Duration
	// Kill, when set, enables amnesia-kill events: the callback must tear
	// the named node's process down for real — every in-memory structure
	// lost, nothing surviving but its WAL directory. The chaos driver
	// freezes the node's network first, so nothing reaches a corpse.
	Kill func(name string) error
	// Revive restarts a killed node (cold start + WAL recovery). Required
	// when Kill is set; killed nodes are revived by later events and,
	// unconditionally, by Stop.
	Revive func(name string) error
	// MaxSlow, when positive, enables gray-failure events: a slow event
	// holds every delivery to one node for a random duration up to MaxSlow
	// (Injector.SetSlow), an unslow event heals one slowed node. Slowness
	// is degradation, not unavailability, so it does not count against a
	// group's live-majority guard — but it is exactly the overload trigger
	// admission control exists for.
	MaxSlow time.Duration
}

// Chaos applies a seeded stream of structural fault events — freezes,
// unfreezes, partitions, heals, clock steps, and (when the Kill/Revive
// callbacks are wired) amnesia-kills with cold-restart recovery — on top
// of an Injector's probabilistic message faults. Drive it a step at a time
// (Step) or on a ticker (Start/Stop). Stop restores the cluster (heal +
// unfreeze + revive all).
type Chaos struct {
	in  *Injector
	opt ChaosOptions
	rng *rand.Rand

	mu      sync.Mutex
	crashed map[string]int     // frozen (fail-stop, state kept): name → group index
	killed  map[string]int     // amnesia-killed (state lost): name → group index
	slowed  map[string]bool    // gray-failed (SetSlow delay in force)
	parted  map[[2]string]bool // active partitions (unordered pairs)
	inGroup map[string]int     // name → group index
	log     []string           // event descriptions, for failure replay

	stop chan struct{}
	done chan struct{}
}

// NewChaos builds a chaos driver over the injector.
func NewChaos(in *Injector, opt ChaosOptions) *Chaos {
	if opt.Tick <= 0 {
		opt.Tick = 10 * time.Millisecond
	}
	c := &Chaos{
		in:      in,
		opt:     opt,
		rng:     rand.New(rand.NewSource(opt.Seed)),
		crashed: make(map[string]int),
		killed:  make(map[string]int),
		slowed:  make(map[string]bool),
		parted:  make(map[[2]string]bool),
		inGroup: make(map[string]int),
	}
	for gi, g := range opt.Groups {
		for _, n := range g {
			c.inGroup[n] = gi
		}
	}
	return c
}

// disturbedLocked counts group members currently frozen, killed, or
// partitioned.
func (c *Chaos) disturbedLocked(group int) int {
	dist := make(map[string]bool)
	for n, g := range c.crashed {
		if g == group {
			dist[n] = true
		}
	}
	for n, g := range c.killed {
		if g == group {
			dist[n] = true
		}
	}
	for pair := range c.parted {
		for _, n := range []string{pair[0], pair[1]} {
			if c.inGroup[n] == group {
				dist[n] = true
			}
		}
	}
	return len(dist)
}

// canDisturbLocked reports whether node n may be crashed or partitioned
// without taking its group below a live majority.
func (c *Chaos) canDisturbLocked(n string) bool {
	g, ok := c.inGroup[n]
	if !ok {
		return true
	}
	if _, crashed := c.crashed[n]; crashed {
		return true // already disturbed: no additional damage
	}
	if _, killed := c.killed[n]; killed {
		return true
	}
	for pair := range c.parted {
		if pair[0] == n || pair[1] == n {
			return true
		}
	}
	return c.disturbedLocked(g) < len(c.opt.Groups[g])/2
}

// Step performs one random chaos event and returns its description.
func (c *Chaos) Step() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Kill-less configs draw from the classic six events so their seeded
	// streams stay dense (and kill-enabled runs get a deterministic stream
	// of their own — determinism is per (seed, options), not across them).
	events := 6
	if c.opt.Kill != nil {
		events += 2
	}
	if c.opt.MaxSlow > 0 {
		events += 2
	}
	ev := c.rng.Intn(events)
	if ev >= 6 && c.opt.Kill == nil {
		ev += 2 // kill-less slow-enabled configs map draws 6,7 → slow,unslow
	}
	desc := "noop"
	switch ev {
	case 0: // freeze a random eligible node (fail-stop, state kept)
		if n := c.pickLocked(func(n string) bool {
			_, crashed := c.crashed[n]
			_, killed := c.killed[n]
			return !crashed && !killed && c.canDisturbLocked(n)
		}); n != "" {
			c.crashed[n] = c.inGroup[n]
			c.in.Freeze(n)
			desc = "freeze " + n
		}
	case 1: // unfreeze a frozen node
		if n := c.pickCrashedLocked(); n != "" {
			delete(c.crashed, n)
			c.in.Unfreeze(n)
			desc = "unfreeze " + n
		}
	case 2: // partition a random eligible pair (one- or two-way)
		a := c.pickLocked(func(n string) bool { return c.canDisturbLocked(n) })
		b := c.pickLocked(func(n string) bool { return n != a && a != "" && c.partitionOKLocked(a, n) })
		if a != "" && b != "" {
			if c.rng.Intn(2) == 0 {
				c.in.PartitionOneWay(a, b)
				desc = fmt.Sprintf("partition %s → %s", a, b)
			} else {
				c.in.Partition(a, b)
				desc = fmt.Sprintf("partition %s ↔ %s", a, b)
			}
			c.parted[pairKey(a, b)] = true
		}
	case 3: // heal one partition
		for pair := range c.parted {
			c.in.HealLink(pair[0], pair[1])
			delete(c.parted, pair)
			desc = fmt.Sprintf("heal %s ↔ %s", pair[0], pair[1])
			break
		}
	case 4: // full heal + restart (rare global recovery)
		c.in.Heal()
		for n := range c.crashed {
			c.in.Unfreeze(n)
		}
		c.crashed = make(map[string]int)
		c.parted = make(map[[2]string]bool)
		desc = "heal all"
	case 5: // clock step
		if len(c.opt.Clocks) > 0 && c.opt.MaxClockStep > 0 {
			i := c.rng.Intn(len(c.opt.Clocks))
			step := time.Duration(c.rng.Int63n(int64(2*c.opt.MaxClockStep)+1) - int64(c.opt.MaxClockStep))
			c.opt.Clocks[i].Discipline(step)
			desc = fmt.Sprintf("clock[%d] step %v", i, step)
		}
	case 6: // amnesia-kill: process death, state lost except the WAL dir
		if c.opt.Kill == nil {
			break
		}
		n := c.pickLocked(func(n string) bool {
			_, crashed := c.crashed[n]
			_, killed := c.killed[n]
			return !crashed && !killed && c.canDisturbLocked(n)
		})
		if n == "" {
			break
		}
		c.in.Freeze(n) // nothing reaches a corpse while it is down
		if err := c.opt.Kill(n); err != nil {
			c.in.Unfreeze(n)
			desc = fmt.Sprintf("kill %s failed: %v", n, err)
			break
		}
		c.killed[n] = c.inGroup[n]
		desc = "kill " + n
	case 7: // revive a killed node: cold start + WAL recovery
		n := c.pickKilledLocked()
		if n == "" {
			break
		}
		if err := c.opt.Revive(n); err != nil {
			desc = fmt.Sprintf("revive %s failed: %v", n, err) // retried later
			break
		}
		delete(c.killed, n)
		c.in.Unfreeze(n)
		desc = "revive " + n
	case 8: // slow: gray-fail one node (deliveries delayed, not dropped)
		if c.opt.MaxSlow <= 0 {
			break
		}
		n := c.pickLocked(func(n string) bool { return !c.slowed[n] })
		if n == "" {
			break
		}
		d := time.Duration(c.rng.Int63n(int64(c.opt.MaxSlow)) + 1)
		c.in.SetSlow(n, d)
		c.slowed[n] = true
		desc = fmt.Sprintf("slow %s %v", n, d)
	case 9: // unslow: heal one gray-failed node
		n := c.pickLocked(func(n string) bool { return c.slowed[n] })
		if n == "" {
			break
		}
		c.in.ClearSlow(n)
		delete(c.slowed, n)
		desc = "unslow " + n
	}
	c.log = append(c.log, desc)
	return desc
}

// partitionOKLocked reports whether partitioning a ↔ b keeps a live
// majority in both endpoints' groups. It tentatively applies the
// partition so that both newly-disturbed nodes are counted at once.
func (c *Chaos) partitionOKLocked(a, b string) bool {
	key := pairKey(a, b)
	if c.parted[key] {
		return true // already in force
	}
	c.parted[key] = true
	ok := true
	for _, n := range []string{a, b} {
		if g, in := c.inGroup[n]; in && c.disturbedLocked(g) > len(c.opt.Groups[g])/2 {
			ok = false
		}
	}
	delete(c.parted, key)
	return ok
}

// pickLocked returns a uniformly random node satisfying ok, or "".
func (c *Chaos) pickLocked(ok func(string) bool) string {
	var cands []string
	for _, g := range c.opt.Groups {
		for _, n := range g {
			if ok(n) {
				cands = append(cands, n)
			}
		}
	}
	if len(cands) == 0 {
		return ""
	}
	return cands[c.rng.Intn(len(cands))]
}

func (c *Chaos) pickCrashedLocked() string {
	var cands []string
	for _, g := range c.opt.Groups {
		for _, n := range g {
			if _, crashed := c.crashed[n]; crashed {
				cands = append(cands, n)
			}
		}
	}
	if len(cands) == 0 {
		return ""
	}
	return cands[c.rng.Intn(len(cands))]
}

func (c *Chaos) pickKilledLocked() string {
	var cands []string
	for _, g := range c.opt.Groups {
		for _, n := range g {
			if _, killed := c.killed[n]; killed {
				cands = append(cands, n)
			}
		}
	}
	if len(cands) == 0 {
		return ""
	}
	return cands[c.rng.Intn(len(cands))]
}

// Killed returns the currently-dead nodes (they are frozen at the network
// layer too, until revived).
func (c *Chaos) Killed() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for n := range c.killed {
		out = append(out, n)
	}
	return out
}

func pairKey(a, b string) [2]string {
	if a < b {
		return [2]string{a, b}
	}
	return [2]string{b, a}
}

// Log returns the descriptions of every event applied so far, in order —
// print it when a seed fails so the schedule is part of the report.
func (c *Chaos) Log() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.log...)
}

// Start applies one event per tick until Stop.
func (c *Chaos) Start() {
	c.mu.Lock()
	if c.stop != nil {
		c.mu.Unlock()
		return
	}
	c.stop = make(chan struct{})
	c.done = make(chan struct{})
	stop, done := c.stop, c.done
	c.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(c.opt.Tick)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				c.Step()
			}
		}
	}()
}

// Stop halts the event loop and restores the cluster: every partition is
// healed, every frozen node unfrozen, and every killed node revived
// through the Revive callback — so a post-chaos audit sees a full
// membership, each revived replica freshly recovered from its WAL
// (probabilistic faults are the Injector's business — see
// Injector.Quiesce).
func (c *Chaos) Stop() {
	c.mu.Lock()
	stop, done := c.stop, c.done
	c.stop, c.done = nil, nil
	c.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	c.mu.Lock()
	c.in.Heal()
	for n := range c.crashed {
		c.in.Unfreeze(n)
	}
	for n := range c.killed {
		if err := c.opt.Revive(n); err != nil {
			c.log = append(c.log, fmt.Sprintf("revive %s at Stop failed: %v", n, err))
			continue
		}
		c.in.Unfreeze(n)
		c.log = append(c.log, "revive "+n+" at Stop")
	}
	for n := range c.slowed {
		c.in.ClearSlow(n)
	}
	c.crashed = make(map[string]int)
	c.killed = make(map[string]int)
	c.slowed = make(map[string]bool)
	c.parted = make(map[[2]string]bool)
	c.mu.Unlock()
}
