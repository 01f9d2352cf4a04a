// Package core is the public facade of the SEMEL/MILANA reproduction: one
// call builds a complete sharded, replicated cluster — storage servers with
// the backend of your choice (DRAM, unified multi-version flash, split
// KV-over-FTL, or single-version flash), an in-process network with
// data-center latencies, per-client precision clocks disciplined by a
// synchronization profile (PTP, NTP, ...), and client libraries for both
// the plain key-value API (§3) and serializable transactions (§4).
//
// Typical use:
//
//	c, _ := core.NewCluster(core.ClusterOptions{Shards: 3, Replicas: 3})
//	defer c.Close()
//	txc := c.NewTxnClient(1)
//	_ = txc.RunTransaction(ctx, func(t *milana.Txn) error { ... })
package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/audit"
	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/kvlayer"
	"repro/internal/milana"
	"repro/internal/mvftl"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/semel"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wal"
)

// Backend kinds accepted by ClusterOptions.
const (
	BackendDRAM = "dram" // in-memory persistent-memory model
	BackendMFTL = "mftl" // unified multi-version FTL (SEMEL SDF)
	BackendVFTL = "vftl" // split multi-version KV over a generic FTL
	BackendSFTL = "sftl" // single-version generic FTL
)

// ClusterOptions configures NewCluster. The zero value means: 1 shard,
// 3 replicas, DRAM backend, zero network latency, perfect clocks.
type ClusterOptions struct {
	// Shards is the number of key-space shards (default 1).
	Shards int
	// Replicas is the replication factor 2f+1 per shard (default 3).
	Replicas int
	// Backend picks the storage backend (default BackendDRAM).
	Backend string
	// Geometry sizes the emulated flash devices (flash backends only).
	Geometry flash.Geometry
	// Timing sets flash latencies; zero means flash.DefaultTiming.
	Timing flash.Timing
	// RealFlashTiming enables real-time sleeps in the flash emulator;
	// false runs the devices at memory speed (functionally identical).
	RealFlashTiming bool
	// PackTimeout is the FTL packing delay (0 = 1 ms, <0 = disabled).
	PackTimeout time.Duration
	// Latency is the network latency model (zero = instant).
	Latency transport.LatencyModel
	// ClockProfile disciplines client clocks (zero value = perfect).
	ClockProfile clock.Profile
	// LeaseDuration configures primary read leases (0 = 2 s, <0 = off).
	LeaseDuration time.Duration
	// PreparedTimeout bounds in-doubt transactions (0 = 5 s).
	PreparedTimeout time.Duration
	// AntiEntropyInterval is the backup catch-up pull period
	// (0 = 1 s, <0 = off).
	AntiEntropyInterval time.Duration
	// SkewServers disciplines *server* clocks with ClockProfile too
	// (default: servers run perfect clocks, as in the paper's single-VM
	// setup). Skewed server clocks make cross-node trace spans misalign by
	// realistic amounts, which is what the skew-aware collector corrects.
	SkewServers bool
	// SlowRequestThreshold enables the servers' slow-request log (0 = off).
	SlowRequestThreshold time.Duration
	// Seed makes latency jitter and clock skew reproducible.
	Seed int64
	// NetWrapper, when set, wraps every endpoint's view of the transport —
	// the fault-injection hook (faults.Injector.Wrap). It is called once
	// per server (name = the server's bus address) and once per client
	// (name = "client-<id>"); the returned client carries all of that
	// endpoint's outgoing traffic.
	NetWrapper func(name string, inner transport.Client) transport.Client
	// Audit, when set, enables the online audit pipeline: one shared
	// audit.Auditor is created for the cluster, attached to every server
	// (commit-wait monitoring, wire.AuditRequest service) and to every
	// transaction client NewTxnClient builds (streaming history intake).
	// NewCluster fills the cluster-derived fields — Oracle (the shared
	// clock source), Watermark (min over the replicas), Health, SpanSource,
	// Metrics, Profile, and Epsilon (the clock profile's ε) — unless the
	// caller set them explicitly.
	Audit *audit.Options
	// Stages enables per-transaction stage-latency attribution on every
	// client NewTxnClient builds: each transaction carries a pooled ledger
	// that folds into milana_stage_ledger_ns{stage=...} in the cluster
	// registry (Obs). Servers always fold their own server-side ledgers;
	// this switch only controls the client end-to-end accounting.
	Stages bool
	// CommitWait makes every primary hold prepares until its clock clears
	// the commit timestamp plus this bound (see semel.ServerOptions).
	CommitWait time.Duration
	// WALRoot, when set, gives every replica a durable write-ahead log in
	// its own directory under this root (created if missing): acknowledged
	// state changes survive amnesia-kills, and KillServer/RestartServer
	// become available. Empty disables durability — a killed replica then
	// recovers only what its peers can re-teach it.
	WALRoot string
	// CheckpointEvery is passed to every server (see
	// semel.ServerOptions.CheckpointEvery). Only meaningful with WALRoot.
	CheckpointEvery int
	// Admission, when set, gives every server an admission controller
	// (priority load shedding + RetryAfter pushback, as semeld
	// -admission-max-inflight does), with its metrics in the server's own
	// registry. Nil admits everything (the seed behavior).
	Admission *resilience.AdmissionOptions
}

// Cluster is an embedded SEMEL/MILANA deployment.
type Cluster struct {
	opt ClusterOptions
	Bus *transport.Bus
	Dir *cluster.Directory
	// Obs is the cluster-level metrics registry: client-side RPC latency
	// from the bus and clock-synchronizer skew land here. Each server
	// additionally owns its own registry (Server.Metrics).
	Obs     *obs.Registry
	Source  clock.Source
	servers map[string]*semel.Server
	devices map[string]*flash.Device
	wals    map[string]*wal.WAL
	slots   map[string]*replicaSlot
	auditor *audit.Auditor

	mu        sync.Mutex
	rng       *rand.Rand
	clocks    []*clock.Skewed
	syncStops []func()
}

// replicaSlot remembers everything needed to rebuild a replica after an
// amnesia-kill: its coordinates, its clock (a clock survives a process
// restart — it is the node's oscillator, not program state), its skew
// window, its fault-wrapped network, and its WAL directory.
type replicaSlot struct {
	shard, replica int
	clock          clock.Clock
	skewWindow     time.Duration
	net            transport.Client
	walDir         string
}

// Addr names replica r of shard s.
func Addr(shard, replica int) string { return fmt.Sprintf("shard%d/r%d", shard, replica) }

// NewCluster builds and starts an embedded cluster.
func NewCluster(opt ClusterOptions) (*Cluster, error) {
	if opt.Shards <= 0 {
		opt.Shards = 1
	}
	if opt.Replicas <= 0 {
		opt.Replicas = 3
	}
	if opt.Replicas%2 == 0 {
		return nil, fmt.Errorf("core: replicas must be odd (2f+1), got %d", opt.Replicas)
	}
	if opt.Backend == "" {
		opt.Backend = BackendDRAM
	}
	if opt.Geometry == (flash.Geometry{}) {
		opt.Geometry = flash.Geometry{Channels: 4, BlocksPerChannel: 32, PagesPerBlock: 16, PageSize: 1024}
	}
	if opt.Timing == (flash.Timing{}) {
		opt.Timing = flash.DefaultTiming
	}
	if opt.ClockProfile.Name == "" {
		opt.ClockProfile = clock.PerfectProfile
	}

	c := &Cluster{
		opt:     opt,
		Bus:     transport.NewBus(opt.Latency, opt.Seed),
		Obs:     obs.NewRegistry(),
		Source:  clock.NewSystemSource(),
		servers: make(map[string]*semel.Server),
		devices: make(map[string]*flash.Device),
		wals:    make(map[string]*wal.WAL),
		slots:   make(map[string]*replicaSlot),
		rng:     rand.New(rand.NewSource(opt.Seed + 1)),
	}
	c.Bus.SetMetrics(c.Obs)

	shards := make([]cluster.ReplicaSet, opt.Shards)
	for s := 0; s < opt.Shards; s++ {
		rs := cluster.ReplicaSet{Primary: Addr(s, 0)}
		for r := 1; r < opt.Replicas; r++ {
			rs.Backups = append(rs.Backups, Addr(s, r))
		}
		shards[s] = rs
	}
	dir, err := cluster.New(shards)
	if err != nil {
		return nil, err
	}
	c.Dir = dir

	if opt.Audit != nil {
		ao := *opt.Audit
		if ao.Oracle == nil {
			// The embedded cluster's shared source IS true time: every
			// emulated clock is a perturbation of it.
			ao.Oracle = c.Source.Now
		}
		if ao.Watermark == nil {
			ao.Watermark = c.minWatermark
		}
		if ao.Health == nil {
			ao.Health = c.clockHealthSnapshot
		}
		if ao.SpanSource == nil {
			ao.SpanSource = c.spansForTrace
		}
		if ao.Metrics == nil {
			ao.Metrics = c.Obs
		}
		if ao.Profile == "" {
			ao.Profile = opt.ClockProfile.Name
		}
		if ao.Epsilon == 0 {
			ao.Epsilon = opt.ClockProfile.Epsilon()
		}
		if ao.Seed == 0 {
			ao.Seed = opt.Seed
		}
		c.auditor = audit.New(ao)
	}

	serverID := uint32(1 << 20) // server clock IDs far above client IDs
	for s := 0; s < opt.Shards; s++ {
		for r := 0; r < opt.Replicas; r++ {
			addr := Addr(s, r)
			var srvClock clock.Clock = clock.NewPerfect(c.Source, serverID)
			if opt.SkewServers && opt.ClockProfile.MeanAbsOffset > 0 {
				sk := opt.ClockProfile.NewDisciplinedClock(c.Source, serverID, c.rng)
				c.clocks = append(c.clocks, sk) // synchronizer disciplines it
				srvClock = sk
			}
			serverID++
			var skewWindow time.Duration
			if opt.ClockProfile.MeanAbsOffset > 0 {
				// Two independently disciplined clocks can disagree by up to
				// one Epsilon each, so aborts decided by a margin inside
				// 2·Epsilon are plausibly skew artifacts.
				skewWindow = 2 * opt.ClockProfile.Epsilon()
			}
			var net transport.Client = c.Bus
			if opt.NetWrapper != nil {
				net = opt.NetWrapper(addr, c.Bus)
			}
			slot := &replicaSlot{shard: s, replica: r, clock: srvClock, skewWindow: skewWindow, net: net}
			if opt.WALRoot != "" {
				slot.walDir = fmt.Sprintf("%s/shard%d-r%d", opt.WALRoot, s, r)
			}
			c.slots[addr] = slot
			if err := c.startServer(addr, slot, r == 0); err != nil {
				c.Close()
				return nil, err
			}
		}
	}
	c.auditor.Start() // nil-safe: no-op when auditing is off
	return c, nil
}

// startServer builds one replica — fresh backend, reopened WAL, new
// semel.Server (which replays the WAL inside NewServer) — and registers it
// on the bus. Shared by cluster construction and RestartServer.
func (c *Cluster) startServer(addr string, slot *replicaSlot, primary bool) error {
	backend, dev, err := c.newBackend()
	if err != nil {
		return err
	}
	var w *wal.WAL
	var reg *obs.Registry
	if slot.walDir != "" || c.opt.Admission != nil {
		reg = obs.NewRegistry()
	}
	if slot.walDir != "" {
		w, err = wal.Open(wal.Options{Dir: slot.walDir, Metrics: reg})
		if err != nil {
			return fmt.Errorf("core: opening WAL for %s: %w", addr, err)
		}
	}
	var adm *resilience.Admission
	if c.opt.Admission != nil {
		ao := *c.opt.Admission
		if ao.Metrics == nil {
			ao.Metrics = reg
		}
		adm = resilience.NewAdmission(ao)
	}
	srv, err := semel.NewServer(semel.ServerOptions{
		Addr:                 addr,
		Shard:                cluster.ShardID(slot.shard),
		Primary:              primary,
		Backend:              backend,
		Net:                  slot.net,
		Dir:                  c.Dir,
		Clock:                slot.clock,
		LeaseDuration:        c.opt.LeaseDuration,
		PreparedTimeout:      c.opt.PreparedTimeout,
		AntiEntropyInterval:  c.opt.AntiEntropyInterval,
		SkewWindow:           slot.skewWindow,
		SlowRequestThreshold: c.opt.SlowRequestThreshold,
		Auditor:              c.auditor,
		CommitWait:           c.opt.CommitWait,
		Metrics:              reg,
		Log:                  w,
		CheckpointEvery:      c.opt.CheckpointEvery,
		Admission:            adm,
	})
	if err != nil {
		if w != nil {
			_ = w.Close()
		}
		return err
	}
	c.mu.Lock()
	if dev != nil {
		c.devices[addr] = dev
	}
	if w != nil {
		c.wals[addr] = w
	}
	c.servers[addr] = srv
	c.mu.Unlock()
	c.Bus.Register(addr, srv)
	return nil
}

// minWatermark is the cluster-wide replication watermark: the minimum over
// every replica's tracker. Zero until every replica has observed at least
// one client watermark broadcast — truncating earlier could discard history
// some replica's garbage collector has not yet been promised is stable.
func (c *Cluster) minWatermark() clock.Timestamp {
	var wm clock.Timestamp
	first := true
	for _, s := range c.liveServers() {
		w := s.Watermark()
		if w.IsZero() {
			return clock.Timestamp{}
		}
		if first || w.Before(wm) {
			wm, first = w, false
		}
	}
	return wm
}

// clockHealthSnapshot reports every emulated clock's sync state: servers by
// address, skewed client/server clocks by ID (flight-recorder context).
func (c *Cluster) clockHealthSnapshot() map[string]clock.Health {
	out := make(map[string]clock.Health)
	for addr := range c.liveServers() {
		out[addr] = c.serverClockHealth(addr)
	}
	for _, sk := range c.Clocks() {
		out[fmt.Sprintf("clock-%d", sk.Client())] = sk.Health()
	}
	return out
}

// serverClockHealth reports the sync state of the clock behind the replica
// at addr; a clock that cannot report (no HealthReporter) reads as perfectly
// synchronized.
func (c *Cluster) serverClockHealth(addr string) clock.Health {
	if hr, ok := c.slots[addr].clock.(clock.HealthReporter); ok {
		return hr.Health()
	}
	return clock.Health{}
}

// spansForTrace gathers the retained spans of one trace across every
// replica's span ring.
func (c *Cluster) spansForTrace(traceID uint64) []obs.SpanRecord {
	var out []obs.SpanRecord
	for _, s := range c.liveServers() {
		out = append(out, s.Spans().ForTrace(traceID)...)
	}
	return out
}

// liveServers snapshots the currently running servers (replicas killed by
// KillServer are absent until restarted).
func (c *Cluster) liveServers() map[string]*semel.Server {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]*semel.Server, len(c.servers))
	for a, s := range c.servers {
		out[a] = s
	}
	return out
}

// Auditor returns the cluster's online auditor (nil when auditing is off).
func (c *Cluster) Auditor() *audit.Auditor { return c.auditor }

// newBackend builds one replica's storage backend.
func (c *Cluster) newBackend() (storage.Backend, *flash.Device, error) {
	return NewBackend(BackendOptions{
		Kind:            c.opt.Backend,
		Geometry:        c.opt.Geometry,
		Timing:          c.opt.Timing,
		RealFlashTiming: c.opt.RealFlashTiming,
		PackTimeout:     c.opt.PackTimeout,
	})
}

// BackendOptions configures NewBackend.
type BackendOptions struct {
	// Kind selects the backend (BackendDRAM, BackendMFTL, ...).
	Kind string
	// Geometry and Timing size the emulated flash device (flash kinds).
	Geometry flash.Geometry
	Timing   flash.Timing
	// RealFlashTiming enables real-time device sleeps.
	RealFlashTiming bool
	// PackTimeout is the FTL packing delay (0 = 1 ms, <0 = disabled).
	PackTimeout time.Duration
}

// NewBackend builds one storage backend of the requested kind, returning
// the emulated device behind it (nil for DRAM).
func NewBackend(opt BackendOptions) (storage.Backend, *flash.Device, error) {
	if opt.Geometry == (flash.Geometry{}) {
		opt.Geometry = flash.Geometry{Channels: 4, BlocksPerChannel: 32, PagesPerBlock: 16, PageSize: 1024}
	}
	if opt.Timing == (flash.Timing{}) {
		opt.Timing = flash.DefaultTiming
	}
	switch opt.Kind {
	case "", BackendDRAM:
		return storage.NewDRAM(), nil, nil
	case BackendMFTL, BackendVFTL, BackendSFTL:
		var sleeper flash.Sleeper = flash.NopSleeper{}
		if opt.RealFlashTiming {
			sleeper = flash.RealSleeper{}
		}
		dev, err := flash.NewDevice(flash.Options{Geometry: opt.Geometry, Timing: opt.Timing, Sleeper: sleeper})
		if err != nil {
			return nil, nil, err
		}
		switch opt.Kind {
		case BackendMFTL:
			st, err := mvftl.New(dev, mvftl.Options{PackTimeout: opt.PackTimeout})
			return st, dev, err
		case BackendVFTL:
			f, err := ftl.New(dev, ftl.Options{})
			if err != nil {
				return nil, nil, err
			}
			st, err := kvlayer.New(f, kvlayer.Options{PackTimeout: opt.PackTimeout})
			return st, dev, err
		default:
			f, err := ftl.New(dev, ftl.Options{})
			if err != nil {
				return nil, nil, err
			}
			return storage.NewSingleVersion(f), dev, nil
		}
	default:
		return nil, nil, fmt.Errorf("core: unknown backend %q", opt.Kind)
	}
}

// clientClock builds a clock for client id, skewed per the cluster's
// synchronization profile.
func (c *Cluster) clientClock(id uint32) clock.Clock {
	if c.opt.ClockProfile.MeanAbsOffset == 0 {
		return clock.NewPerfect(c.Source, id)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	sk := c.opt.ClockProfile.NewDisciplinedClock(c.Source, id, c.rng)
	c.clocks = append(c.clocks, sk)
	return sk
}

// StartSynchronizer runs the cluster's clock-synchronization daemons over
// every skewed client clock created so far. Call after creating clients;
// returns a stop function (no-op when clocks are perfect). The stop is
// idempotent and also registered with Close, so a forgotten stop cannot leak
// the sync goroutine past cluster teardown.
func (c *Cluster) StartSynchronizer() func() {
	c.mu.Lock()
	clocks := append([]*clock.Skewed(nil), c.clocks...)
	c.mu.Unlock()
	if len(clocks) == 0 {
		return func() {}
	}
	s := clock.NewSynchronizer(c.opt.ClockProfile, c.opt.Seed+99, clocks...)
	s.SetMetrics(c.Obs)
	s.Start()
	var once sync.Once
	stop := func() { once.Do(s.Stop) }
	c.mu.Lock()
	c.syncStops = append(c.syncStops, stop)
	c.mu.Unlock()
	return stop
}

// MergedSnapshot merges the cluster registry with every server's registry
// into one cluster-wide metrics view (histograms bucket-merge, counters add,
// gauges take the max) — the embedded-cluster equivalent of collecting
// StatsResponse.Obs from every replica.
func (c *Cluster) MergedSnapshot() obs.Snapshot {
	snap := c.Obs.Snapshot()
	for _, s := range c.liveServers() {
		snap.Merge(s.Metrics().Snapshot())
	}
	return snap
}

// ClientClock builds a client clock disciplined per the cluster's
// synchronization profile (for baselines that bring their own client).
func (c *Cluster) ClientClock(id uint32) clock.Clock { return c.clientClock(id) }

// clientNet returns client id's view of the transport, fault-wrapped
// when the cluster has a NetWrapper.
func (c *Cluster) clientNet(id uint32) transport.Client {
	if c.opt.NetWrapper == nil {
		return c.Bus
	}
	return c.opt.NetWrapper(fmt.Sprintf("client-%d", id), c.Bus)
}

// NewSemelClient builds a plain key-value client.
func (c *Cluster) NewSemelClient(id uint32) *semel.Client {
	return semel.NewClient(c.clientClock(id), c.clientNet(id), c.Dir)
}

// NewTxnClient builds a transaction client. With auditing enabled the
// client streams every transaction it finishes into the cluster's auditor.
func (c *Cluster) NewTxnClient(id uint32) *milana.Client {
	cl := milana.NewClient(c.clientClock(id), c.clientNet(id), c.Dir)
	if c.auditor != nil {
		cl.AddSink(c.auditor)
	}
	if c.opt.Stages {
		cl.EnableStages(c.Obs)
	}
	return cl
}

// Clocks snapshots every skewed clock created so far (servers first when
// SkewServers is set, then clients in creation order) — the hook chaos
// drivers use to step clock offsets mid-run.
func (c *Cluster) Clocks() []*clock.Skewed {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*clock.Skewed(nil), c.clocks...)
}

// Server returns the replica at addr (tests and experiment drivers); nil
// while the replica is killed.
func (c *Cluster) Server(addr string) *semel.Server {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.servers[addr]
}

// Device returns the flash device backing addr, if any.
func (c *Cluster) Device(addr string) *flash.Device {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.devices[addr]
}

// Backend returns the storage backend of the replica at addr.
func (c *Cluster) Backend(addr string) storage.Backend {
	if s := c.Server(addr); s != nil {
		return s.Backend()
	}
	return nil
}

// KillPrimary crashes the current primary of a shard (fail-stop) and
// promotes the first backup: the directory is updated, the new primary
// pulls state from the surviving replicas, merges it (Algorithm 2), waits
// out the old read lease, and starts serving. It returns the new primary's
// address.
func (c *Cluster) KillPrimary(ctx context.Context, shard cluster.ShardID) (string, error) {
	old, err := c.Dir.Primary(shard)
	if err != nil {
		return "", err
	}
	c.Bus.SetDown(old, true)
	promoted, err := c.Dir.Failover(shard)
	if err != nil {
		return "", err
	}
	srv := c.Server(promoted)
	if srv == nil {
		return "", fmt.Errorf("core: promoted server %q not found", promoted)
	}
	if err := srv.Promote(ctx); err != nil {
		return "", err
	}
	return promoted, nil
}

// KillServer amnesia-kills the replica at addr: the process dies taking
// every in-memory structure with it — backend contents, transaction table,
// OCC metadata, lease state, and any WAL appends not yet fsynced (the log
// is killed, not closed: buffered records are dropped exactly as a power
// cut would drop them). Only the WAL directory survives. The address stops
// answering until RestartServer. Requires WALRoot (without a log there is
// nothing for a restart to recover from — use KillPrimary for fail-stop
// failover instead).
func (c *Cluster) KillServer(addr string) error {
	c.mu.Lock()
	srv := c.servers[addr]
	w := c.wals[addr]
	c.mu.Unlock()
	if srv == nil {
		return fmt.Errorf("core: no live server at %q", addr)
	}
	if w == nil {
		return fmt.Errorf("core: %s has no WAL; amnesia-kill requires ClusterOptions.WALRoot", addr)
	}
	c.Bus.SetDown(addr, true)
	w.Kill() // drop unsynced appends first: in-flight acks must not sneak to disk
	srv.Close()
	c.mu.Lock()
	delete(c.servers, addr)
	delete(c.devices, addr)
	delete(c.wals, addr)
	c.mu.Unlock()
	return nil
}

// RestartServer cold-starts a previously killed replica: fresh backend,
// WAL reopened from the surviving directory, and a new server whose
// constructor replays checkpoint + log before serving. The replica resumes
// the role the directory currently assigns it (a failover may have deposed
// it while dead).
func (c *Cluster) RestartServer(addr string) error {
	c.mu.Lock()
	_, alive := c.servers[addr]
	slot := c.slots[addr]
	c.mu.Unlock()
	if alive {
		return fmt.Errorf("core: %s is already running", addr)
	}
	if slot == nil {
		return fmt.Errorf("core: unknown replica %q", addr)
	}
	primary := false
	if p, err := c.Dir.Primary(cluster.ShardID(slot.shard)); err == nil {
		primary = p == addr
	}
	if err := c.startServer(addr, slot, primary); err != nil {
		return err
	}
	c.Bus.SetDown(addr, false)
	return nil
}

// Close shuts down the auditor, every server, every WAL, and the bus.
func (c *Cluster) Close() {
	c.auditor.Close() // nil-safe
	c.mu.Lock()
	stops := c.syncStops
	c.syncStops = nil
	c.mu.Unlock()
	for _, stop := range stops {
		stop()
	}
	for _, s := range c.liveServers() {
		s.Close()
	}
	c.mu.Lock()
	wals := c.wals
	c.wals = make(map[string]*wal.WAL)
	c.mu.Unlock()
	for _, w := range wals {
		_ = w.Close()
	}
	c.Bus.Close()
}
