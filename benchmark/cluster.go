package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/flash"
	"repro/internal/milana"
	"repro/internal/mvftl"
	"repro/internal/obs"
	"repro/internal/retwis"
	"repro/internal/semel"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wal"
)

// replica is one storage server and the layers under it that report counts.
type replica struct {
	addr   string
	server *semel.Server
	device *flash.Device // nil unless the workload uses MFTL
	store  *mvftl.Store  // nil unless the workload uses MFTL
	log    *wal.WAL      // nil unless the workload uses a WAL
}

// deployment is one assembled cluster plus the sessions that drive it.
type deployment struct {
	dir      *cluster.Directory
	net      transport.Client // the sessions' shared view of the network
	source   clock.Source
	replicas []replica
	clients  []*milana.Client // one per session, added by connect
	// population holds the version populate gave each key of
	// retwis.PopulationKeys(users), for the serializability check.
	population []clock.Timestamp
	closers    []func() // run in reverse order by close, after the servers have stopped
}

// fsyncLatency is what one fsync of the emulated log device takes.
const fsyncLatency = 200 * time.Microsecond

// slowFS is the WAL's device model: the program's own in-memory filesystem
// (which models what a crash would keep) with a fixed fsync latency. The
// checkout's real disk is not used: on a shared host its fsync time drifts
// by a factor of two over minutes, and every bus-wal number drifted with it
// (ten seeds spread 25-37 %).
type slowFS struct{ wal.FS }

func (f slowFS) Create(path string) (wal.File, error) {
	file, err := f.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return slowFile{file}, nil
}

type slowFile struct{ wal.File }

func (f slowFile) Sync() error {
	if err := deviceWait(fsyncLatency); err != nil {
		return err
	}
	return f.File.Sync()
}

// deviceTimer is a timerfd read through the runtime's network poller under
// a read deadline of the same length: the completion of a device operation,
// delivered the way the completion of any other I/O is. The two cover each
// other. A Go timer (time.Sleep, the deadline) shorter than a millisecond
// fires on time only while some thread is scheduling goroutines, and after
// a full millisecond, the resolution of the runtime's epoll wait, when all
// are parked; the timerfd wakes a parked thread on time, and goes unnoticed
// while all are busy. With time.Sleep alone a 200 us fsync took 0.2 ms nine
// times in ten and 1.2 ms the tenth, the share followed how busy the
// scheduler was, and between runs of the same code rw_p50_ms and ro_p50_ms
// moved by 20-30 % in opposite directions. A blocking nanosleep(2) is worse:
// the thread keeps its P until sysmon takes it away, and with three log
// devices on two Ps the sessions starve (a quarter of the throughput).
type deviceTimer struct {
	file *os.File
	conn syscall.RawConn
}

var deviceTimers = sync.Pool{New: func() any {
	const clockMonotonic, flags = 1, syscall.O_NONBLOCK | syscall.O_CLOEXEC
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, flags, 0)
	if errno != 0 {
		return fmt.Errorf("timerfd_create: %w", errno)
	}
	t := &deviceTimer{file: os.NewFile(fd, "timerfd")}
	var err error
	if t.conn, err = t.file.SyscallConn(); err != nil {
		return err
	}
	return t
}}

// deviceWait parks the calling goroutine for d.
func deviceWait(d time.Duration) error {
	got := deviceTimers.Get()
	t, ok := got.(*deviceTimer)
	if !ok {
		return got.(error)
	}
	defer deviceTimers.Put(t)
	// struct itimerspec: the interval (none), then the time to expiry.
	// Arming again discards an expiry the deadline left unread.
	spec := [2]syscall.Timespec{1: syscall.NsecToTimespec(int64(d))}
	var errno syscall.Errno
	if err := t.conn.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	}); err != nil {
		return err
	}
	if errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	if err := t.file.SetReadDeadline(time.Now().Add(d)); err != nil {
		return err
	}
	var expirations [8]byte
	if _, err := t.file.Read(expirations[:]); err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
		return err
	}
	return nil
}

// lateHandler lets a TCP listener exist before the server it will serve: the
// directory needs every listener's address before any server can be built.
type lateHandler struct {
	h atomic.Pointer[transport.Handler]
}

func (l *lateHandler) Serve(ctx context.Context, req any) (any, error) {
	h := l.h.Load()
	if h == nil {
		return nil, fmt.Errorf("benchmark: server not started")
	}
	return (*h).Serve(ctx, req)
}

// assemble builds the workload's cluster from the packages' public
// constructors, wired the way cmd/semeld and core.NewCluster wire them. It
// is the only assembly path: the untraced pass calls it with a nil tracer,
// whose wrap methods return their argument unchanged.
func assemble(w workload, seed int64, tr *tracer) (d *deployment, err error) {
	d = &deployment{source: clock.NewSystemSource()}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	n := w.Shards * replicas

	// Addresses first. On the bus they are names; over TCP each replica
	// listens on a free loopback port.
	var bus *transport.Bus
	late := make([]*lateHandler, n)
	addrs := make([]string, n)
	regs := make([]*obs.Registry, n) // one per replica, shared by its layers as in semeld
	if !w.TCP {
		bus = transport.NewBus(w.Latency, seed)
		d.closers = append(d.closers, bus.Close)
	}
	for i := range addrs {
		regs[i] = obs.NewRegistry()
		if bus != nil {
			addrs[i] = fmt.Sprintf("shard%d/r%d", i/replicas, i%replicas)
			continue
		}
		late[i] = &lateHandler{}
		ln, err := transport.NewTCPServerOpts("127.0.0.1:0", late[i], transport.TCPServerOptions{Metrics: regs[i]})
		if err != nil {
			return nil, fmt.Errorf("listening for replica %d: %w", i, err)
		}
		d.closers = append(d.closers, func() { _ = ln.Close() })
		addrs[i] = ln.Addr()
	}
	if tr != nil {
		tr.addrs = addrs
	}
	sets := make([]cluster.ReplicaSet, w.Shards)
	for s := range sets {
		sets[s] = cluster.ReplicaSet{Primary: addrs[s*replicas], Backups: addrs[s*replicas+1 : (s+1)*replicas]}
	}
	if d.dir, err = cluster.New(sets); err != nil {
		return nil, err
	}
	// newNet gives one endpoint its view of the network: the bus, or a TCP
	// client of its own (one connection per server it addresses).
	newNet := func(node uint8, reg *obs.Registry) transport.Client {
		if bus != nil {
			return tr.client(node, bus)
		}
		c := transport.NewTCPClientOpts(transport.TCPClientOptions{Metrics: reg})
		d.closers = append(d.closers, c.Close)
		return tr.client(node, c)
	}

	for i, addr := range addrs {
		node := uint8(i + 1)
		rep := replica{addr: addr}
		var backend storage.Backend = storage.NewDRAM()
		if w.MFTL {
			rep.device, err = flash.NewDevice(flash.Options{
				Geometry: mftlGeometry,
				Timing:   flash.DefaultTiming,
				Sleeper:  tr.sleeper(node, flash.RealSleeper{}),
			})
			if err != nil {
				return nil, err
			}
			if rep.store, err = mvftl.New(rep.device, mvftl.Options{}); err != nil {
				return nil, err
			}
			backend = rep.store
		}
		if w.WAL {
			rep.log, err = wal.Open(wal.Options{
				Dir:     fmt.Sprintf("wal/shard%d-r%d", i/replicas, i%replicas),
				FS:      tr.fs(node, slowFS{wal.NewMemFS()}),
				Metrics: regs[i],
			})
			if err != nil {
				return nil, fmt.Errorf("opening WAL for %s: %w", addr, err)
			}
			log := rep.log
			d.closers = append(d.closers, func() { _ = log.Close() })
		}
		opt := semel.ServerOptions{
			Addr:            addr,
			Shard:           cluster.ShardID(i / replicas),
			Primary:         i%replicas == 0,
			Backend:         tr.backend(node, backend),
			Net:             newNet(node, regs[i]),
			Dir:             d.dir,
			Clock:           tr.clock(clock.NewPerfect(d.source, uint32(1<<20+i))),
			Metrics:         regs[i],
			Log:             rep.log,
			CheckpointEvery: 1 << 20, // no checkpoint inside a run
		}
		if w.Clock.MeanAbsOffset > 0 {
			// Two independently disciplined clocks can disagree by one
			// epsilon each (core.NewCluster's rule for abort provenance).
			opt.SkewWindow = 2 * w.Clock.Epsilon()
		}
		if rep.server, err = semel.NewServer(opt); err != nil {
			return nil, fmt.Errorf("starting %s: %w", addr, err)
		}
		d.replicas = append(d.replicas, rep)
		h := tr.handler(node, rep.server)
		if bus != nil {
			bus.Register(addr, h)
		} else {
			late[i].h.Store(&h)
		}
	}

	// The sessions' shared view of the network; connect adds the sessions.
	d.net = newNet(0, nil)
	return d, nil
}

// populatorID is the client id of the set-up writer, far above the sessions'.
const populatorID = 9_000_001

// populate writes the Retwis population through the plain key-value API.
func (d *deployment) populate(ctx context.Context, w workload) error {
	cl := semel.NewClient(clock.NewPerfect(d.source, populatorID), d.net, d.dir)
	val := make([]byte, w.ValueSize)
	for i := range val {
		val[i] = 'p'
	}
	keys := retwis.PopulationKeys(users)
	d.population = make([]clock.Timestamp, len(keys))
	next := make(chan int)
	var (
		wg    sync.WaitGroup
		once  sync.Once
		first error
	)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	for i := 0; i < w.Populators; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				ver, err := cl.Put(ctx, []byte(keys[k]), val)
				if err != nil {
					once.Do(func() {
						first = fmt.Errorf("populating %q: %w", keys[k], err)
						cancel() // the remaining puts fail fast and drain the channel
					})
				}
				d.population[k] = ver
			}
		}()
	}
	for k := range keys {
		next <- k
	}
	close(next)
	wg.Wait()
	return first
}

// connect creates the sessions' transaction clients, which share one
// transport client and differ in clock and id, and registers each with the
// watermark. It runs after populate: a client holds the watermark down to
// its creation time, and one created before the population would make every
// anti-entropy round re-read the whole population from the backend.
func (d *deployment) connect(ctx context.Context, w workload, seed int64, tr *tracer) {
	rng := rand.New(rand.NewSource(seed + 1))
	var skewed []*clock.Skewed
	for i := 0; i < sessions; i++ {
		id := uint32(i + 1)
		var clk clock.Clock = clock.NewPerfect(d.source, id)
		if w.Clock.MeanAbsOffset > 0 {
			sk := w.Clock.NewDisciplinedClock(d.source, id, rng)
			skewed = append(skewed, sk)
			clk = sk
		}
		cl := milana.NewClient(tr.clock(clk), d.net, d.dir)
		// Without a watermark MFTL could never reclaim a version.
		cl.BroadcastWatermark(ctx)
		d.clients = append(d.clients, cl)
	}
	if len(skewed) > 0 {
		syn := clock.NewSynchronizer(w.Clock, seed+99, skewed...)
		syn.Start()
		d.closers = append(d.closers, syn.Stop)
	}
}

func (d *deployment) close() {
	// The servers stop concurrently: each waits out the anti-entropy round
	// it has in flight, which on flash takes seconds, and a server waiting
	// its turn would start another.
	var wg sync.WaitGroup
	for _, r := range d.replicas {
		wg.Add(1)
		go func(r replica) {
			defer wg.Done()
			r.server.Close()
		}(r)
	}
	wg.Wait()
	d.replicas = nil
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
	d.closers = nil
}
