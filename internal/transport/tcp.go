package transport

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

type wireRequest struct {
	ID uint64
	// TC carries the caller's trace context across the connection; the
	// server rebuilds the request record (obs.Req) from the header, so
	// context-based propagation works identically over TCP and the bus.
	TC obs.TraceContext
	// WantStages asks the server to return its stage-latency ledger for
	// this request (set when the caller's request record carries a ledger).
	WantStages bool
	// DeadlineNs is the caller's absolute deadline in unix nanoseconds
	// (0 = none). The server drops the request with ErrDeadlineExceeded if
	// it dequeues it after this instant and bounds the handler context by
	// it, so abandoned work dies at dispatch instead of burning the
	// storage engine.
	DeadlineNs int64
	Payload    any
}

type wireResponse struct {
	ID      uint64
	Payload any
	Err     string
	// Stage-latency block, present only when the request set WantStages:
	// the server's wall time for this request (decode→response-enqueue) and
	// its ledger as sparse (stage id, ns) pairs. The client folds these
	// into the caller's ledger and uses ServeNs to isolate wire time.
	ServeNs  int64
	StageIDs []byte
	StageNs  []int64

	// decodeNs is the client-local response decode time, stamped by
	// decodeResponse; unexported so it never travels.
	decodeNs int64
}

// MaxInflight bounds concurrently executing requests across all of a
// TCPServer's connections: beyond it, a connection's decode loop stops
// pulling requests until a handler finishes, so a flood of pipelined
// requests exerts backpressure instead of spawning an unbounded goroutine
// per request. The operator-facing overload control is
// resilience.Admission (semeld -admission-max-inflight), not this.
const MaxInflight = 1024

// DefaultCallTimeout bounds a TCPClient.Call whose context carries no
// deadline of its own. Before this default existed, such a call could hang
// forever on a server that accepted the connection but never answered.
const DefaultCallTimeout = 5 * time.Second

// connBufSize sizes each connection's read and write buffers. Large enough
// that a coalesced burst of small frames becomes one syscall.
const connBufSize = 64 << 10

// sendQueueLen bounds the frames queued to a connection's write loop.
// Enqueueing callers beyond it block, which is the natural backpressure.
const sendQueueLen = 256

// TCPServerOptions tunes a TCPServer.
type TCPServerOptions struct {
	// Metrics, when non-nil, receives wire_bytes_total{dir,codec} counters
	// and wire_encode_ns/wire_decode_ns histograms.
	Metrics *obs.Registry
}

// TCPServer serves a Handler over a TCP listener.
type TCPServer struct {
	h  Handler
	ln net.Listener
	m  *wireMetrics
	// stages folds every want-stages request's ledger into
	// server_stage_ledger_ns{stage=...} (nil without Metrics).
	stages *obs.StageSet
	// expired counts requests dropped at dispatch because their propagated
	// deadline had already passed (nil-safe without Metrics).
	expired *obs.Counter

	// Request execution runs on a lazily grown pool of reusable worker
	// goroutines. Reuse keeps handler stacks warm — a fresh goroutine per
	// request pays newstack/copystack on every deep handler call chain — and
	// the pool cap is the MaxInflight bound: when every worker is busy, dispatch
	// blocks, the decode loops stop reading, and TCP flow control pushes the
	// backlog to the clients.
	jobs      chan srvJob
	workerN   atomic.Int32
	workerCap int32
	workerWG  sync.WaitGroup

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// srvJob is one decoded request bound for the worker pool, together with the
// connection-scoped plumbing its response rides back on.
type srvJob struct {
	req    wireRequest
	writeq chan<- *[]byte  // encoded response frames, to the write loop
	wg     *sync.WaitGroup // the owning connection's in-flight count
	// decodedAt is stamped by the read loop at decode time: handler-start
	// minus decodedAt is the dispatch-queue wait, which handle puts in the
	// request record for admission control and the stage ledger.
	decodedAt time.Time
}

// NewTCPServer starts serving h on addr ("host:port"; ":0" picks a free
// port) with default options. Use Addr to discover the bound address.
func NewTCPServer(addr string, h Handler) (*TCPServer, error) {
	return NewTCPServerOpts(addr, h, TCPServerOptions{})
}

// NewTCPServerOpts starts serving h on addr with explicit options.
func NewTCPServerOpts(addr string, h Handler, opt TCPServerOptions) (*TCPServer, error) {
	return newTCPServer(addr, h, opt, MaxInflight)
}

// newTCPServer is NewTCPServerOpts with the worker-pool cap exposed, for
// the in-package tests that need a pool small enough to saturate.
func newTCPServer(addr string, h Handler, opt TCPServerOptions, maxInflight int32) (*TCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &TCPServer{
		h: h, ln: ln, m: newWireMetrics(opt.Metrics), conns: make(map[net.Conn]struct{}),
		// Unbuffered: a dispatch is a direct handoff to an idle worker, and
		// inflight == live workers, so the bound is exact.
		jobs:      make(chan srvJob),
		workerCap: maxInflight,
	}
	s.stages = obs.NewStageSet(opt.Metrics, "server_stage_ledger")
	if opt.Metrics != nil {
		s.expired = opt.Metrics.Counter("transport_deadline_expired_total")
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// dispatch hands one request to the worker pool. The handoff itself says
// whether a worker is free: jobs is unbuffered, so a non-blocking send
// succeeds only when a worker is parked on the receive. Otherwise the pool
// grows (up to workerCap) and the send blocks until a worker takes the job.
func (s *TCPServer) dispatch(j srvJob) {
	select {
	case s.jobs <- j:
		return
	default:
	}
	for {
		n := s.workerN.Load()
		if n >= s.workerCap {
			break
		}
		if s.workerN.CompareAndSwap(n, n+1) {
			s.workerWG.Add(1)
			go s.worker()
			break
		}
	}
	s.jobs <- j
}

func (s *TCPServer) worker() {
	defer s.workerWG.Done()
	for j := range s.jobs {
		s.handle(j)
	}
}

// handle executes one request and queues its response, encoded here on the
// worker, off the writer thread.
func (s *TCPServer) handle(j srvJob) {
	defer j.wg.Done()
	resp := wireResponse{ID: j.req.ID}
	// Deadline discipline: a request whose propagated deadline has already
	// passed is answered without ever reaching the handler — the caller gave
	// up, so validate/flash/WAL work would be pure waste. Live deadlines
	// bound the handler context so downstream fan-out inherits them.
	now := time.Now()
	if j.req.DeadlineNs > 0 && now.UnixNano() >= j.req.DeadlineNs {
		s.expired.Inc()
		resp.Err = ErrDeadlineExceeded.Error()
		s.respond(j, resp)
		return
	}
	ctx := context.Background()
	if j.req.DeadlineNs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, time.Unix(0, j.req.DeadlineNs))
		defer cancel()
	}
	// The request record is the one value the handler context may carry, and
	// only when the frame header says something: an unsampled request that
	// wants no stage block and did not queue runs on the bare context.
	var rec obs.Req
	if j.req.TC.Sampled {
		rec.TraceContext = j.req.TC
	}
	wait := now.Sub(j.decodedAt)
	if wait >= 100*time.Microsecond {
		// The admission controller's queueing-delay signal; shorter waits are
		// noise and not worth the context allocation.
		rec.QueueWait = wait
	}
	if j.req.WantStages {
		rec.Ledger = obs.NewLedger()
		rec.Ledger.Add(obs.StageDispatch, wait)
	}
	ctx = obs.WithReq(ctx, rec)
	payload, err := s.h.Serve(ctx, j.req.Payload)
	if err != nil {
		resp.Err = err.Error()
	} else {
		resp.Payload = payload
	}
	if led := rec.Ledger; led != nil {
		resp.StageIDs, resp.StageNs = led.Deltas()
		resp.ServeNs = int64(time.Since(j.decodedAt))
		s.stages.Fold(led, time.Duration(resp.ServeNs), j.req.TC.TraceID)
		led.Release()
	}
	s.respond(j, resp)
}

// respond encodes one response and queues the frame on the connection's
// write loop. A payload that fails to encode (the codec has no encoding for
// its type, or the body is over maxFrame) is answered with an error response
// instead, so the caller is not stranded and the connection stays up.
func (s *TCPServer) respond(j srvJob, resp wireResponse) {
	bufp, err := encodeResponse(resp, s.m)
	if err != nil {
		// Cannot fail: only a payload can, and this response has none.
		bufp, _ = encodeResponse(wireResponse{ID: resp.ID, Err: "transport: response encode: " + err.Error()}, s.m)
	}
	j.writeq <- bufp
}

// Addr returns the listener's address.
func (s *TCPServer) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and all connections.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	wasClosed := s.closed
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	// Order matters: only the accept loop and the per-connection serve loops
	// send on s.jobs, so the pool can be shut down once they have all exited.
	s.wg.Wait()
	if !wasClosed {
		close(s.jobs)
		s.workerWG.Wait()
	}
	return err
}

func (s *TCPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *TCPServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()

	// Single writer per connection: workers encode response frames and
	// enqueue them; the write loop coalesces whatever has piled up into one
	// buffered write + flush. Nobody holds a lock across I/O.
	writeq := make(chan *[]byte, sendQueueLen)
	wdone := make(chan struct{})
	go func() {
		defer close(wdone)
		s.connWriteLoop(conn, writeq)
	}()

	var inflight sync.WaitGroup
	br := bufio.NewReaderSize(conn, connBufSize)
	for {
		bodyp, err := readFrame(br)
		if err != nil {
			break
		}
		req, err := decodeRequest(*bodyp, s.m)
		putBuf(bodyp)
		if err != nil {
			break
		}
		// decodedAt feeds both the stage ledger's dispatch stage and the
		// admission controller's queueing-delay signal, so it is stamped for
		// every request, not just want-stages ones.
		j := srvJob{req: req, writeq: writeq, wg: &inflight, decodedAt: time.Now()}
		inflight.Add(1)
		s.dispatch(j)
	}
	inflight.Wait()
	// All senders are done; closing the queue lets the write loop flush and
	// exit.
	close(writeq)
	<-wdone
}

// connWriteLoop writes queued response frames, coalescing bursts into one
// flush. On any error it closes the connection (which unblocks the read
// loop) but keeps draining the queue so handlers never block on a dead
// connection.
func (s *TCPServer) connWriteLoop(conn net.Conn, writeq <-chan *[]byte) {
	bw := bufio.NewWriterSize(conn, connBufSize)
	broken := false
	write := func(bufp *[]byte) {
		if !broken {
			s.m.countTx(*bufp)
			if _, err := bw.Write(*bufp); err != nil {
				broken = true
				conn.Close()
			}
		}
		putBuf(bufp)
	}
	for bufp := range writeq {
		write(bufp)
		// Coalesce: drain whatever has queued up, and when the queue runs
		// momentarily dry, yield once so that runnable handlers get to append
		// their responses to this flush instead of forcing their own syscall.
		yielded := false
	coalesce:
		for {
			select {
			case more, ok := <-writeq:
				if !ok {
					break coalesce
				}
				write(more)
				yielded = false
			default:
				if yielded {
					break coalesce
				}
				runtime.Gosched()
				yielded = true
			}
		}
		if !broken {
			if err := bw.Flush(); err != nil {
				broken = true
				conn.Close()
			}
		}
	}
	if !broken {
		bw.Flush()
	}
}

// TCPClientOptions tunes a TCPClient.
type TCPClientOptions struct {
	// CallTimeout bounds calls whose context has no deadline. 0 means
	// DefaultCallTimeout; negative disables the bound (restoring the old
	// hang-forever behavior, for tests that need it).
	CallTimeout time.Duration
	// Metrics, when non-nil, receives wire_bytes_total{dir,codec} counters
	// and wire_encode_ns/wire_decode_ns histograms.
	Metrics *obs.Registry
}

// TCPClient multiplexes concurrent calls over one connection per address.
// A dropped connection is redialed transparently on the next Call.
type TCPClient struct {
	opt TCPClientOptions
	m   *wireMetrics

	// fast is a read-only snapshot of conns, rebuilt under mu whenever the
	// map changes. Call's hot path does one atomic load and a lock-free map
	// read instead of taking mu; any miss (cold address, dead conn, closed
	// client) falls through to the locked slow path.
	fast atomic.Pointer[map[string]*tcpConn]

	mu     sync.Mutex
	conns  map[string]*tcpConn
	closed bool
}

// refast publishes a fresh read-only snapshot of conns. Callers must hold mu.
func (c *TCPClient) refast() {
	snap := make(map[string]*tcpConn, len(c.conns))
	for a, tc := range c.conns {
		snap[a] = tc
	}
	c.fast.Store(&snap)
}

// NewTCPClient returns an empty client; connections are dialed lazily.
func NewTCPClient() *TCPClient { return NewTCPClientOpts(TCPClientOptions{}) }

// NewTCPClientOpts returns an empty client with explicit options.
func NewTCPClientOpts(opt TCPClientOptions) *TCPClient {
	return &TCPClient{opt: opt, m: newWireMetrics(opt.Metrics), conns: make(map[string]*tcpConn)}
}

var _ Client = (*TCPClient)(nil)

// pendingShards stripes the pending-call map so concurrent callers
// registering and readLoop deliveries rarely contend on the same lock.
// Must be a power of two.
const pendingShards = 16

type pendingShard struct {
	mu sync.Mutex
	m  map[uint64]chan wireResponse
}

// sendItem is one queued outbound request: the encoded frame plus the
// caller's send-queue stopwatch.
type sendItem struct {
	bufp *[]byte
	// Stage-ledger plumbing (nil/zero unless the caller's ctx carries a
	// ledger): the write loop stores enqueue→pickup into queueNs at
	// dequeue. A detached cell, not the ledger itself, because a cancelled
	// Call may release its pooled ledger while the item still sits queued.
	enq     time.Time
	queueNs *atomic.Int64
}

// noteDequeue stamps the send-queue wait; called by the write loop at every
// pickup site.
func (it *sendItem) noteDequeue() {
	if it.queueNs != nil {
		it.queueNs.Store(int64(time.Since(it.enq)))
	}
}

type tcpConn struct {
	conn   net.Conn
	sendq  chan sendItem
	closed chan struct{} // closed exactly once when the conn dies
	once   sync.Once
	dead   atomic.Bool
	nextID atomic.Uint64

	shards [pendingShards]pendingShard
}

func (tc *tcpConn) shard(id uint64) *pendingShard { return &tc.shards[id&(pendingShards-1)] }

// register adds a pending call; it fails if the connection already died (the
// drop sweep would never see the entry).
func (tc *tcpConn) register(id uint64, ch chan wireResponse) bool {
	sh := tc.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if tc.dead.Load() {
		return false
	}
	sh.m[id] = ch
	return true
}

// take removes and returns the pending entry for id, reporting whether this
// caller owned it. Exactly one of take (caller/canceller) and the readLoop's
// delivery wins each id.
func (tc *tcpConn) take(id uint64) (chan wireResponse, bool) {
	sh := tc.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ch, ok := sh.m[id]
	if ok {
		delete(sh.m, id)
	}
	return ch, ok
}

// Call sends req to addr and waits for the response. The context deadline
// (or the configured default call timeout when the caller set none) is
// stamped into the wire envelope, so the server can drop the request once
// the caller has given up on it.
func (c *TCPClient) Call(ctx context.Context, addr string, req any) (any, error) {
	deadline, hasDeadline := ctx.Deadline()
	if !hasDeadline && c.opt.CallTimeout >= 0 {
		timeout := c.opt.CallTimeout
		if timeout == 0 {
			timeout = DefaultCallTimeout
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
		deadline, hasDeadline = ctx.Deadline()
	}
	var deadlineNs int64
	if hasDeadline {
		deadlineNs = deadline.UnixNano()
	}
	tc, err := c.conn(addr)
	if err != nil {
		return nil, err
	}
	id := tc.nextID.Add(1)
	// Stage accounting is fully opt-in per call: without a ledger in the
	// request record this path takes zero extra clock reads and allocations.
	rec := obs.ReqFrom(ctx)
	led := rec.Ledger
	var start time.Time
	if led != nil {
		start = time.Now()
	}
	// Encode the frame here, concurrently with other callers. A request that
	// cannot be encoded fails alone, before anything is registered or queued.
	bufp, err := encodeRequest(id, rec.TraceContext, led != nil, deadlineNs, req, c.m)
	if err != nil {
		return nil, fmt.Errorf("transport: encode %T request: %w", req, err)
	}
	item := sendItem{bufp: bufp}
	var encNs int64
	if led != nil {
		item.enq = time.Now()
		item.queueNs = new(atomic.Int64)
		encNs = int64(item.enq.Sub(start))
		led.AddNs(obs.StageEncode, encNs)
	}
	// attribute folds the response's stage block plus the client-local
	// waits into the ledger; wire time is what remains of the call once
	// encode, queue, server and decode are subtracted out.
	attribute := func(resp wireResponse) {
		if led == nil {
			return
		}
		total := int64(time.Since(start))
		queueNs := item.queueNs.Load()
		led.AddNs(obs.StageClientQueue, queueNs)
		led.AddNs(obs.StageDecode, resp.decodeNs)
		led.AddDeltas(resp.StageIDs, resp.StageNs)
		led.AddNs(obs.StageNetwork, total-encNs-queueNs-resp.decodeNs-resp.ServeNs)
	}
	ch := make(chan wireResponse, 1)
	if !tc.register(id, ch) {
		putBuf(bufp)
		return nil, fmt.Errorf("transport: connection to %s lost", addr)
	}
	// Fast path first: a nonblocking send skips the multi-case select
	// machinery whenever the queue has room, which is the common case.
	select {
	case tc.sendq <- item:
	default:
		select {
		case tc.sendq <- item:
		case <-tc.closed:
			tc.take(id)
			putBuf(bufp)
			return nil, fmt.Errorf("transport: connection to %s lost", addr)
		case <-ctx.Done():
			tc.take(id)
			putBuf(bufp)
			return nil, ctx.Err()
		}
	}
	select {
	case resp, ok := <-ch:
		if ok {
			attribute(resp)
		}
		return finishCall(addr, resp, ok)
	case <-ctx.Done():
		// Deterministic cancellation: whoever removes the pending entry
		// owns the id. If the readLoop got there first, the response (or
		// the close from a connection drop) is already committed to ch, so
		// receive it rather than leaking a raced reply.
		if _, owned := tc.take(id); owned {
			return nil, ctx.Err()
		}
		resp, ok := <-ch
		if !ok {
			return nil, ctx.Err()
		}
		attribute(resp)
		return finishCall(addr, resp, true)
	}
}

func finishCall(addr string, resp wireResponse, ok bool) (any, error) {
	if !ok {
		return nil, fmt.Errorf("transport: connection to %s lost", addr)
	}
	if resp.Err != "" {
		return nil, &RemoteError{Msg: resp.Err}
	}
	return resp.Payload, nil
}

// conn returns a live connection to addr, dialing a fresh one when none
// exists or the cached one has died.
func (c *TCPClient) conn(addr string) (*tcpConn, error) {
	if snap := c.fast.Load(); snap != nil {
		if tc := (*snap)[addr]; tc != nil && !tc.dead.Load() {
			return tc, nil
		}
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	tc := c.conns[addr]
	if tc != nil && !tc.dead.Load() {
		c.mu.Unlock()
		return tc, nil
	}
	if tc != nil {
		delete(c.conns, addr)
		c.refast()
	}
	c.mu.Unlock()
	return c.dial(addr)
}

func (c *TCPClient) dial(addr string) (*tcpConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	tc := &tcpConn{
		conn:   conn,
		sendq:  make(chan sendItem, sendQueueLen),
		closed: make(chan struct{}),
	}
	for i := range tc.shards {
		tc.shards[i].m = make(map[uint64]chan wireResponse)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return nil, ErrClosed
	}
	if existing := c.conns[addr]; existing != nil && !existing.dead.Load() {
		c.mu.Unlock()
		conn.Close()
		return existing, nil
	}
	c.conns[addr] = tc
	c.refast()
	c.mu.Unlock()
	go c.writeLoop(addr, tc)
	go c.readLoop(addr, tc)
	return tc, nil
}

// writeLoop is the connection's single writer: it pulls queued requests,
// coalescing everything already queued into one buffered write, and flushes
// only when the queue momentarily drains — concurrent callers become
// batched syscalls.
func (c *TCPClient) writeLoop(addr string, tc *tcpConn) {
	bw := bufio.NewWriterSize(tc.conn, connBufSize)
	for {
		var it sendItem
		select {
		case it = <-tc.sendq:
		case <-tc.closed:
			return
		}
		it.noteDequeue()
		for {
			c.m.countTx(*it.bufp)
			_, err := bw.Write(*it.bufp)
			putBuf(it.bufp)
			if err != nil {
				c.drop(addr, tc)
				return
			}
			// Coalesce: keep pulling while the queue has items (a plain
			// nonblocking receive, no select machinery), and when it runs
			// momentarily dry, yield once so runnable callers can append
			// their requests to this flush instead of forcing another
			// syscall. A close only needs noticing when idle — the outer
			// select handles that; writes to a dead conn just error out.
			select {
			case it = <-tc.sendq:
				it.noteDequeue()
				continue
			default:
			}
			runtime.Gosched()
			select {
			case it = <-tc.sendq:
				it.noteDequeue()
				continue
			default:
			}
			break
		}
		if err := bw.Flush(); err != nil {
			c.drop(addr, tc)
			return
		}
	}
}

func (c *TCPClient) readLoop(addr string, tc *tcpConn) {
	br := bufio.NewReaderSize(tc.conn, connBufSize)
	for {
		bodyp, err := readFrame(br)
		if err != nil {
			c.drop(addr, tc)
			return
		}
		resp, err := decodeResponse(*bodyp, c.m)
		putBuf(bodyp)
		if err != nil {
			c.drop(addr, tc)
			return
		}
		if ch, ok := tc.take(resp.ID); ok {
			ch <- resp
		}
	}
}

// drop tears down a connection, failing all in-flight calls. The next Call
// to the same address dials a fresh connection.
func (c *TCPClient) drop(addr string, tc *tcpConn) {
	c.mu.Lock()
	if c.conns[addr] == tc {
		delete(c.conns, addr)
		c.refast()
	}
	c.mu.Unlock()
	tc.once.Do(func() {
		// Order matters: dead must be visible before the sweep so a
		// concurrent register either fails or is swept here.
		tc.dead.Store(true)
		close(tc.closed)
		for i := range tc.shards {
			sh := &tc.shards[i]
			sh.mu.Lock()
			for id, ch := range sh.m {
				close(ch)
				delete(sh.m, id)
			}
			sh.mu.Unlock()
		}
		tc.conn.Close()
	})
}

// Close tears down every connection.
func (c *TCPClient) Close() {
	c.mu.Lock()
	c.closed = true
	conns := make(map[string]*tcpConn, len(c.conns))
	for a, tc := range c.conns {
		conns[a] = tc
	}
	c.mu.Unlock()
	for a, tc := range conns {
		c.drop(a, tc)
	}
}
