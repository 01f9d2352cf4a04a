package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/flash"
	"repro/internal/milana"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wal"
	"repro/internal/wire"
)

// The traced pass times the calls into each layer's public interface from
// outside: every wrapper below implements one of the program's own seam
// interfaces, forwards to the real implementation, and records a span.
// Nothing inside internal/ knows it is being traced. A nil *tracer hands
// back the inner value unchanged, so the untraced pass runs the same
// assembly code with no wrapper in the path.

// op classifies a request by the work it asks a server for.
type op uint8

const (
	opGet op = iota
	opMultiGet
	opPrepare
	opDecision
	opReplicate // primary→backup: ReplicatePrepare, ReplicateDecision, ReplicateData
	opOther     // watermarks, leases, anti-entropy pulls
	numOps
)

var opNames = [numOps]string{"get", "multiget", "prepare", "decision", "replicate", "other"}

// kind is what a span timed.
type kind uint8

const (
	kindCall       kind = iota // transport.Client.Call, +op
	kindServe           = kindCall + kind(numOps)
	kindStoragePut      = kindServe + kind(numOps)
	kindStorageGet      = kindStoragePut + 1
	kindSleep           = kindStorageGet + 1 // flash.Sleeper.Sleep; arg = requested ns
	kindFsync           = kindSleep + 1      // wal.File.Sync
)

// idKind says which request field names the transaction attempt a span
// belongs to. Requests carry no trace context of ours, so spans join their
// transaction after the run by the identity the protocol already sends:
// the TxnID of a prepare or decision, the begin timestamp of a snapshot
// read, the commit timestamp stamped on a version. The same rule serves
// the bus and TCP.
type idKind uint8

const (
	idNone   idKind = iota // node-level work shared by many transactions
	idTxn                  // client = TxnID.Client, n = TxnID.Seq
	idBegin                // client, n = begin timestamp ticks
	idCommit               // client, n = commit timestamp ticks
)

type ident struct {
	kind   idKind
	client uint32
	n      uint64
}

func txnIdent(id wire.TxnID) ident { return ident{idTxn, id.Client, id.Seq} }
func tsIdent(k idKind, ts clock.Timestamp) ident {
	return ident{k, ts.Client, uint64(ts.Ticks)}
}

// span is one timed call. It holds no pointers, so the millions recorded in
// a run cost the garbage collector nothing to scan.
type span struct {
	kind       kind
	node       uint8 // where the call was made: 0 = client process, 1+i = replica i
	peer       uint8 // calls only: destination node
	id         ident
	start, end int64 // ns since tracer.epoch
	arg        int64 // replicate: ops carried; sleep: ns requested; put: key+value bytes
}

// spanBuf grows by fixed-size chunks, so recording a span never copies the
// ones already recorded.
type spanBuf struct {
	mu     sync.Mutex
	chunks [][]span
}

const spanChunk = 1 << 14

func (b *spanBuf) add(s span) {
	b.mu.Lock()
	last := len(b.chunks) - 1
	if last < 0 || len(b.chunks[last]) == spanChunk {
		b.chunks = append(b.chunks, make([]span, 0, spanChunk))
		last++
	}
	b.chunks[last] = append(b.chunks[last], s)
	b.mu.Unlock()
}

const (
	wireSampleStride = 8     // capture every 8th client call's request and response
	wireSampleMax    = 10000 // messages re-encoded after the run for the wire.* metrics
)

// tracer owns everything the traced pass records.
type tracer struct {
	epoch time.Time
	on    atomic.Bool // set for the measured window only
	addrs []string    // replica addresses; node = index + 1

	mu       sync.Mutex
	bufs     []*spanBuf // one per wrapper, so wrappers do not contend with each other
	sessions []*sessionTrace
	closedAt int64 // when the measured window closed, ns since epoch

	nowCalls, nowNs atomic.Int64 // clock.Clock.Now: counted, not spanned (tens of ns each)

	msgMu   sync.Mutex
	msgSeen int
	msgs    []any
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newBuf() *spanBuf {
	b := &spanBuf{}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// spans returns everything the wrappers recorded, in one slice.
func (t *tracer) spans() []span {
	n := 0
	for _, b := range t.bufs {
		for _, c := range b.chunks {
			n += len(c)
		}
	}
	all := make([]span, 0, n)
	for _, b := range t.bufs {
		for _, c := range b.chunks {
			all = append(all, c...)
		}
	}
	return all
}

func (t *tracer) nodeOf(addr string) uint8 {
	for i, a := range t.addrs {
		if a == addr {
			return uint8(i + 1)
		}
	}
	return 0
}

func (t *tracer) nodeName(n uint8) string {
	if n == 0 || int(n) > len(t.addrs) {
		return "client"
	}
	return t.addrs[n-1]
}

// classify names a request's op, the attempt it belongs to, and how many
// replicated operations it carries.
func classify(req any) (op, ident, int64) {
	switch r := req.(type) {
	case wire.GetRequest:
		return opGet, tsIdent(idBegin, r.At), 0
	case wire.MultiGetRequest:
		return opMultiGet, tsIdent(idBegin, r.At), 0
	case wire.PrepareRequest:
		return opPrepare, txnIdent(r.ID), 0
	case wire.DecisionRequest:
		return opDecision, txnIdent(r.ID), 0
	case wire.Replicated:
		_, id, ops := classify(r.Msg)
		return opReplicate, id, ops
	case wire.ReplicatePrepare:
		return opReplicate, txnIdent(r.Record.ID), 1
	case wire.ReplicateDecision:
		return opReplicate, txnIdent(r.ID), 1
	case wire.ReplicateData:
		return opReplicate, ident{}, int64(len(r.Ops))
	}
	return opOther, ident{}, 0
}

// ---- transport.Client ----

type tracedClient struct {
	inner transport.Client
	t     *tracer
	buf   *spanBuf
	node  uint8
}

// client wraps one endpoint's view of the network: the sessions' shared
// client (node 0) or a server's Net.
func (t *tracer) client(node uint8, inner transport.Client) transport.Client {
	if t == nil {
		return inner
	}
	return &tracedClient{inner: inner, t: t, buf: t.newBuf(), node: node}
}

func (c *tracedClient) Call(ctx context.Context, addr string, req any) (any, error) {
	if !c.t.on.Load() {
		return c.inner.Call(ctx, addr, req)
	}
	o, id, ops := classify(req)
	start := c.t.now()
	resp, err := c.inner.Call(ctx, addr, req)
	c.buf.add(span{kind: kindCall + kind(o), node: c.node, peer: c.t.nodeOf(addr), id: id, start: start, end: c.t.now(), arg: ops})
	if c.node == 0 && err == nil {
		c.t.capture(req, resp)
	}
	return resp, err
}

func (t *tracer) capture(req, resp any) {
	t.msgMu.Lock()
	t.msgSeen++
	if t.msgSeen%wireSampleStride == 0 && len(t.msgs) < wireSampleMax {
		t.msgs = append(t.msgs, req, resp)
	}
	t.msgMu.Unlock()
}

// ---- transport.Handler ----

type tracedHandler struct {
	inner transport.Handler
	t     *tracer
	buf   *spanBuf
	node  uint8
}

func (t *tracer) handler(node uint8, inner transport.Handler) transport.Handler {
	if t == nil {
		return inner
	}
	return &tracedHandler{inner: inner, t: t, buf: t.newBuf(), node: node}
}

func (h *tracedHandler) Serve(ctx context.Context, req any) (any, error) {
	if !h.t.on.Load() {
		return h.inner.Serve(ctx, req)
	}
	o, id, ops := classify(req)
	start := h.t.now()
	resp, err := h.inner.Serve(ctx, req)
	h.buf.add(span{kind: kindServe + kind(o), node: h.node, id: id, start: start, end: h.t.now(), arg: ops})
	return resp, err
}

// ---- storage.Backend ----

// tracedBackend times Put and Get; the other methods pass through the
// embedded interface.
type tracedBackend struct {
	storage.Backend
	t    *tracer
	buf  *spanBuf
	node uint8
}

func (t *tracer) backend(node uint8, inner storage.Backend) storage.Backend {
	if t == nil {
		return inner
	}
	return &tracedBackend{Backend: inner, t: t, buf: t.newBuf(), node: node}
}

func (b *tracedBackend) Put(key, val []byte, ver clock.Timestamp) error {
	if !b.t.on.Load() {
		return b.Backend.Put(key, val, ver)
	}
	start := b.t.now()
	err := b.Backend.Put(key, val, ver)
	b.buf.add(span{kind: kindStoragePut, node: b.node, id: tsIdent(idCommit, ver), start: start, end: b.t.now(), arg: int64(len(key) + len(val))})
	return err
}

func (b *tracedBackend) Get(key []byte, at clock.Timestamp) ([]byte, clock.Timestamp, bool, error) {
	if !b.t.on.Load() {
		return b.Backend.Get(key, at)
	}
	start := b.t.now()
	val, ver, found, err := b.Backend.Get(key, at)
	b.buf.add(span{kind: kindStorageGet, node: b.node, id: tsIdent(idBegin, at), start: start, end: b.t.now()})
	return val, ver, found, err
}

// SetMetrics keeps the server's optional-interface probe on its backend
// working through the wrapper, so the traced store feeds the same registry
// the untraced one does.
func (b *tracedBackend) SetMetrics(reg *obs.Registry) {
	if ms, ok := b.Backend.(interface{ SetMetrics(*obs.Registry) }); ok {
		ms.SetMetrics(reg)
	}
}

// ---- flash.Sleeper ----

type tracedSleeper struct {
	inner flash.Sleeper
	t     *tracer
	buf   *spanBuf
	node  uint8
}

func (t *tracer) sleeper(node uint8, inner flash.Sleeper) flash.Sleeper {
	if t == nil {
		return inner
	}
	return &tracedSleeper{inner: inner, t: t, buf: t.newBuf(), node: node}
}

func (s *tracedSleeper) Sleep(d time.Duration) {
	if !s.t.on.Load() {
		s.inner.Sleep(d)
		return
	}
	start := s.t.now()
	s.inner.Sleep(d)
	s.buf.add(span{kind: kindSleep, node: s.node, start: start, end: s.t.now(), arg: int64(d)})
}

// ---- wal.FS / wal.File ----

type tracedFS struct {
	wal.FS
	t    *tracer
	buf  *spanBuf
	node uint8
}

func (t *tracer) fs(node uint8, inner wal.FS) wal.FS {
	if t == nil {
		return inner
	}
	return &tracedFS{FS: inner, t: t, buf: t.newBuf(), node: node}
}

func (f *tracedFS) Create(path string) (wal.File, error) {
	file, err := f.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, fs: f}, nil
}

type tracedFile struct {
	wal.File
	fs *tracedFS
}

func (f *tracedFile) Sync() error {
	if !f.fs.t.on.Load() {
		return f.File.Sync()
	}
	start := f.fs.t.now()
	err := f.File.Sync()
	f.fs.buf.add(span{kind: kindFsync, node: f.fs.node, start: start, end: f.fs.t.now()})
	return err
}

// ---- clock.Clock ----

type tracedClock struct {
	clock.Clock
	t *tracer
}

func (t *tracer) clock(inner clock.Clock) clock.Clock {
	if t == nil {
		return inner
	}
	return &tracedClock{Clock: inner, t: t}
}

func (c *tracedClock) Now() clock.Timestamp {
	if !c.t.on.Load() {
		return c.Clock.Now()
	}
	start := time.Now()
	ts := c.Clock.Now()
	c.t.nowNs.Add(int64(time.Since(start)))
	c.t.nowCalls.Add(1)
	return ts
}

// Health keeps the server's HealthReporter probe on its clock working
// through the wrapper.
func (c *tracedClock) Health() clock.Health {
	if hr, ok := c.Clock.(clock.HealthReporter); ok {
		return hr.Health()
	}
	return clock.Health{}
}

// ---- the client's own layer: one RunTransaction call and its attempts ----

// attempt is one execution of the transaction body: from the moment
// RunTransaction hands the body a fresh Txn to the moment it hands over the
// next one, or returns.
type attempt struct {
	id        wire.TxnID
	begin     clock.Timestamp
	start     int64
	execEnd   int64 // the body returned; validation and 2PC follow
	end       int64
	committed bool
}

// root is one RunTransaction call.
type root struct {
	session    int
	start, end int64
	readOnly   bool
	ok         bool
	attempts   []attempt
}

// sessionTrace records one session's roots. Only that session's goroutine
// touches it, so it needs no lock. A nil *sessionTrace records nothing.
type sessionTrace struct {
	t       *tracer
	session int
	roots   []root
	cur     *root // nil outside the measured window
}

func (t *tracer) session(i int) *sessionTrace {
	if t == nil {
		return nil
	}
	s := &sessionTrace{t: t, session: i}
	t.mu.Lock()
	t.sessions = append(t.sessions, s)
	t.mu.Unlock()
	return s
}

func (s *sessionTrace) beginRoot(readOnly bool) {
	if s == nil || !s.t.on.Load() {
		return
	}
	s.roots = append(s.roots, root{session: s.session, start: s.t.now(), readOnly: readOnly})
	s.cur = &s.roots[len(s.roots)-1]
}

// beginAttempt is called at the top of the transaction body.
func (s *sessionTrace) beginAttempt(t *milana.Txn) {
	if s == nil || s.cur == nil {
		return
	}
	now := s.t.now()
	if n := len(s.cur.attempts); n > 0 {
		s.cur.attempts[n-1].end = now
	}
	s.cur.attempts = append(s.cur.attempts, attempt{id: t.ID(), begin: t.BeginTs(), start: now})
}

// endExecute is called when the transaction body returns.
func (s *sessionTrace) endExecute() {
	if s == nil || s.cur == nil {
		return
	}
	s.cur.attempts[len(s.cur.attempts)-1].execEnd = s.t.now()
}

func (s *sessionTrace) endRoot(ok bool) {
	if s == nil || s.cur == nil {
		return
	}
	r := s.cur
	s.cur = nil
	r.end = s.t.now()
	r.ok = ok
	if n := len(r.attempts); n > 0 {
		r.attempts[n-1].end = r.end
		r.attempts[n-1].committed = ok
	}
}
