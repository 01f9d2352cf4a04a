// Package transport is the RPC fabric connecting SEMEL/MILANA clients and
// storage servers. Two interchangeable implementations are provided:
//
//   - Bus: an in-process fabric with configurable one-way latency and
//     jitter, standing in for the data-center LAN of the paper's testbed.
//     All experiments run on it so network latency is a controlled
//     parameter.
//   - TCP (tcp.go, frame.go): a real network transport used by the cmd/
//     servers, proving the protocols run over a real stack. There is one
//     wire format: frame.go owns the length prefix and the request/response
//     header, and the message body is produced by the Codec installed via
//     SetCodec (internal/wire's zero-allocation binary codec v1).
//
// Requests and responses are plain Go values. Over TCP a value must be a
// message the installed codec knows; anything else fails that one call with
// ErrUnsupportedType.
package transport

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Errors returned by transports.
var (
	ErrUnknownAddr = errors.New("transport: unknown address")
	ErrClosed      = errors.New("transport: closed")

	// ErrDeadlineExceeded is returned (as itself locally, as a RemoteError
	// that errors.Is matches to it over TCP) when a request's propagated
	// deadline had already expired when the server went to dispatch it: the
	// work was dropped before touching the storage engine.
	ErrDeadlineExceeded = errors.New("transport: deadline exceeded")
)

// Handler serves one request and returns one response.
type Handler interface {
	Serve(ctx context.Context, req any) (any, error)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(ctx context.Context, req any) (any, error)

// Serve calls f.
func (f HandlerFunc) Serve(ctx context.Context, req any) (any, error) { return f(ctx, req) }

// Client issues requests to named endpoints.
type Client interface {
	Call(ctx context.Context, addr string, req any) (any, error)
}

// RemoteError is an application-level error propagated across a transport.
type RemoteError struct{ Msg string }

// Error returns the remote error text.
func (e *RemoteError) Error() string { return e.Msg }

// Is makes a server's deadline drop match ErrDeadlineExceeded on the calling
// side of a TCP connection, where only the error text travels.
func (e *RemoteError) Is(target error) bool {
	return target == ErrDeadlineExceeded && e.Msg == ErrDeadlineExceeded.Error()
}

// LatencyModel describes one-way message delay.
type LatencyModel struct {
	// OneWay is the median one-way latency.
	OneWay time.Duration
	// Jitter is the half-width of a uniform perturbation added to each
	// message.
	Jitter time.Duration
}

// Sample draws one one-way delay.
func (l LatencyModel) Sample(r *rand.Rand) time.Duration {
	d := l.OneWay
	if l.Jitter > 0 {
		d += time.Duration(r.Int63n(int64(2*l.Jitter))) - l.Jitter
	}
	if d < 0 {
		d = 0
	}
	return d
}

// DataCenterLatency approximates an intra-data-center RTT of ~200 µs.
var DataCenterLatency = LatencyModel{OneWay: 100 * time.Microsecond, Jitter: 20 * time.Microsecond}

// Bus is an in-process transport. The zero value is unusable; use NewBus.
type Bus struct {
	latency LatencyModel

	metrics atomic.Pointer[rpcMetrics]

	mu       sync.RWMutex
	handlers map[string]Handler
	down     map[string]bool // partitioned or crashed endpoints
	rng      *rand.Rand
	closed   bool
}

// rpcMetrics is the Bus's observability hook: a per-message-type round-trip
// latency histogram plus an inflight-calls gauge. Histograms are cached per
// request type so the hot path does one map read under RLock.
type rpcMetrics struct {
	reg      *obs.Registry
	inflight *obs.Gauge

	mu    sync.RWMutex
	hists map[string]*obs.Histogram
}

// SetMetrics attaches a metrics registry to the bus. Every Call then feeds
// rpc_client_ns{type="<request type>"} and the rpc_inflight gauge. Pass nil
// to detach.
func (b *Bus) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		b.metrics.Store(nil)
		return
	}
	b.metrics.Store(&rpcMetrics{
		reg:      reg,
		inflight: reg.Gauge("rpc_inflight"),
		hists:    make(map[string]*obs.Histogram),
	})
}

func (m *rpcMetrics) hist(req any) *obs.Histogram {
	t := fmt.Sprintf("%T", req)
	m.mu.RLock()
	h := m.hists[t]
	m.mu.RUnlock()
	if h != nil {
		return h
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if h = m.hists[t]; h == nil {
		h = m.reg.Histogram(`rpc_client_ns{type="` + t + `"}`)
		m.hists[t] = h
	}
	return h
}

// NewBus creates a bus with the given latency model. A zero model means
// instant delivery (unit tests).
func NewBus(latency LatencyModel, seed int64) *Bus {
	return &Bus{
		latency:  latency,
		handlers: make(map[string]Handler),
		down:     make(map[string]bool),
		rng:      rand.New(rand.NewSource(seed)),
	}
}

// Register installs (or replaces) the handler for addr.
func (b *Bus) Register(addr string, h Handler) {
	b.mu.Lock()
	b.handlers[addr] = h
	b.mu.Unlock()
}

// Deregister removes addr entirely.
func (b *Bus) Deregister(addr string) {
	b.mu.Lock()
	delete(b.handlers, addr)
	b.mu.Unlock()
}

// SetDown marks addr crashed (true) or healthy (false). Calls to a down
// endpoint block for the request latency and then fail, like a TCP timeout.
func (b *Bus) SetDown(addr string, down bool) {
	b.mu.Lock()
	b.down[addr] = down
	b.mu.Unlock()
}

// Close fails all future calls.
func (b *Bus) Close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
}

func (b *Bus) sleep(ctx context.Context) error {
	b.mu.Lock()
	d := b.latency.Sample(b.rng)
	b.mu.Unlock()
	if d <= 0 {
		return ctx.Err()
	}
	start := time.Now()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		// The simulated one-way delay is this transport's "wire" — charge
		// the measured wait (not the modeled d: coarse host timers overrun
		// short sleeps severalfold, and the caller really did wait it out)
		// to the stage ledger like the TCP path charges real network time.
		obs.AttributeStage(ctx, obs.StageNetwork, time.Since(start))
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Call delivers req to addr's handler and returns its response, charging
// one-way latency in each direction.
func (b *Bus) Call(ctx context.Context, addr string, req any) (any, error) {
	if m := b.metrics.Load(); m != nil {
		start := time.Now()
		m.inflight.Add(1)
		defer func() {
			m.inflight.Add(-1)
			m.hist(req).ObserveSince(start)
		}()
	}
	b.mu.RLock()
	h, ok := b.handlers[addr]
	down := b.down[addr]
	closed := b.closed
	b.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	if err := b.sleep(ctx); err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownAddr, addr)
	}
	if down {
		return nil, fmt.Errorf("transport: %q unreachable", addr)
	}
	resp, err := h.Serve(ctx, req)
	if err != nil {
		return nil, err
	}
	if err := b.sleep(ctx); err != nil {
		return nil, err
	}
	return resp, nil
}

var _ Client = (*Bus)(nil)
