package resilience

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
)

// BreakerOptions configure the per-endpoint circuit breakers.
type BreakerOptions struct {
	// FailureThreshold consecutive transport failures open the circuit.
	// Default 5.
	FailureThreshold int
	// Cooldown is how long an open circuit fast-fails before admitting a
	// single half-open probe. Default 1s.
	Cooldown time.Duration
	// Metrics, when set, records breaker transitions and fast failures.
	Metrics *obs.Registry
	// Now overrides the clock (tests only).
	Now func() time.Time
}

func (o BreakerOptions) withDefaults() BreakerOptions {
	if o.FailureThreshold <= 0 {
		o.FailureThreshold = 5
	}
	if o.Cooldown <= 0 {
		o.Cooldown = time.Second
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

const (
	stateClosed = iota
	stateOpen
	stateHalfOpen
)

// breaker is the state machine for one endpoint. state and failures are
// atomics so the healthy fast path (closed circuit, successful call) reads
// them without taking mu; all transitions happen under mu.
type breaker struct {
	state    atomic.Int32
	failures atomic.Int32 // consecutive failures while closed

	mu       sync.Mutex
	openedAt time.Time // when the circuit last opened
	probing  bool      // a half-open probe is in flight
}

// BreakerClient wraps a transport.Client with per-endpoint circuit
// breakers: after FailureThreshold consecutive transport failures to one
// address, calls to it fail fast with ErrCircuitOpen instead of burning a
// timeout each. After Cooldown, exactly one call is admitted as a
// half-open probe; its outcome closes or re-opens the circuit.
//
// Failure classification matters more than the state machine:
//
//   - transport.RemoteError counts as success — the server answered, so
//     the path is healthy no matter how unhappy the application logic is.
//   - context.Canceled is neutral — the *caller* lost interest (a
//     transaction abandoned mid-read, a client shutting down); that says
//     nothing about the endpoint and must not trip breakers.
//   - Shed verdicts and server-side deadline drops are neutral too: an
//     overloaded server is alive, and admission pushback is the correct
//     signal for it, not breaker isolation.
//   - Everything else — dial errors, dropped replies, client-observed
//     timeouts, injected faults — counts as failure.
type BreakerClient struct {
	inner transport.Client
	opt   BreakerOptions

	breakers sync.Map // addr string -> *breaker

	opens     *obs.Counter
	fastFails *obs.Counter
	openGauge *obs.Gauge
}

// NewBreakerClient wraps inner; a nil inner is rejected by first use.
func NewBreakerClient(inner transport.Client, opt BreakerOptions) *BreakerClient {
	opt = opt.withDefaults()
	c := &BreakerClient{inner: inner, opt: opt}
	if m := opt.Metrics; m != nil {
		c.opens = m.Counter("breaker_open_total")
		c.fastFails = m.Counter("breaker_fastfail_total")
		c.openGauge = m.Gauge("breaker_open")
	}
	return c
}

func (c *BreakerClient) forAddr(addr string) *breaker {
	if b, ok := c.breakers.Load(addr); ok {
		return b.(*breaker)
	}
	b, _ := c.breakers.LoadOrStore(addr, &breaker{})
	return b.(*breaker)
}

// Call implements transport.Client.
func (c *BreakerClient) Call(ctx context.Context, addr string, req any) (any, error) {
	b := c.forAddr(addr)

	if b.state.Load() != stateClosed && !c.admit(b) {
		c.fastFails.Inc()
		return nil, ErrCircuitOpen
	}

	resp, err := c.inner.Call(ctx, addr, req)
	if err == nil && b.state.Load() == stateClosed && b.failures.Load() == 0 {
		// Healthy endpoint, successful call: nothing to update. This is
		// the overwhelmingly common case and stays lock-free.
		return resp, nil
	}
	c.observe(b, err)
	return resp, err
}

// admit decides whether a call to a non-closed circuit may proceed: open
// circuits fast-fail until the cooldown elapses, then exactly one call at
// a time runs as the half-open probe.
func (c *BreakerClient) admit(b *breaker) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state.Load() {
	case stateOpen:
		if c.opt.Now().Sub(b.openedAt) < c.opt.Cooldown {
			return false
		}
		// Cooldown elapsed: admit this call as the half-open probe.
		b.state.Store(stateHalfOpen)
		b.probing = true
	case stateHalfOpen:
		if b.probing {
			// One probe at a time; everyone else keeps fast-failing.
			return false
		}
		b.probing = true
	}
	return true
}

// observe folds one call outcome into the endpoint's state machine.
func (c *BreakerClient) observe(b *breaker, err error) {
	verdict := classify(err)

	b.mu.Lock()
	defer b.mu.Unlock()

	wasProbe := b.state.Load() == stateHalfOpen
	if wasProbe {
		b.probing = false
	}

	switch verdict {
	case verdictSuccess:
		if wasProbe && c.openGauge != nil {
			c.openGauge.Add(-1)
		}
		b.state.Store(stateClosed)
		b.failures.Store(0)
	case verdictFailure:
		if wasProbe {
			// Probe failed: straight back to open for another cooldown.
			b.state.Store(stateOpen)
			b.openedAt = c.opt.Now()
			return
		}
		if b.state.Load() == stateClosed {
			if b.failures.Add(1) >= int32(c.opt.FailureThreshold) {
				b.state.Store(stateOpen)
				b.openedAt = c.opt.Now()
				b.failures.Store(0)
				c.opens.Inc()
				if c.openGauge != nil {
					c.openGauge.Add(1)
				}
			}
		}
	case verdictNeutral:
		if wasProbe {
			// The probe didn't run to a verdict (caller cancelled, server
			// shed it); surrender the probe slot without changing state so
			// the next call probes again.
			b.state.Store(stateOpen)
			b.openedAt = c.opt.Now().Add(-c.opt.Cooldown)
		}
	}
}

const (
	verdictSuccess = iota
	verdictFailure
	verdictNeutral
)

// classify maps a call error to a breaker verdict; see BreakerClient docs.
func classify(err error) int {
	if err == nil {
		return verdictSuccess
	}
	var remote *transport.RemoteError
	if errors.As(err, &remote) {
		// The server answered. Shed/deadline verdicts arrive this way too,
		// and all of them prove the path works.
		return verdictSuccess
	}
	if errors.Is(err, context.Canceled) {
		return verdictNeutral
	}
	if IsServerBusy(err) || errors.Is(err, ErrDeadlineExceeded) {
		return verdictNeutral
	}
	return verdictFailure
}
