// Package resilience is the overload and gray-failure survival kit for the
// SEMEL/MILANA stack: end-to-end deadlines, an adaptive client retry policy
// (exponential backoff with full jitter under a token-bucket retry budget),
// per-endpoint circuit breakers with half-open probing, and server-side
// admission control with strict priority load shedding and RetryAfter
// pushback.
//
// The paper's latency story (commit-wait bounded by ε, §4) assumes healthy
// replicas; this package keeps the system *live* when they are not:
//
//   - Deadlines ride the wire envelope (transport frame v1, flags bit2), so
//     a server can drop work the caller has already abandoned before it
//     costs validate/flash/WAL cycles, and replication fan-out never
//     outlives the coordinator's interest.
//   - Retries are budgeted: each fresh transaction deposits BudgetRatio
//     tokens, each retry withdraws one, so retry traffic is bounded at
//     ~BudgetRatio of fresh traffic no matter how hard the cluster aborts —
//     the retry-storm amplifier in the old tight RunTransaction loop is
//     structurally impossible.
//   - Circuit breakers turn a dead replica from N timeouts into one fast
//     failure, and find recovery via single half-open probes.
//   - Admission control sheds reads first, prepares later, and control
//     traffic (decisions, CTP status, replication) never — in-doubt
//     transactions always drain, which is what keeps the watermark moving
//     and 2PC safe under overload.
//
// Error taxonomy note: these errors cross the transport as strings (the TCP
// framing flattens every server error into transport.RemoteError), so the
// Is* helpers match on both wrapped error values and canonical substrings.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/transport"
)

// ErrDeadlineExceeded is returned by a server that received (or dequeued)
// a request after the deadline stamped in its wire envelope had already
// passed: the work was dropped before touching validate/flash/WAL. The
// transport layer shares the same value so both enforcement points — TCP
// dispatch and semel admission — produce one recognizable error.
var ErrDeadlineExceeded = transport.ErrDeadlineExceeded

// ErrServerBusy is the admission controller's shed verdict. The full error
// text carries a RetryAfter hint ("retry after 20ms") that RetryAfterFrom
// recovers on the client side.
var ErrServerBusy = errors.New("resilience: server overloaded")

// ErrCircuitOpen is a fast failure from an open per-endpoint circuit
// breaker: the endpoint has failed repeatedly and is not being retried
// until a half-open probe succeeds. Callers see it in place of another
// doomed network round trip.
var ErrCircuitOpen = errors.New("resilience: circuit open")

// retryAfterMarker is the canonical hint phrasing inside shed errors; it
// must survive the string-flattening transport boundary, so RetryAfterFrom
// parses it back out of arbitrary error text.
const retryAfterMarker = "retry after "

// busyError builds the shed error for one rejected request: the wrapped
// ErrServerBusy, the shed priority class, and a parseable RetryAfter hint.
func busyError(pri Priority, retryAfter time.Duration) error {
	return fmt.Errorf("%w (shed %s): %s%s", ErrServerBusy, pri, retryAfterMarker, retryAfter)
}

// IsDeadlineExceeded reports whether err is a deadline expiry — the
// caller's own context, the server-side drop, or either flattened into a
// remote error string.
func IsDeadlineExceeded(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrDeadlineExceeded) || errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	return strings.Contains(err.Error(), "deadline exceeded")
}

// IsServerBusy reports whether err is an admission-control shed verdict,
// across the string-flattening transport boundary.
func IsServerBusy(err error) bool {
	if err == nil {
		return false
	}
	return errors.Is(err, ErrServerBusy) || strings.Contains(err.Error(), "server overloaded")
}

// IsCircuitOpen reports whether err is a breaker fast-failure.
func IsCircuitOpen(err error) bool {
	if err == nil {
		return false
	}
	return errors.Is(err, ErrCircuitOpen) || strings.Contains(err.Error(), "circuit open")
}

// RetryAfterFrom recovers the server's RetryAfter pushback hint from a shed
// error (local or remote). ok is false when err carries no hint.
func RetryAfterFrom(err error) (d time.Duration, ok bool) {
	if err == nil {
		return 0, false
	}
	msg := err.Error()
	i := strings.LastIndex(msg, retryAfterMarker)
	if i < 0 {
		return 0, false
	}
	rest := msg[i+len(retryAfterMarker):]
	// The hint is a time.Duration string; it may be followed by more error
	// text, so cut at the first byte a duration cannot contain.
	end := len(rest)
	for j := 0; j < len(rest); j++ {
		c := rest[j]
		if !(c >= '0' && c <= '9') && c != '.' && !(c >= 'a' && c <= 'z') && c != 'µ' {
			// 'µ' is multi-byte; allow its continuation bytes too.
			if c < 0x80 {
				end = j
				break
			}
		}
	}
	d, perr := time.ParseDuration(strings.TrimSpace(rest[:end]))
	if perr != nil || d < 0 {
		return 0, false
	}
	return d, true
}

// Priority is a request's admission class. Lower values are more
// important and are shed last (control traffic is never shed at all). The
// server decides each request type's class (semel's route table); this
// package only enforces it.
type Priority uint8

const (
	// PriControl: 2PC decisions, CTP status queries, replication and
	// infrastructure traffic. Never shed — dropping a decision or a status
	// answer strands in-doubt transactions, which pins the watermark and
	// blocks garbage collection cluster-wide.
	PriControl Priority = iota
	// PriPrepare: 2PC phase-one prepares. Shed only under severe overload;
	// each one admitted converts buffered client work into a decided
	// transaction.
	PriPrepare
	// PriRead: client data-path traffic (gets, multigets, puts, deletes).
	// Shed first: a rejected read fails fast with RetryAfter and costs the
	// cluster nothing, while an admitted one competes with in-doubt
	// drainage for worker time.
	PriRead
)

// String names the priority class (it appears inside shed error text and
// metric labels).
func (p Priority) String() string {
	switch p {
	case PriControl:
		return "control"
	case PriPrepare:
		return "prepare"
	default:
		return "read"
	}
}

// Sleep waits for d, honoring ctx cancellation.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
