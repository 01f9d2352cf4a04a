// Package resilience is the server side of the SEMEL/MILANA stack's
// overload story: end-to-end deadlines and admission control with strict
// priority load shedding and RetryAfter pushback.
//
// The paper's latency story (commit-wait bounded by ε, §4) assumes healthy
// replicas; this package keeps the servers *live* when they are not:
//
//   - Deadlines ride the wire envelope (transport frame v1, flags bit2), so
//     a server can drop work the caller has already abandoned before it
//     costs validate/flash/WAL cycles, and replication fan-out never
//     outlives the coordinator's interest.
//   - Admission control sheds reads first, prepares later, and control
//     traffic (decisions, CTP status, replication) never — in-doubt
//     transactions always drain, which is what keeps the watermark moving
//     and 2PC safe under overload.
//
// The client keeps one retry rule (milana.Client.RunTransaction retries a
// conflict abort at once, §5.2) and returns a shed to its caller, which may
// wait out the RetryAfter hint (cmd/loadgen does).
//
// Error taxonomy note: these errors cross the transport as strings (the TCP
// framing flattens every server error into transport.RemoteError), so
// IsServerBusy and RetryAfterFrom match on both wrapped error values and
// canonical substrings.
package resilience

import (
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

// retryAfterMarker is the canonical hint phrasing inside shed errors; it
// must survive the string-flattening transport boundary, so RetryAfterFrom
// parses it back out of arbitrary error text.
const retryAfterMarker = "retry after "

// busyError builds the shed error for one rejected request: the wrapped
// ErrServerBusy, the shed priority class, and a parseable RetryAfter hint.
func busyError(pri Priority, retryAfter time.Duration) error {
	return fmt.Errorf("%w (shed %s): %s%s", ErrServerBusy, pri, retryAfterMarker, retryAfter)
}

// IsServerBusy reports whether err is an admission-control shed verdict,
// across the string-flattening transport boundary.
func IsServerBusy(err error) bool {
	if err == nil {
		return false
	}
	return errors.Is(err, ErrServerBusy) || strings.Contains(err.Error(), "server overloaded")
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
