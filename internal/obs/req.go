// The per-request record. Everything the system knows about one request in
// flight — who it is (trace id), what caused it (the sender's span), what it
// has cost so far (the stage ledger) and how long it queued before a worker
// picked it up — travels as one value under one context key. This file is the
// only place in internal/ and cmd/ that calls context.WithValue (`make
// onecarrier` enforces it): a second carrier cannot grow back unnoticed.
//
// Who creates a record: a client that enabled tracing and/or stage accounting
// (milana.Txn, semel.Client), once per transaction or operation; and the TCP
// server, once per inbound request, from the frame header — and only when the
// header says something (sampled trace, want-stages, or a dispatch wait worth
// reporting), so an untraced request runs on a bare context. The in-process
// bus hands the caller's context, record and all, straight to the handler.
package obs

import (
	"context"
	"time"
)

// Req is one request's record. The zero value means "nothing to say" and is
// never attached to a context.
type Req struct {
	// TraceContext is identity and causality: the trace this request belongs
	// to and the sender's span, parent of any span the receiver records.
	// Readers must check Sampled.
	TraceContext
	// Ledger collects stage cost; nil when nobody asked. It is pooled and
	// owned by whoever created the record: only contexts that end before the
	// owner folds and releases it may carry it (see Detached).
	Ledger *Ledger
	// QueueWait is how long the TCP server held the request between decode
	// and dispatch — the admission controller's queueing-delay signal. Zero
	// when not measured (bus calls run inline) or too short to matter.
	QueueWait time.Duration
}

type reqKey struct{}

// WithReq returns ctx carrying r. A record that says nothing — unsampled, no
// ledger, no queue wait — returns ctx itself, so the untraced path never
// allocates.
func WithReq(ctx context.Context, r Req) context.Context {
	if !r.Sampled && r.Ledger == nil && r.QueueWait <= 0 {
		return ctx
	}
	return context.WithValue(ctx, reqKey{}, r)
}

// ReqFrom returns ctx's record; the zero Req when it carries none.
func ReqFrom(ctx context.Context) Req {
	r, _ := ctx.Value(reqKey{}).(Req)
	return r
}

// Detached returns a fresh background context for work that outlives the
// request — durability sends that must survive the caller's cancellation, a
// fire-and-forget decision notify. It carries identity and causality only:
// never the caller's cancellation or deadline, and never the pooled ledger,
// which the owner may release (and the pool hand to another request) while
// the detached work is still running.
func (r Req) Detached() context.Context {
	return WithReq(context.Background(), Req{TraceContext: r.TraceContext})
}

// AttributeStage adds d to stage s of ctx's ledger, if any. The no-ledger
// fast path is one context lookup.
func AttributeStage(ctx context.Context, s Stage, d time.Duration) {
	ReqFrom(ctx).Ledger.Add(s, d)
}
