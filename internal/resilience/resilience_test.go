package resilience

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
)

func TestRetryAfterRoundTrip(t *testing.T) {
	for _, hint := range []time.Duration{time.Millisecond, 20 * time.Millisecond, 1500 * time.Microsecond, 2 * time.Second} {
		err := busyError(PriRead, hint)
		if !IsServerBusy(err) {
			t.Fatalf("busyError(%v) not recognized as busy: %v", hint, err)
		}
		got, ok := RetryAfterFrom(err)
		if !ok || got != hint {
			t.Fatalf("RetryAfterFrom(%v) = %v, %v; want %v, true", err, got, ok, hint)
		}

		// The TCP transport flattens server errors into RemoteError strings;
		// the hint must survive that boundary.
		remote := &transport.RemoteError{Msg: err.Error()}
		if !IsServerBusy(remote) {
			t.Fatalf("flattened shed error not recognized as busy: %v", remote)
		}
		got, ok = RetryAfterFrom(remote)
		if !ok || got != hint {
			t.Fatalf("RetryAfterFrom(remote %q) = %v, %v; want %v, true", remote.Msg, got, ok, hint)
		}
	}

	if _, ok := RetryAfterFrom(errors.New("no hint here")); ok {
		t.Fatal("RetryAfterFrom invented a hint from hintless text")
	}
	if _, ok := RetryAfterFrom(nil); ok {
		t.Fatal("RetryAfterFrom(nil) reported a hint")
	}
	// A hint followed by more error text still parses.
	wrapped := errors.New("outer: " + busyError(PriPrepare, 40*time.Millisecond).Error() + " [addr=:7001]")
	got, ok := RetryAfterFrom(wrapped)
	if !ok || got != 40*time.Millisecond {
		t.Fatalf("RetryAfterFrom(wrapped) = %v, %v; want 40ms, true", got, ok)
	}
}

func TestErrorTaxonomy(t *testing.T) {
	if !IsDeadlineExceeded(ErrDeadlineExceeded) || !IsDeadlineExceeded(context.DeadlineExceeded) {
		t.Fatal("canonical deadline errors not recognized")
	}
	if !IsDeadlineExceeded(&transport.RemoteError{Msg: "transport: deadline exceeded"}) {
		t.Fatal("flattened deadline error not recognized")
	}
	if !IsCircuitOpen(ErrCircuitOpen) {
		t.Fatal("ErrCircuitOpen not recognized")
	}
	if IsServerBusy(nil) || IsDeadlineExceeded(nil) || IsCircuitOpen(nil) {
		t.Fatal("nil error misclassified")
	}
	if IsServerBusy(errors.New("conflict abort")) {
		t.Fatal("unrelated error misclassified as busy")
	}
}

// TestBudgetBoundsRetries is the retry-storm theorem as a unit test: with
// deposit ratio r and bucket cap b, no interleaving of fresh traffic and
// withdrawals can grant more than r×fresh + b retries.
func TestBudgetBoundsRetries(t *testing.T) {
	const (
		ratio = 0.1
		burst = 10
		fresh = 1000
	)
	bud := NewBudget(ratio, burst, nil)
	granted := 0
	for i := 0; i < fresh; i++ {
		bud.OnFresh()
		// Adversarial client: try to retry after every single fresh txn.
		for bud.Withdraw() {
			granted++
		}
	}
	limit := int(ratio*fresh) + burst
	if granted > limit {
		t.Fatalf("budget granted %d retries for %d fresh txns; limit %d", granted, fresh, limit)
	}
	// And it's not uselessly strict: an always-aborting workload should
	// still get close to the ratio's worth of retries.
	if granted < limit/2 {
		t.Fatalf("budget granted only %d retries; expected near %d", granted, limit)
	}
}

func TestBudgetNilSafe(t *testing.T) {
	var b *Budget
	b.OnFresh()
	if !b.Withdraw() {
		t.Fatal("nil budget must allow (budgeting disabled)")
	}
	if b.Tokens() != 0 {
		t.Fatal("nil budget reports tokens")
	}
}

func TestBackoffBounds(t *testing.T) {
	r := NewRetrier(RetryOptions{BaseBackoff: time.Millisecond, MaxBackoff: 8 * time.Millisecond, Seed: 42}, nil)
	for attempt := 1; attempt <= 10; attempt++ {
		ceil := time.Millisecond << (attempt - 1)
		if ceil > 8*time.Millisecond {
			ceil = 8 * time.Millisecond
		}
		for i := 0; i < 100; i++ {
			d := r.Backoff(attempt, 0)
			if d < 0 || d > ceil {
				t.Fatalf("attempt %d: backoff %v outside [0, %v]", attempt, d, ceil)
			}
		}
	}
	// A RetryAfter hint floors the draw: the server's estimate dominates
	// blind jitter.
	hint := 50 * time.Millisecond
	for i := 0; i < 100; i++ {
		if d := r.Backoff(1, hint); d < hint {
			t.Fatalf("backoff %v below RetryAfter hint %v", d, hint)
		}
	}
	var nilR *Retrier
	if nilR.Backoff(3, 0) != 0 || nilR.TryRetry(false) {
		t.Fatal("nil retrier must refuse retries with zero backoff")
	}
}

// fakeClient scripts transport outcomes for breaker tests.
type fakeClient struct {
	errs  []error
	calls int
}

func (f *fakeClient) Call(ctx context.Context, addr string, req any) (any, error) {
	i := f.calls
	f.calls++
	if i < len(f.errs) && f.errs[i] != nil {
		return nil, f.errs[i]
	}
	return "ok", nil
}

func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(1000, 0)
	clk := func() time.Time { return now }
	boom := errors.New("dial tcp: connection refused")
	inner := &fakeClient{errs: []error{boom, boom, boom, nil}}
	bc := NewBreakerClient(inner, BreakerOptions{FailureThreshold: 3, Cooldown: time.Second, Now: clk})
	ctx := context.Background()

	// Three consecutive failures open the circuit.
	for i := 0; i < 3; i++ {
		if _, err := bc.Call(ctx, ":7001", nil); !errors.Is(err, boom) {
			t.Fatalf("call %d: got %v, want %v", i, err, boom)
		}
	}
	// Open: fast-fail without touching the transport.
	before := inner.calls
	if _, err := bc.Call(ctx, ":7001", nil); !IsCircuitOpen(err) {
		t.Fatalf("expected fast fail, got %v", err)
	}
	if inner.calls != before {
		t.Fatal("open breaker still reached the transport")
	}
	// A different endpoint is unaffected.
	if _, err := bc.Call(ctx, ":7002", nil); err != nil {
		t.Fatalf("independent endpoint tripped: %v", err)
	}

	// Cooldown elapses: exactly one half-open probe goes through; its
	// success (the 4th scripted outcome) closes the circuit.
	now = now.Add(time.Second)
	if _, err := bc.Call(ctx, ":7001", nil); err != nil {
		t.Fatalf("probe failed: %v", err)
	}
	if _, err := bc.Call(ctx, ":7001", nil); err != nil {
		t.Fatalf("closed circuit rejected a call: %v", err)
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	now := time.Unix(1000, 0)
	boom := errors.New("injected: unreachable")
	inner := &fakeClient{errs: []error{boom, boom, boom, nil}}
	bc := NewBreakerClient(inner, BreakerOptions{FailureThreshold: 2, Cooldown: time.Second, Now: func() time.Time { return now }})
	ctx := context.Background()

	bc.Call(ctx, ":7001", nil)
	bc.Call(ctx, ":7001", nil) // open
	now = now.Add(time.Second)
	if _, err := bc.Call(ctx, ":7001", nil); !errors.Is(err, boom) {
		t.Fatalf("probe: got %v, want %v", err, boom)
	}
	// Probe failed → straight back to open for another full cooldown.
	if _, err := bc.Call(ctx, ":7001", nil); !IsCircuitOpen(err) {
		t.Fatalf("expected fast fail after failed probe, got %v", err)
	}
	now = now.Add(time.Second)
	if _, err := bc.Call(ctx, ":7001", nil); err != nil {
		t.Fatalf("second probe (scripted success) failed: %v", err)
	}
}

func TestBreakerClassification(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, verdictSuccess},
		// The server answered: application errors prove the path works.
		{&transport.RemoteError{Msg: "milana: aborted"}, verdictSuccess},
		{&transport.RemoteError{Msg: busyError(PriRead, time.Millisecond).Error()}, verdictSuccess},
		// The caller lost interest — never a breaker signal.
		{context.Canceled, verdictNeutral},
		// Overload verdicts: the server is alive; pushback, not isolation.
		{busyError(PriRead, time.Millisecond), verdictNeutral},
		{ErrDeadlineExceeded, verdictNeutral},
		// Transport-level trouble is what breakers exist for.
		{errors.New("dial tcp: connection refused"), verdictFailure},
		{context.DeadlineExceeded, verdictFailure},
	}
	for _, c := range cases {
		if got := classify(c.err); got != c.want {
			t.Errorf("classify(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

func TestAdmissionPriorityOrdering(t *testing.T) {
	if PriControl.String() != "control" || PriPrepare.String() != "prepare" || PriRead.String() != "read" {
		t.Fatal("priority names wrong")
	}
	a := NewAdmission(AdmissionOptions{MaxInflight: 20, MaxQueueDelay: 20 * time.Millisecond})
	ctx := context.Background()

	// Fill to the read threshold (MaxInflight/2 = 10) with admitted work.
	for i := 0; i < 10; i++ {
		if err := a.Admit(ctx, PriPrepare); err != nil {
			t.Fatalf("admit %d under capacity: %v", i, err)
		}
	}
	// Reads shed first...
	err := a.Admit(ctx, PriRead)
	if !IsServerBusy(err) {
		t.Fatalf("read at depth 10/20 not shed: %v", err)
	}
	if hint, ok := RetryAfterFrom(err); !ok || hint != 20*time.Millisecond {
		t.Fatalf("shed error hint = %v, %v; want 20ms", hint, ok)
	}
	// ...while prepares are still admitted (threshold 18)...
	for i := 10; i < 18; i++ {
		if err := a.Admit(ctx, PriPrepare); err != nil {
			t.Fatalf("prepare at depth %d: %v", i, err)
		}
	}
	if err := a.Admit(ctx, PriPrepare); !IsServerBusy(err) {
		t.Fatalf("prepare at depth 18/20 not shed: %v", err)
	}
	// ...and control traffic is never shed, at any depth.
	if err := a.Admit(ctx, PriControl); err != nil {
		t.Fatalf("decision shed — control traffic must always be admitted: %v", err)
	}
	a.Done()

	// Draining restores read admission.
	for i := 0; i < 18; i++ {
		a.Done()
	}
	if got := a.Inflight(); got != 0 {
		t.Fatalf("inflight after drain = %d, want 0", got)
	}
	if err := a.Admit(ctx, PriRead); err != nil {
		t.Fatalf("read after drain: %v", err)
	}
}

func TestAdmissionQueueDelayShed(t *testing.T) {
	a := NewAdmission(AdmissionOptions{MaxInflight: 1000, MaxQueueDelay: 10 * time.Millisecond})
	// Depth is fine, but the request sat in the decode→dispatch queue too
	// long: a read sheds at 1× the threshold, a prepare tolerates up to 4×.
	slow := obs.WithReq(context.Background(), obs.Req{QueueWait: 15 * time.Millisecond})
	if err := a.Admit(slow, PriRead); !IsServerBusy(err) {
		t.Fatalf("queued read not shed: %v", err)
	}
	if err := a.Admit(slow, PriPrepare); err != nil {
		t.Fatalf("prepare shed at 1.5× read threshold (limit is 4×): %v", err)
	}
	verySlow := obs.WithReq(context.Background(), obs.Req{QueueWait: 50 * time.Millisecond})
	if err := a.Admit(verySlow, PriPrepare); !IsServerBusy(err) {
		t.Fatalf("prepare queued past 4× threshold not shed: %v", err)
	}
}

func TestAdmissionDeadlineDrop(t *testing.T) {
	a := NewAdmission(AdmissionOptions{MaxInflight: 8})
	dead, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if err := a.Admit(dead, PriRead); !IsDeadlineExceeded(err) {
		t.Fatalf("expired request not dropped: %v", err)
	}
	if a.Inflight() != 0 {
		t.Fatal("dropped request held an inflight slot")
	}
	var nilA *Admission
	if err := nilA.Admit(dead, PriRead); err != nil {
		t.Fatalf("nil admission must admit everything: %v", err)
	}
	nilA.Done()
}
