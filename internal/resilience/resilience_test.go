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
	if IsServerBusy(nil) {
		t.Fatal("nil error misclassified")
	}
	if IsServerBusy(errors.New("conflict abort")) || IsServerBusy(ErrDeadlineExceeded) {
		t.Fatal("unrelated error misclassified as busy")
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
	if err := a.Admit(dead, PriRead); !errors.Is(err, ErrDeadlineExceeded) {
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
