package obs

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestReqDetached pins the record's lifetime rule: a detached context keeps
// identity and causality and nothing else. The straggler below stands for a
// durability send still running after its request finished — the owner has
// folded and released the pooled ledger and the pool has handed it to the
// next request, which must not be charged for the straggler's waits. Run
// under -race.
func TestReqDetached(t *testing.T) {
	tc := TraceContext{TraceID: 7, SpanID: 9, Sampled: true}
	led := NewLedger()
	owner, cancel := context.WithCancel(context.Background())
	owner = WithReq(owner, Req{TraceContext: tc, Ledger: led, QueueWait: time.Millisecond})
	detached := ReqFrom(owner).Detached()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			AttributeStage(detached, StageReplAck, time.Microsecond)
		}
	}()
	cancel()
	led.Release()
	reused := make([]*Ledger, 8) // whichever of these is led, it must stay clean
	for i := range reused {
		reused[i] = NewLedger()
	}
	wg.Wait()
	for _, l := range reused {
		if got := l.AttributedNs(); got != 0 {
			t.Fatalf("a detached context wrote %d ns into a released, reused ledger", got)
		}
		l.Release()
	}

	if got := ReqFrom(detached); got != (Req{TraceContext: tc}) {
		t.Fatalf("detached record = %+v, want the trace context only", got)
	}
	if detached.Err() != nil {
		t.Fatal("the owner's cancellation crossed the detach")
	}
	// An untraced request detaches to the bare background context.
	if (Req{Ledger: led, QueueWait: time.Second}).Detached() != context.Background() {
		t.Fatal("detaching an untraced record built a context value")
	}
}

// TestReqQueueWait covers the decode→dispatch queue-wait plumbing the
// admission controller reads.
func TestReqQueueWait(t *testing.T) {
	ctx := context.Background()
	if ReqFrom(ctx).QueueWait != 0 {
		t.Fatal("fresh context reports queue wait")
	}
	if WithReq(ctx, Req{QueueWait: -time.Second}) != ctx {
		t.Fatal("non-positive waits must not allocate")
	}
	if got := ReqFrom(WithReq(ctx, Req{QueueWait: 3 * time.Millisecond})).QueueWait; got != 3*time.Millisecond {
		t.Fatalf("QueueWait = %v, want 3ms", got)
	}
}

// TestReqAllocs pins what one attach costs: nothing for a record that says
// nothing, and one context node plus the boxed record — however many of its
// three parts are set — for one that does.
func TestReqAllocs(t *testing.T) {
	bg := context.Background()
	led := NewLedger()
	defer led.Release()
	full := Req{TraceContext: TraceContext{TraceID: 1, SpanID: 2, Sampled: true}, Ledger: led, QueueWait: time.Millisecond}
	var sink context.Context
	if n := testing.AllocsPerRun(100, func() { sink = WithReq(bg, Req{}) }); n != 0 {
		t.Fatalf("attaching the zero record allocates %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() { sink = WithReq(bg, full) }); n != 2 {
		t.Fatalf("attaching a full record allocates %v times, want 2 (context node + record)", n)
	}
	if n := testing.AllocsPerRun(100, func() { AttributeStage(sink, StageValidate, time.Microsecond) }); n != 0 {
		t.Fatalf("AttributeStage allocates %v times", n)
	}
}
