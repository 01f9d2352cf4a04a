package transport

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

var raceEnabled bool

// TestHandleContextValues pins how many values TCPServer.handle puts in the
// handler's context: none for a request whose frame header says nothing (the
// handler runs on context.Background itself, and handle allocates no more than
// serving and responding do), and exactly one — the request record — for a
// sampled, want-stages request.
func TestHandleContextValues(t *testing.T) {
	var seen context.Context
	s := &TCPServer{h: HandlerFunc(func(ctx context.Context, req any) (any, error) {
		seen = ctx
		return req, nil
	})}
	writeq := make(chan *[]byte, 1)
	var wg sync.WaitGroup
	handle := func(req wireRequest) {
		wg.Add(1)
		s.handle(srvJob{req: req, writeq: writeq, wg: &wg, decodedAt: time.Now()})
		putBuf(<-writeq)
	}
	plain := wireRequest{ID: 1, Payload: echoReq{Msg: "x"}}
	full := plain
	full.TC = obs.TraceContext{TraceID: 7, SpanID: 9, Sampled: true}
	full.WantStages = true

	handle(plain)
	if seen != context.Background() {
		t.Fatalf("untraced request ran on %v, want the bare background context", seen)
	}
	handle(full)
	if n := strings.Count(fmt.Sprint(seen), "WithValue"); n != 1 {
		t.Fatalf("traced want-stages request ran on %v: %d context values, want 1", seen, n)
	}
	if rec := obs.ReqFrom(seen); rec.TraceContext != full.TC || rec.Ledger == nil {
		t.Fatalf("handler saw record %+v", rec)
	}

	if raceEnabled {
		t.Skip("allocation pins need a stable sync.Pool; skipped under -race")
	}
	bare := testing.AllocsPerRun(200, func() {
		resp, _ := s.h.Serve(context.Background(), plain.Payload)
		wg.Add(1)
		s.respond(srvJob{req: plain, writeq: writeq, wg: &wg}, wireResponse{ID: 1, Payload: resp})
		wg.Done()
		putBuf(<-writeq)
	})
	if got := testing.AllocsPerRun(200, func() { handle(plain) }); got != bare {
		t.Fatalf("untraced handle allocates %v times, serving and responding alone %v", got, bare)
	}
	// One context value is two allocations (the context node and the boxed
	// record); the stage block's two sparse slices are the other two.
	if got := testing.AllocsPerRun(200, func() { handle(full) }); got > bare+4 {
		t.Fatalf("traced want-stages handle allocates %v times, want at most %v", got, bare+4)
	}
}
