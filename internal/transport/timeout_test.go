package transport

import (
	"context"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestCallTimeoutUnresponsiveServer is the regression test for the
// hang-forever bug: a peer that accepts the connection and then never
// answers used to park Call(context.Background()) until the process died.
// The client-side default call timeout bounds it.
func TestCallTimeoutUnresponsiveServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// Swallow everything, answer nothing.
			go func() { _, _ = io.Copy(io.Discard, conn) }()
		}
	}()

	cli := NewTCPClientOpts(TCPClientOptions{CallTimeout: 200 * time.Millisecond})
	defer cli.Close()

	start := time.Now()
	_, err = cli.Call(context.Background(), ln.Addr().String(), echoReq{Msg: "into the void"})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("call against an unresponsive server succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed < 150*time.Millisecond || elapsed > 2*time.Second {
		t.Fatalf("call returned after %v; want ~200ms", elapsed)
	}
}

// TestCallTimeoutCallerDeadlineWins checks that an explicit context deadline
// suppresses the default: the caller's (shorter or longer) budget is the one
// stamped on the wire.
func TestCallTimeoutCallerDeadlineWins(t *testing.T) {
	var got atomic.Int64 // deadline seen by the handler, unix nanos
	h := HandlerFunc(func(ctx context.Context, req any) (any, error) {
		if dl, ok := ctx.Deadline(); ok {
			got.Store(dl.UnixNano())
		}
		return req, nil
	})
	srv, err := NewTCPServer("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewTCPClientOpts(TCPClientOptions{CallTimeout: time.Hour})
	defer cli.Close()

	want := time.Now().Add(300 * time.Millisecond)
	ctx, cancel := context.WithDeadline(context.Background(), want)
	defer cancel()
	if _, err := cli.Call(ctx, srv.Addr(), echoReq{Msg: "x"}); err != nil {
		t.Fatal(err)
	}
	if got.Load() != want.UnixNano() {
		t.Fatalf("server saw deadline %v, want %v (exact wire propagation)", time.Unix(0, got.Load()), want)
	}
}

// TestDeadlinePropagatesToHandler is the end-to-end deadline story: the
// absolute deadline crosses the wire inside the frame envelope and comes out
// as the server-side handler context's deadline — not a fresh budget, the
// caller's.
func TestDeadlinePropagatesToHandler(t *testing.T) {
	var hasDL atomic.Bool
	h := HandlerFunc(func(ctx context.Context, req any) (any, error) {
		_, ok := ctx.Deadline()
		hasDL.Store(ok)
		return req, nil
	})
	srv, err := NewTCPServer("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Even with no caller deadline at all, the default call timeout is
	// stamped and propagated, so the server can always drop stale work.
	cli := NewTCPClient()
	defer cli.Close()
	if _, err := cli.Call(context.Background(), srv.Addr(), echoReq{Msg: "x"}); err != nil {
		t.Fatal(err)
	}
	if !hasDL.Load() {
		t.Fatal("handler context carried no deadline despite the default call timeout")
	}

	// With the default disabled and no caller deadline, nothing is stamped:
	// the pre-resilience wire format (no deadline block) still round-trips.
	cli2 := NewTCPClientOpts(TCPClientOptions{CallTimeout: -1})
	defer cli2.Close()
	if _, err := cli2.Call(context.Background(), srv.Addr(), echoReq{Msg: "y"}); err != nil {
		t.Fatal(err)
	}
	if hasDL.Load() {
		t.Fatal("handler context carried a deadline with the default disabled")
	}
}

// TestServerDropsExpiredWork queues a request behind a slow one until its
// deadline lapses, then checks the server answered it with the deadline
// error without invoking the handler, and counted the drop.
func TestServerDropsExpiredWork(t *testing.T) {
	var invocations atomic.Int64
	release := make(chan struct{})
	h := HandlerFunc(func(ctx context.Context, req any) (any, error) {
		if invocations.Add(1) == 1 {
			<-release
		}
		return req, nil
	})
	reg := obs.NewRegistry()
	srv, err := newTCPServer("127.0.0.1:0", h, TCPServerOptions{Metrics: reg}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewTCPClient()
	defer cli.Close()

	done := make(chan error, 1)
	go func() {
		_, err := cli.Call(context.Background(), srv.Addr(), echoReq{Msg: "blocker"})
		done <- err
	}()
	// Wait until the blocker owns the single dispatch slot.
	for i := 0; invocations.Load() == 0; i++ {
		if i > 2000 {
			t.Fatal("blocker never dispatched")
		}
		time.Sleep(time.Millisecond)
	}

	// This one queues behind the blocker and expires in the queue.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err = cli.Call(ctx, srv.Addr(), echoReq{Msg: "stale"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stale call: err = %v, want deadline exceeded", err)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("blocker: %v", err)
	}
	// The server must have dequeued the stale request after its deadline,
	// dropped it before the handler, and counted it.
	deadlineDrop := func() int64 {
		return reg.Snapshot().Counters["transport_deadline_expired_total"]
	}
	for i := 0; deadlineDrop() == 0 && invocations.Load() < 2; i++ {
		if i > 2000 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if n := invocations.Load(); n != 1 {
		t.Fatalf("handler ran %d times; the expired request must be dropped before dispatch", n)
	}
	if n := deadlineDrop(); n != 1 {
		t.Fatalf("transport_deadline_expired_total = %d, want 1", n)
	}
}

// TestFrameDeadlineRoundTrip exercises the request frame's deadline block
// directly: flags bit2 set ⇒ a uvarint of absolute unix nanos between the
// flags byte and the message payload; bit2 clear ⇒ the old layout.
func TestFrameDeadlineRoundTrip(t *testing.T) {
	deadline := time.Now().Add(time.Second).UnixNano()
	buf, err := encodeRequest(42, obs.TraceContext{TraceID: 7, SpanID: 9, Sampled: true}, false, deadline, echoReq{Msg: "dl"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	req, err := decodeRequest((*buf)[4:], nil) // skip the length prefix
	if err != nil {
		t.Fatal(err)
	}
	if req.ID != 42 || req.DeadlineNs != deadline {
		t.Fatalf("decoded id=%d deadline=%d; want 42, %d", req.ID, req.DeadlineNs, deadline)
	}
	if req.Payload.(echoReq).Msg != "dl" {
		t.Fatalf("payload = %+v", req.Payload)
	}

	// No deadline ⇒ bit2 clear ⇒ zero on decode.
	buf, err = encodeRequest(43, obs.TraceContext{}, false, 0, echoReq{Msg: "none"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	req, err = decodeRequest((*buf)[4:], nil)
	if err != nil {
		t.Fatal(err)
	}
	if req.DeadlineNs != 0 {
		t.Fatalf("deadline = %d, want 0", req.DeadlineNs)
	}
}
