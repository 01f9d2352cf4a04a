package transport

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// pendingCount sums the pending-call entries across every live connection —
// test-only leak detector for the id/channel bookkeeping.
func (c *TCPClient) pendingCount() int {
	c.mu.Lock()
	conns := make([]*tcpConn, 0, len(c.conns))
	for _, tc := range c.conns {
		conns = append(conns, tc)
	}
	c.mu.Unlock()
	n := 0
	for _, tc := range conns {
		for i := range tc.shards {
			sh := &tc.shards[i]
			sh.mu.Lock()
			n += len(sh.m)
			sh.mu.Unlock()
		}
	}
	return n
}

// TestTCPRedialFreshOnNextUse is the regression test for the dropped-
// connection bug: after the transport layer notices a drop (one failed
// call), the very next Call must dial a fresh connection — no retry loop,
// no new client.
func TestTCPRedialFreshOnNextUse(t *testing.T) {
	srv, err := NewTCPServer("127.0.0.1:0", echo)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	cli := NewTCPClient()
	defer cli.Close()
	if _, err := cli.Call(context.Background(), addr, echoReq{Msg: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// This call rides the dead connection and must fail; its failure
	// guarantees the drop bookkeeping ran (the pending sweep closes the
	// response channel only after the connection leaves the dial map).
	if _, err := cli.Call(context.Background(), addr, echoReq{Msg: "b"}); err == nil {
		t.Fatal("call on a dead connection succeeded")
	}
	srv2, err := NewTCPServer(addr, echo)
	if err != nil {
		t.Fatalf("re-listen on %s: %v", addr, err)
	}
	defer srv2.Close()
	// Single attempt, deterministically: the client must dial fresh here.
	resp, err := cli.Call(context.Background(), addr, echoReq{Msg: "c"})
	if err != nil {
		t.Fatalf("first call after restart did not redial: %v", err)
	}
	if resp.(echoResp).Msg != "echo:c" {
		t.Fatalf("resp = %+v", resp)
	}
	if n := cli.pendingCount(); n != 0 {
		t.Fatalf("%d pending entries leaked", n)
	}
}

// TestTCPCancelResponseRace races context cancellation against response
// delivery (run under -race): every outcome must be either the real
// response, a context error or the server's deadline drop, the connection
// must stay usable, and no
// pending entry may leak whichever side wins the id.
func TestTCPCancelResponseRace(t *testing.T) {
	delayEcho := HandlerFunc(func(ctx context.Context, req any) (any, error) {
		time.Sleep(time.Duration(rand.Intn(300)) * time.Microsecond)
		return echoResp{Msg: "echo:" + req.(echoReq).Msg}, nil
	})
	srv, err := NewTCPServer("127.0.0.1:0", delayEcho)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewTCPClient()
	defer cli.Close()

	const workers = 8
	const iters = 60
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				msg := fmt.Sprintf("m-%d-%d", w, i)
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(rand.Intn(300))*time.Microsecond)
				resp, err := cli.Call(ctx, srv.Addr(), echoReq{Msg: msg})
				cancel()
				switch {
				case err == nil:
					if resp.(echoResp).Msg != "echo:"+msg {
						t.Errorf("wrong response for %q: %+v", msg, resp)
						return
					}
				case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
				case errors.Is(err, ErrDeadlineExceeded):
				// The server dequeued the request after its deadline and said
				// so before the caller's own timer fired.
				default:
					t.Errorf("unexpected error: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// The connection must still be healthy after all that racing.
	resp, err := cli.Call(context.Background(), srv.Addr(), echoReq{Msg: "after"})
	if err != nil {
		t.Fatalf("connection unusable after cancel races: %v", err)
	}
	if resp.(echoResp).Msg != "echo:after" {
		t.Fatalf("resp = %+v", resp)
	}
	// Responses for cancelled ids may still be in flight; they drain via
	// take() in the readLoop. Poll briefly for the maps to empty.
	deadline := time.Now().Add(2 * time.Second)
	for cli.pendingCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d pending entries leaked after cancel races", cli.pendingCount())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTCPCancelDeliversRacedResponse pins the deterministic-cancellation
// contract: when the response beats the canceller to the pending entry, the
// caller receives the response (not a spurious error), and the raced id is
// fully reclaimed.
func TestTCPCancelDeliversRacedResponse(t *testing.T) {
	block := make(chan struct{})
	gate := HandlerFunc(func(ctx context.Context, req any) (any, error) {
		<-block
		return echoResp{Msg: "late"}, nil
	})
	srv, err := NewTCPServer("127.0.0.1:0", gate)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewTCPClient()
	defer cli.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var resp any
	var callErr error
	go func() {
		defer close(done)
		resp, callErr = cli.Call(ctx, srv.Addr(), echoReq{Msg: "x"})
	}()
	time.Sleep(50 * time.Millisecond) // request is pending server-side
	close(block)                      // response starts racing...
	cancel()                          // ...against cancellation
	<-done
	if callErr == nil {
		if resp.(echoResp).Msg != "late" {
			t.Fatalf("resp = %+v", resp)
		}
	} else if !errors.Is(callErr, context.Canceled) {
		t.Fatalf("err = %v", callErr)
	}
	deadline := time.Now().Add(2 * time.Second)
	for cli.pendingCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d pending entries leaked", cli.pendingCount())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTCPWriteCoalescing drives many concurrent small calls through one
// connection and checks they all complete — exercising the single-writer
// queue and flush-on-drain path under load.
func TestTCPWriteCoalescing(t *testing.T) {
	srv, err := NewTCPServer("127.0.0.1:0", echo)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewTCPClient()
	defer cli.Close()
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				msg := fmt.Sprintf("w%d-%d", w, i)
				resp, err := cli.Call(context.Background(), srv.Addr(), echoReq{Msg: msg})
				if err != nil {
					t.Errorf("call: %v", err)
					return
				}
				if resp.(echoResp).Msg != "echo:"+msg {
					t.Errorf("bad mux: %q -> %+v", msg, resp)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := cli.pendingCount(); n != 0 {
		t.Fatalf("%d pending entries leaked", n)
	}
}
