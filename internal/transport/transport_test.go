package transport

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type echoReq struct{ Msg string }
type echoResp struct{ Msg string }

// testCodec is the payload codec every test in this package runs on (the
// real one lives in internal/wire, which these tests must not import): one
// type byte, then the message text.
type testCodec struct{}

func (testCodec) Append(buf []byte, msg any) ([]byte, error) {
	switch m := msg.(type) {
	case echoReq:
		return append(append(buf, 'q'), m.Msg...), nil
	case echoResp:
		return append(append(buf, 'r'), m.Msg...), nil
	}
	return nil, fmt.Errorf("%w: %T", ErrUnsupportedType, msg)
}

func (testCodec) Decode(data []byte) (any, error) {
	if len(data) == 0 {
		return nil, errShortFrame
	}
	switch data[0] {
	case 'q':
		return echoReq{Msg: string(data[1:])}, nil
	case 'r':
		return echoResp{Msg: string(data[1:])}, nil
	}
	return nil, fmt.Errorf("testCodec: unknown type byte %#x", data[0])
}

func TestMain(m *testing.M) {
	SetCodec(testCodec{})
	os.Exit(m.Run())
}

var echo = HandlerFunc(func(ctx context.Context, req any) (any, error) {
	r, ok := req.(echoReq)
	if !ok {
		return nil, fmt.Errorf("bad request type %T", req)
	}
	if r.Msg == "fail" {
		return nil, errors.New("handler failure")
	}
	return echoResp{Msg: "echo:" + r.Msg}, nil
})

func TestBusCall(t *testing.T) {
	b := NewBus(LatencyModel{}, 1)
	b.Register("s1", echo)
	resp, err := b.Call(context.Background(), "s1", echoReq{Msg: "hi"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.(echoResp).Msg != "echo:hi" {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestBusUnknownAddr(t *testing.T) {
	b := NewBus(LatencyModel{}, 1)
	if _, err := b.Call(context.Background(), "nope", echoReq{}); !errors.Is(err, ErrUnknownAddr) {
		t.Fatalf("err = %v", err)
	}
}

func TestBusHandlerError(t *testing.T) {
	b := NewBus(LatencyModel{}, 1)
	b.Register("s1", echo)
	if _, err := b.Call(context.Background(), "s1", echoReq{Msg: "fail"}); err == nil || err.Error() != "handler failure" {
		t.Fatalf("err = %v", err)
	}
}

func TestBusDownEndpoint(t *testing.T) {
	b := NewBus(LatencyModel{}, 1)
	b.Register("s1", echo)
	b.SetDown("s1", true)
	if _, err := b.Call(context.Background(), "s1", echoReq{Msg: "x"}); err == nil {
		t.Fatal("call to down endpoint succeeded")
	}
	b.SetDown("s1", false)
	if _, err := b.Call(context.Background(), "s1", echoReq{Msg: "x"}); err != nil {
		t.Fatalf("after recovery: %v", err)
	}
	b.Deregister("s1")
	if _, err := b.Call(context.Background(), "s1", echoReq{}); !errors.Is(err, ErrUnknownAddr) {
		t.Fatalf("after deregister: %v", err)
	}
}

func TestBusClosed(t *testing.T) {
	b := NewBus(LatencyModel{}, 1)
	b.Register("s1", echo)
	b.Close()
	if _, err := b.Call(context.Background(), "s1", echoReq{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v", err)
	}
}

func TestBusLatencyApplied(t *testing.T) {
	b := NewBus(LatencyModel{OneWay: 3 * time.Millisecond}, 1)
	b.Register("s1", echo)
	start := time.Now()
	if _, err := b.Call(context.Background(), "s1", echoReq{Msg: "x"}); err != nil {
		t.Fatal(err)
	}
	if rtt := time.Since(start); rtt < 5*time.Millisecond {
		t.Fatalf("RTT %v too fast for 3ms one-way latency", rtt)
	}
}

func TestBusContextCancellation(t *testing.T) {
	b := NewBus(LatencyModel{OneWay: time.Second}, 1)
	b.Register("s1", echo)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := b.Call(ctx, "s1", echoReq{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) > 500*time.Millisecond {
		t.Fatal("cancellation did not interrupt the latency sleep")
	}
}

func TestLatencyModelSample(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	m := LatencyModel{OneWay: 100 * time.Microsecond, Jitter: 20 * time.Microsecond}
	for i := 0; i < 1000; i++ {
		d := m.Sample(r)
		if d < 80*time.Microsecond || d > 120*time.Microsecond {
			t.Fatalf("sample %v out of [80µs,120µs]", d)
		}
	}
	zero := LatencyModel{}
	if zero.Sample(r) != 0 {
		t.Fatal("zero model must sample 0")
	}
	neg := LatencyModel{OneWay: time.Microsecond, Jitter: time.Millisecond}
	for i := 0; i < 100; i++ {
		if neg.Sample(r) < 0 {
			t.Fatal("negative latency")
		}
	}
}

func TestBusConcurrent(t *testing.T) {
	b := NewBus(LatencyModel{OneWay: 100 * time.Microsecond, Jitter: 50 * time.Microsecond}, 2)
	b.Register("s1", echo)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				msg := fmt.Sprintf("m-%d-%d", i, j)
				resp, err := b.Call(context.Background(), "s1", echoReq{Msg: msg})
				if err != nil {
					t.Errorf("call: %v", err)
					return
				}
				if resp.(echoResp).Msg != "echo:"+msg {
					t.Errorf("bad echo: %+v", resp)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestTCPRoundTrip(t *testing.T) {
	srv, err := NewTCPServer("127.0.0.1:0", echo)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewTCPClient()
	defer cli.Close()
	resp, err := cli.Call(context.Background(), srv.Addr(), echoReq{Msg: "net"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.(echoResp).Msg != "echo:net" {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestTCPRemoteError(t *testing.T) {
	srv, err := NewTCPServer("127.0.0.1:0", echo)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewTCPClient()
	defer cli.Close()
	_, err = cli.Call(context.Background(), srv.Addr(), echoReq{Msg: "fail"})
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "handler failure" {
		t.Fatalf("err = %v", err)
	}
}

// TestTCPConcurrentCalls checks that calls over one multiplexed connection
// are served concurrently. The handlers form a rendezvous: none returns
// until all 32 calls are inside one at once, which a connection that
// serialized them, even only partly, never reaches. A handler still waiting
// after 10 s fails its call.
func TestTCPConcurrentCalls(t *testing.T) {
	const calls = 32
	var inside atomic.Int32
	all := make(chan struct{})
	rendezvous := HandlerFunc(func(ctx context.Context, req any) (any, error) {
		if inside.Add(1) == calls {
			close(all)
		}
		select {
		case <-all:
		case <-time.After(10 * time.Second):
			return nil, fmt.Errorf("calls serialized: only %d of %d ever in flight at once", inside.Load(), calls)
		}
		return echoResp{Msg: "echo:" + req.(echoReq).Msg}, nil
	})
	srv, err := NewTCPServer("127.0.0.1:0", rendezvous)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewTCPClient()
	defer cli.Close()
	// Outlast the handlers' bound, so a serialized run fails with their
	// error rather than the client's default call timeout.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg := fmt.Sprintf("c%d", i)
			resp, err := cli.Call(ctx, srv.Addr(), echoReq{Msg: msg})
			if err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
			if resp.(echoResp).Msg != "echo:"+msg {
				t.Errorf("bad mux: sent %q got %+v", msg, resp)
			}
		}(i)
	}
	wg.Wait()
}

func TestTCPServerClose(t *testing.T) {
	srv, err := NewTCPServer("127.0.0.1:0", echo)
	if err != nil {
		t.Fatal(err)
	}
	cli := NewTCPClient()
	defer cli.Close()
	if _, err := cli.Call(context.Background(), srv.Addr(), echoReq{Msg: "x"}); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Call(context.Background(), addr, echoReq{Msg: "x"}); err == nil {
		t.Fatal("call to closed server succeeded")
	}
}

func TestTCPClientClosed(t *testing.T) {
	cli := NewTCPClient()
	cli.Close()
	if _, err := cli.Call(context.Background(), "127.0.0.1:1", echoReq{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v", err)
	}
}

func TestTCPDialFailure(t *testing.T) {
	cli := NewTCPClient()
	defer cli.Close()
	_, err := cli.Call(context.Background(), "127.0.0.1:1", echoReq{})
	if err == nil || strings.Contains(err.Error(), "lost") {
		t.Fatalf("err = %v", err)
	}
}

func TestTCPClientRedialsAfterServerRestart(t *testing.T) {
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
	// In-flight connection is dead; calls fail until the server is back.
	if _, err := cli.Call(context.Background(), addr, echoReq{Msg: "b"}); err == nil {
		t.Fatal("call to closed server succeeded")
	}
	srv2, err := NewTCPServer(addr, echo)
	if err != nil {
		t.Fatalf("re-listen on %s: %v", addr, err)
	}
	defer srv2.Close()
	// The client must re-dial transparently on the next call.
	deadline := time.Now().Add(3 * time.Second)
	for {
		resp, err := cli.Call(context.Background(), addr, echoReq{Msg: "c"})
		if err == nil {
			if resp.(echoResp).Msg != "echo:c" {
				t.Fatalf("resp = %+v", resp)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("client never reconnected: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTCPServerMaxInflight floods a limited server with pipelined requests
// and verifies the handler-concurrency ceiling holds: excess requests wait
// in the decode loop instead of each spawning a goroutine.
func TestTCPServerMaxInflight(t *testing.T) {
	const limit = 2
	var inflight, peak atomic.Int64
	release := make(chan struct{})
	blocking := HandlerFunc(func(ctx context.Context, req any) (any, error) {
		cur := inflight.Add(1)
		for {
			old := peak.Load()
			if cur <= old || peak.CompareAndSwap(old, cur) {
				break
			}
		}
		<-release
		inflight.Add(-1)
		return req, nil
	})
	srv, err := newTCPServer("127.0.0.1:0", blocking, TCPServerOptions{}, limit)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewTCPClient()
	defer cli.Close()

	const calls = 6
	var wg sync.WaitGroup
	errs := make([]error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = cli.Call(context.Background(), srv.Addr(), echoReq{Msg: "x"})
		}(i)
	}
	// Give the flood time to reach the server, then let everything finish.
	time.Sleep(200 * time.Millisecond)
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if p := peak.Load(); p > limit {
		t.Fatalf("handler concurrency peaked at %d, limit %d", p, limit)
	}
	if p := peak.Load(); p != limit {
		t.Fatalf("expected the flood to saturate the limit (%d), peaked at %d", limit, p)
	}
}
