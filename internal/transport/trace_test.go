package transport

import (
	"context"
	"testing"

	"repro/internal/obs"
)

// TestTCPTracePropagation checks the TCP transport carries the caller's
// TraceContext in its wire envelope and reconstructs it in the handler's ctx
// — and that untraced calls arrive with no context at all.
func TestTCPTracePropagation(t *testing.T) {
	got := make(chan obs.TraceContext, 1)
	handler := HandlerFunc(func(ctx context.Context, req any) (any, error) {
		got <- obs.ReqFrom(ctx).TraceContext
		return echoResp{Msg: "ok"}, nil
	})
	srv, err := NewTCPServer("127.0.0.1:0", handler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewTCPClient()
	defer cli.Close()

	want := obs.TraceContext{TraceID: 0xabc123, SpanID: 0x42, Sampled: true}
	ctx := obs.WithReq(context.Background(), obs.Req{TraceContext: want})
	if _, err := cli.Call(ctx, srv.Addr(), echoReq{Msg: "traced"}); err != nil {
		t.Fatal(err)
	}
	if tc := <-got; tc != want {
		t.Fatalf("server saw trace %+v, want %+v", tc, want)
	}

	if _, err := cli.Call(context.Background(), srv.Addr(), echoReq{Msg: "plain"}); err != nil {
		t.Fatal(err)
	}
	if tc := <-got; tc != (obs.TraceContext{}) {
		t.Fatalf("untraced call leaked a context: %+v", tc)
	}
}

// TestBusTracePropagation checks the in-process bus passes the ctx-carried
// trace straight through (no envelope needed).
func TestBusTracePropagation(t *testing.T) {
	got := make(chan obs.TraceContext, 1)
	b := NewBus(LatencyModel{}, 1)
	b.Register("s1", HandlerFunc(func(ctx context.Context, req any) (any, error) {
		got <- obs.ReqFrom(ctx).TraceContext
		return echoResp{}, nil
	}))
	defer b.Close()
	want := obs.TraceContext{TraceID: 7, SpanID: 9, Sampled: true}
	if _, err := b.Call(obs.WithReq(context.Background(), obs.Req{TraceContext: want}), "s1", echoReq{}); err != nil {
		t.Fatal(err)
	}
	if tc := <-got; tc != want {
		t.Fatalf("bus handler saw %+v, want %+v", tc, want)
	}
}
