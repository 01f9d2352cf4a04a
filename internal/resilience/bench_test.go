// Fast-path benchmarks for the resilience layer. These are the same shapes
// the core overhead gate (TestResilienceOverheadGate) re-measures in-process
// to account the layer's idle cost against a transaction's latency; keep
// them allocation-honest (-benchmem) when touching the hot paths.
package resilience

import (
	"context"
	"testing"

	"repro/internal/obs"
)

type benchNet struct{}

func (benchNet) Call(ctx context.Context, addr string, req any) (any, error) { return "ok", nil }

func BenchmarkPlainCall(b *testing.B) {
	ctx := context.Background()
	var n benchNet
	for i := 0; i < b.N; i++ {
		_, _ = n.Call(ctx, "shard0/r0", nil)
	}
}

func BenchmarkBreakerCall(b *testing.B) {
	c := NewBreakerClient(benchNet{}, BreakerOptions{})
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = c.Call(ctx, "shard0/r0", nil)
	}
}

func BenchmarkAdmitDone(b *testing.B) {
	a := NewAdmission(AdmissionOptions{})
	// Realistic server-side context depth: one value, the request record.
	ctx := obs.WithReq(context.Background(), obs.Req{TraceContext: obs.TraceContext{TraceID: 1, SpanID: 2, Sampled: true}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Admit(ctx, PriControl); err == nil {
			a.Done()
		}
	}
}
