// Fast-path benchmark for admission control. It is the same shape the core
// overhead gate (TestResilienceOverheadGate) re-measures in-process to
// account the layer's idle cost against a transaction's latency; keep it
// allocation-honest (-benchmem) when touching the hot path.
package resilience

import (
	"context"
	"testing"

	"repro/internal/obs"
)

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
