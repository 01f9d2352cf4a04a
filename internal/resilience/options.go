package resilience

// Options bundles the whole resilience layer's knobs for cluster wiring:
// core.ClusterOptions carries one of these and fans the pieces out — Retry
// to each client (with its own Budget), Breaker around each client's
// transport, Admission into each server. The zero value enables everything
// with defaults; the No* switches turn individual mechanisms off for A/B
// tests and the overhead gate.
type Options struct {
	Retry     RetryOptions
	Breaker   BreakerOptions
	Admission AdmissionOptions

	// NoRetry disables the budgeted backoff policy in RunTransaction
	// (restoring the seed's immediate-retry loop).
	NoRetry bool
	// NoBreaker disables the per-endpoint circuit breakers.
	NoBreaker bool
	// NoAdmission disables server-side load shedding.
	NoAdmission bool
}
