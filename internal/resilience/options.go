package resilience

// Options bundles the whole resilience layer's knobs for cluster wiring:
// core.ClusterOptions carries one of these and fans the pieces out — Retry
// to each client (with its own Budget), Breaker around each client's
// transport, Admission into each server. The zero value enables everything
// with defaults; NoRetry turns the retry policy off for tests that must see
// each failure exactly once.
type Options struct {
	Retry     RetryOptions
	Breaker   BreakerOptions
	Admission AdmissionOptions

	// NoRetry disables the budgeted backoff policy in RunTransaction
	// (restoring the seed's immediate-retry loop).
	NoRetry bool
}
