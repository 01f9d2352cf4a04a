package resilience

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/obs"
)

// RetryOptions configure a client's retry policy.
type RetryOptions struct {
	// BudgetRatio is the token deposit per fresh transaction; each retry
	// withdraws one token, so the retry rate is bounded at ~BudgetRatio of
	// the fresh-transaction rate. Default 0.1.
	BudgetRatio float64
	// BudgetBurst caps the token bucket, bounding how large a retry burst
	// an idle period can bank. Default 10.
	BudgetBurst float64
	// BaseBackoff is the backoff ceiling for the first retry; the ceiling
	// doubles per attempt up to MaxBackoff, and the actual sleep is drawn
	// uniformly from [0, ceiling) (full jitter). Default 1ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the backoff ceiling. Default 100ms.
	MaxBackoff time.Duration
	// Seed seeds the jitter PRNG so chaos runs replay deterministically.
	Seed int64
	// Metrics, when set, records retry accounting.
	Metrics *obs.Registry
}

func (o RetryOptions) withDefaults() RetryOptions {
	if o.BudgetRatio <= 0 {
		o.BudgetRatio = 0.1
	}
	if o.BudgetBurst <= 0 {
		o.BudgetBurst = 10
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 100 * time.Millisecond
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Budget is a token-bucket retry budget (the gRPC retry-throttling shape):
// fresh work deposits fractional tokens, each retry withdraws a whole one, and a withdrawal from an empty bucket is simply denied — the
// caller returns the original error instead of amplifying load. Because
// deposits only come from fresh traffic, retry volume is structurally
// bounded at ratio × fresh even when every transaction aborts.
type Budget struct {
	mu     sync.Mutex
	tokens float64
	ratio  float64
	burst  float64

	denied *obs.Counter
}

// NewBudget builds a budget with deposit ratio and bucket cap burst.
// A nil return never happens; zero/negative arguments take the defaults.
func NewBudget(ratio, burst float64, reg *obs.Registry) *Budget {
	o := RetryOptions{BudgetRatio: ratio, BudgetBurst: burst}.withDefaults()
	b := &Budget{tokens: o.BudgetBurst, ratio: o.BudgetRatio, burst: o.BudgetBurst}
	if reg != nil {
		b.denied = reg.Counter("resilience_budget_denied_total")
	}
	return b
}

// OnFresh deposits the per-fresh-transaction token fraction.
func (b *Budget) OnFresh() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.tokens += b.ratio
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.mu.Unlock()
}

// Withdraw takes one token if available; false means the budget is
// exhausted and the caller must not retry.
func (b *Budget) Withdraw() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	ok := b.tokens >= 1
	if ok {
		b.tokens--
	}
	b.mu.Unlock()
	if !ok {
		b.denied.Inc()
	}
	return ok
}

// Tokens reports the current balance (for tests and debug output).
func (b *Budget) Tokens() float64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tokens
}

// Retrier is the per-client retry policy: full-jitter exponential backoff
// gated by a shared Budget. It is safe for concurrent use by many
// transactions of one client.
type Retrier struct {
	opt    RetryOptions
	budget *Budget

	mu  sync.Mutex
	rng *rand.Rand

	retries *obs.Counter
	busy    *obs.Counter
}

// NewRetrier builds a Retrier drawing from budget.
func NewRetrier(opt RetryOptions, budget *Budget) *Retrier {
	opt = opt.withDefaults()
	r := &Retrier{
		opt:    opt,
		budget: budget,
		rng:    rand.New(rand.NewSource(opt.Seed)),
	}
	if m := opt.Metrics; m != nil {
		r.retries = m.Counter("resilience_retries_total")
		r.busy = m.Counter("resilience_retry_busy_total")
	}
	return r
}

// OnFresh records the start of a fresh (non-retry) transaction attempt.
func (r *Retrier) OnFresh() {
	if r == nil {
		return
	}
	r.budget.OnFresh()
}

// TryRetry asks permission for one more attempt after a retryable failure.
func (r *Retrier) TryRetry(serverBusy bool) bool {
	if r == nil {
		return false
	}
	if !r.budget.Withdraw() {
		return false
	}
	r.retries.Inc()
	if serverBusy {
		r.busy.Inc()
	}
	return true
}

// Backoff returns the sleep before retry number attempt (1-based): a
// uniform draw from [0, min(BaseBackoff<<(attempt-1), MaxBackoff)), raised
// to at least retryAfter when the server pushed back with a hint — the
// server's estimate of when capacity frees up dominates blind jitter.
func (r *Retrier) Backoff(attempt int, retryAfter time.Duration) time.Duration {
	if r == nil {
		return 0
	}
	ceil := r.opt.BaseBackoff
	for i := 1; i < attempt && ceil < r.opt.MaxBackoff; i++ {
		ceil *= 2
	}
	if ceil > r.opt.MaxBackoff {
		ceil = r.opt.MaxBackoff
	}
	r.mu.Lock()
	d := time.Duration(r.rng.Int63n(int64(ceil) + 1))
	r.mu.Unlock()
	if d < retryAfter {
		d = retryAfter
	}
	return d
}
