package retwis

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Populate writes DefaultValueSize bytes of 'p' to every
// PopulationKeys(users) key through put, from 128 concurrent writers, and
// returns the first error a put returned.
//
// It broadcasts no watermark: the populating client never reports again,
// and a stale report would pin the watermark at population time (the
// minimum is taken over reporting clients only, §4.4).
func Populate(ctx context.Context, users int, put func(ctx context.Context, key, val []byte) error) error {
	val := bytes.Repeat([]byte{'p'}, DefaultValueSize)
	// Enough concurrency that the FTL packers fill whole pages: sparse
	// writers leave pages partially packed, wasting space.
	const workers = 128
	var (
		wg       sync.WaitGroup
		failed   atomic.Bool
		firstErr error // written once, by the put that set failed
	)
	keys := make(chan string)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range keys {
				if failed.Load() {
					continue // drain so the producer never blocks
				}
				if err := put(ctx, []byte(k), val); err != nil && failed.CompareAndSwap(false, true) {
					firstErr = fmt.Errorf("populating %q: %w", k, err)
				}
			}
		}()
	}
	for _, k := range PopulationKeys(users) {
		keys <- k
	}
	close(keys)
	wg.Wait()
	return firstErr
}

// Spec describes one closed-loop run of §5.2: every session draws its own
// transaction stream over Users users with Zipf exponent Alpha and mix Mix,
// and runs it for Duration. Session i seeds its generator with
// Seed + 7919·i and starts its fresh users at Users + 10,000,000·i, so
// concurrent AddUser transactions never collide.
type Spec struct {
	Users int
	Alpha float64
	Mix   Mix
	Seed  int64
	// Duration is the measured run length.
	Duration time.Duration
	// WatermarkEvery makes every session broadcast its watermark before
	// its first transaction, then again once it has made N attempts since
	// its last broadcast, checked after each committed spec (0 never
	// broadcasts). Every session must then have a BroadcastWatermark.
	WatermarkEvery int
}

// Session is one Retwis instance: the client a closed loop runs against.
type Session[T Store] struct {
	// RunTransaction runs fn in a fresh transaction and commits it,
	// retrying an abort, as milana.Client.RunTransaction and
	// centiman.Client.RunTransaction do. Run hands it the same spec on
	// every attempt, so a retry reuses the same keys (§5.2).
	RunTransaction func(ctx context.Context, fn func(T) error) error
	// BroadcastWatermark reports the client's decided timestamp to every
	// replica (§4.4). Run calls it only when Spec.WatermarkEvery > 0.
	BroadcastWatermark func(ctx context.Context)
}

// Result is what Run measured across all sessions. Outcome counters
// (commits, aborts, local validations) live in each caller's clients.
type Result struct {
	// Elapsed is the wall time from the sessions' start to the last one's
	// end.
	Elapsed time.Duration
	// Latency is the per-spec latency of committed specs, retries
	// included.
	Latency obs.HistogramSnapshot
}

// Run drives one closed loop per session for s.Duration: each session
// generates a spec, runs it through its RunTransaction until it commits,
// and only then generates the next. An error returned at or after the
// deadline ends only its session (a transaction the deadline cut short may
// end unknown before ctx reports it); any other error fails the run and
// stops the other sessions.
func Run[T Store](ctx context.Context, s Spec, sessions []Session[T]) (Result, error) {
	if s.WatermarkEvery > 0 {
		// Register every client with the watermark computation before any
		// transaction begins (§4.4): until its first decision a
		// milana.Client reports its creation time, and a client that has
		// not reported could read below the others' minimum.
		for _, ses := range sessions {
			ses.BroadcastWatermark(ctx)
		}
	}
	runCtx, cancel := context.WithTimeout(ctx, s.Duration)
	defer cancel()
	end, _ := runCtx.Deadline()
	var (
		wg       sync.WaitGroup
		lat      = obs.NewHistogram() // concurrent-writer safe
		once     sync.Once
		firstErr error
	)
	start := time.Now()
	for i, ses := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := ses.loop(runCtx, end, s, NewGenerator(s.sessionOptions(i)), lat); err != nil {
				once.Do(func() { firstErr = err; cancel() })
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return Result{}, firstErr
	}
	return Result{Elapsed: time.Since(start), Latency: lat.Snapshot()}, nil
}

// sessionOptions is session i's generator options.
func (s Spec) sessionOptions(i int) Options {
	return Options{
		Users: s.Users, Alpha: s.Alpha, Mix: s.Mix,
		Seed:          s.Seed + int64(i)*7919,
		FreshUserBase: s.Users + i*10_000_000,
	}
}

// loop is one session's closed loop; it returns the error that fails the
// run, or nil once the run is over.
func (ses Session[T]) loop(ctx context.Context, end time.Time, s Spec, gen *Generator, lat *obs.Histogram) error {
	attempts := 0
	for ctx.Err() == nil {
		spec := gen.Next()
		start := time.Now()
		err := ses.RunTransaction(ctx, func(t T) error {
			attempts++
			return Execute(ctx, t, spec)
		})
		if err != nil {
			if ctx.Err() != nil || !time.Now().Before(end) {
				return nil
			}
			return err
		}
		lat.ObserveDuration(time.Since(start))
		if s.WatermarkEvery > 0 && attempts >= s.WatermarkEvery {
			attempts = 0
			ses.BroadcastWatermark(ctx)
		}
	}
	return nil
}
