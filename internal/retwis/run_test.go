package retwis

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
)

// traceTxn is a Store that records every operation of one attempt, values
// included.
type traceTxn struct{ ops []string }

func (t *traceTxn) Get(_ context.Context, key []byte) ([]byte, bool, error) {
	t.ops = append(t.ops, "get "+string(key))
	return nil, false, nil
}

func (t *traceTxn) Put(key, val []byte) error {
	t.ops = append(t.ops, "put "+string(key)+"="+string(val))
	return nil
}

// fakeClient is a session's client with no cluster behind it. Each spec
// takes `attempts` attempts, all but the last aborted; once `specs` specs
// have committed, the next call reports quota and waits for the run to end.
type fakeClient struct {
	specs, attempts int
	quota           func()

	calls      int
	runs       [][]traceTxn // per spec, one trace per attempt
	broadcasts int
	registered int // broadcasts before the first RunTransaction call
}

func (f *fakeClient) RunTransaction(ctx context.Context, fn func(*traceTxn) error) error {
	f.calls++
	if f.calls > f.specs {
		f.quota()
		<-ctx.Done()
		return ctx.Err()
	}
	run := make([]traceTxn, f.attempts)
	for a := range run {
		if err := fn(&run[a]); err != nil {
			return err
		}
	}
	f.runs = append(f.runs, run)
	return nil
}

func (f *fakeClient) session() Session[*traceTxn] {
	return Session[*traceTxn]{
		RunTransaction: f.RunTransaction,
		BroadcastWatermark: func(context.Context) {
			f.broadcasts++
			if f.calls == 0 {
				f.registered++
			}
		},
	}
}

// runFakes runs one session per fake until every fake has committed its
// specs, then ends the run by cancelling it.
func runFakes(t *testing.T, s Spec, fakes ...*fakeClient) Result {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var reached sync.WaitGroup
	sessions := make([]Session[*traceTxn], len(fakes))
	for i, f := range fakes {
		reached.Add(1)
		f.quota = reached.Done
		sessions[i] = f.session()
	}
	go func() { reached.Wait(); cancel() }()
	if s.Duration == 0 {
		s.Duration = time.Minute
	}
	res, err := Run(ctx, s, sessions)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestRunRetriesAbortWithSameKeys(t *testing.T) {
	f := &fakeClient{specs: 50, attempts: 3}
	res := runFakes(t, Spec{Users: 100, Seed: 5}, f)
	if res.Latency.Count != 50 {
		t.Fatalf("%d specs measured, want 50", res.Latency.Count)
	}
	for i, run := range f.runs {
		for a := 1; a < len(run); a++ {
			if !slices.Equal(run[a].ops, run[0].ops) {
				t.Fatalf("spec %d: attempt %d ran %v, attempt 0 ran %v", i, a, run[a].ops, run[0].ops)
			}
		}
	}
}

func TestRunSessionStreams(t *testing.T) {
	s := Spec{Users: 200, Alpha: 0.6, Mix: ReadHeavyMix, Seed: 11}
	fakes := []*fakeClient{{specs: 40, attempts: 1}, {specs: 40, attempts: 1}, {specs: 40, attempts: 1}}
	runFakes(t, s, fakes...)
	for i, f := range fakes {
		gen := NewGenerator(Options{
			Users: 200, Alpha: 0.6, Mix: ReadHeavyMix,
			Seed: 11 + int64(i)*7919, FreshUserBase: 200 + i*10_000_000,
		})
		for n, run := range f.runs {
			var want traceTxn
			if err := Execute(context.Background(), &want, gen.Next()); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(run[0].ops, want.ops) {
				t.Fatalf("session %d spec %d ran %v, want %v", i, n, run[0].ops, want.ops)
			}
		}
	}
}

func TestRunWatermarkEveryAttempts(t *testing.T) {
	for _, c := range []struct {
		attempts, every, want int
	}{
		// A registration before the first transaction, then one broadcast
		// per 4 of the 12 attempts.
		{attempts: 2, every: 4, want: 1 + 3},
		// The count is checked after each spec and restarts at zero: a
		// broadcast after every second spec, at 4 attempts each time.
		{attempts: 2, every: 3, want: 1 + 3},
		{attempts: 2, every: 0, want: 0},
	} {
		f := &fakeClient{specs: 6, attempts: c.attempts}
		runFakes(t, Spec{Users: 100, WatermarkEvery: c.every}, f)
		if f.broadcasts != c.want {
			t.Errorf("6 specs of %d attempts, WatermarkEvery %d: %d broadcasts, want %d", c.attempts, c.every, f.broadcasts, c.want)
		}
		if c.every > 0 && f.registered != 1 {
			t.Errorf("WatermarkEvery %d: %d broadcasts before the first transaction, want 1", c.every, f.registered)
		}
	}
}

func TestRunErrorBeforeDeadlineFailsRun(t *testing.T) {
	boom := errors.New("boom")
	bad := Session[*traceTxn]{RunTransaction: func(ctx context.Context, fn func(*traceTxn) error) error {
		if err := fn(&traceTxn{}); err != nil {
			return err
		}
		return boom
	}}
	// The healthy session runs until the failure stops it.
	good := Session[*traceTxn]{RunTransaction: func(ctx context.Context, fn func(*traceTxn) error) error {
		return fn(&traceTxn{})
	}}
	start := time.Now()
	_, err := Run(context.Background(), Spec{Users: 100, Duration: time.Minute}, []Session[*traceTxn]{good, bad})
	if !errors.Is(err, boom) {
		t.Fatalf("run error = %v, want %v", err, boom)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("failed run took %v: the healthy session was not stopped", d)
	}
}

// pastDeadline is a context whose deadline has passed but which has not
// reported it yet: the window in which a transaction the deadline cut short
// can return its error before ctx.Err() is set.
type pastDeadline struct{ context.Context }

func (pastDeadline) Deadline() (time.Time, bool) { return time.Now().Add(-time.Millisecond), true }

func TestRunErrorAtDeadlineEndsOnlyItsSession(t *testing.T) {
	unknown := errors.New("outcome unknown")
	fail := Session[*traceTxn]{RunTransaction: func(ctx context.Context, fn func(*traceTxn) error) error {
		return unknown
	}}
	res, err := Run(pastDeadline{context.Background()}, Spec{Users: 100, Duration: time.Minute}, []Session[*traceTxn]{fail, fail})
	if err != nil || res.Latency.Count != 0 {
		t.Fatalf("past the deadline: run = %+v, %v; want no error", res, err)
	}
	// After the context reports the deadline, likewise.
	late := Session[*traceTxn]{RunTransaction: func(ctx context.Context, fn func(*traceTxn) error) error {
		<-ctx.Done()
		return unknown
	}}
	if _, err := Run(context.Background(), Spec{Users: 100, Duration: 10 * time.Millisecond}, []Session[*traceTxn]{late}); err != nil {
		t.Fatalf("after the deadline: run error = %v, want none", err)
	}
}

func TestPopulateWritesEachKeyOnce(t *testing.T) {
	var mu sync.Mutex
	writes := map[string]int{}
	err := Populate(context.Background(), 50, func(_ context.Context, key, val []byte) error {
		if !bytes.Equal(val, bytes.Repeat([]byte{'p'}, DefaultValueSize)) {
			return fmt.Errorf("key %s: value %q", key, val)
		}
		mu.Lock()
		writes[string(key)]++
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := PopulationKeys(50)
	if len(writes) != len(keys) {
		t.Fatalf("%d keys written, want %d", len(writes), len(keys))
	}
	for _, k := range keys {
		if writes[k] != 1 {
			t.Fatalf("key %s written %d times, want once", k, writes[k])
		}
	}
}

func TestPopulateReturnsPutError(t *testing.T) {
	rejected := errors.New("rejected")
	err := Populate(context.Background(), 50, func(_ context.Context, key, _ []byte) error {
		if string(key) == TimelineKey(17) {
			return rejected
		}
		return nil
	})
	if !errors.Is(err, rejected) {
		t.Fatalf("populate error = %v, want %v", err, rejected)
	}
}
