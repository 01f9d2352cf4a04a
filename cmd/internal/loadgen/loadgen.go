// Package loadgen is the loadgen command: Run drives the Retwis closed loop
// against a semeld cluster. cmd/loadgen wraps it with signal handling and
// the exit code.
package loadgen

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/milana"
	"repro/internal/resilience"
	"repro/internal/retwis"
	"repro/internal/semel"
	"repro/internal/transport"
)

// backoffBusy sleeps out a shed server's RetryAfter hint (falling back to
// 5ms) and reports whether err was an admission-control pushback at all —
// the load generator must be a well-behaved client, not fail the run on
// the first shed. Population and every transaction retry through it.
func backoffBusy(ctx context.Context, err error) bool {
	if !resilience.IsServerBusy(err) {
		return false
	}
	d, ok := resilience.RetryAfterFrom(err)
	if !ok || d <= 0 {
		d = 5 * time.Millisecond
	}
	select {
	case <-time.After(d):
	case <-ctx.Done():
	}
	return true
}

// Run populates the cluster named by args (without the program name), runs
// the Retwis closed loop against it and prints the results to w.
func Run(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	var (
		shards    = fs.String("shards", ":7001", "';'-separated shards, each a ','-separated replica list (primary first)")
		clients   = fs.Int("clients", 8, "concurrent benchmark instances")
		duration  = fs.Duration("duration", 10*time.Second, "measured run length")
		users     = fs.Int("users", 1000, "Retwis user population (pre-populated)")
		alpha     = fs.Float64("alpha", 0.6, "Zipf contention parameter")
		readHeavy = fs.Bool("readheavy", false, "use the 75% read-only mix instead of Table 2's default")
		seed      = fs.Int64("seed", 1, "random seed")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil
	} else if err != nil {
		return err
	}

	var sets []cluster.ReplicaSet
	for _, s := range strings.Split(*shards, ";") {
		addrs := strings.Split(s, ",")
		sets = append(sets, cluster.ReplicaSet{Primary: addrs[0], Backups: addrs[1:]})
	}
	dir, err := cluster.New(sets)
	if err != nil {
		return err
	}
	src := clock.NewSystemSource()

	fmt.Fprintf(w, "populating %d users (%d keys)...\n", *users, 4**users)
	popNet := transport.NewTCPClient()
	defer popNet.Close()
	kv := semel.NewClient(clock.NewPerfect(src, 1_000_000), popNet, dir)
	err = retwis.Populate(ctx, *users, func(ctx context.Context, key, val []byte) error {
		for {
			_, err := kv.Put(ctx, key, val)
			if !backoffBusy(ctx, err) {
				return err
			}
		}
	})
	if err != nil {
		return fmt.Errorf("populate: %w", err)
	}

	mix := retwis.DefaultMix
	if *readHeavy {
		mix = retwis.ReadHeavyMix
	}
	fmt.Fprintf(w, "running %d clients for %v (α=%.2f)...\n", *clients, *duration, *alpha)
	txcs := make([]*milana.Client, *clients)
	sessions := make([]retwis.Session[*milana.Txn], *clients)
	for i := range txcs {
		net := transport.NewTCPClient()
		defer net.Close()
		cl := milana.NewClient(clock.NewPerfect(src, uint32(i+1)), net, dir)
		txcs[i] = cl
		sessions[i] = retwis.Session[*milana.Txn]{
			RunTransaction: func(ctx context.Context, fn func(*milana.Txn) error) error {
				for {
					err := cl.RunTransaction(ctx, fn)
					if !backoffBusy(ctx, err) {
						return err
					}
				}
			},
			BroadcastWatermark: cl.BroadcastWatermark,
		}
	}
	res, err := retwis.Run(ctx, retwis.Spec{
		Users: *users, Alpha: *alpha, Mix: mix, Seed: *seed,
		Duration:       *duration,
		WatermarkEvery: 500,
	}, sessions)
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}

	var total milana.Stats
	for _, cl := range txcs {
		st := cl.Stats()
		total.Committed += st.Committed
		total.Aborted += st.Aborted
		total.LocalValidated += st.LocalValidated
		total.ReadOnly += st.ReadOnly
	}
	elapsed := res.Elapsed
	fmt.Fprintf(w, "\nelapsed:          %v\n", elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "committed:        %d (%.0f txn/s)\n", total.Committed, float64(total.Committed)/elapsed.Seconds())
	fmt.Fprintf(w, "aborted:          %d (%.2f%% abort rate)\n", total.Aborted,
		100*float64(total.Aborted)/float64(max(1, total.Committed+total.Aborted)))
	fmt.Fprintf(w, "read-only:        %d (%d validated locally, zero round trips)\n", total.ReadOnly, total.LocalValidated)
	if res.Latency.Count > 0 {
		fmt.Fprintf(w, "avg txn latency:  %v\n", time.Duration(res.Latency.Mean()).Round(time.Microsecond))
	}
	return nil
}
