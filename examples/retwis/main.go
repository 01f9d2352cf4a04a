// Retwis: run the paper's motivating workload (Table 2) against an
// embedded cluster on the emulated software-defined flash backend, with
// PTP-disciplined client clocks, and print the throughput, abort and
// local-validation statistics the evaluation section is built on.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/flash"
	"repro/internal/milana"
	"repro/internal/retwis"
	"repro/internal/transport"
)

const (
	users     = 500
	instances = 8
	duration  = 2 * time.Second
)

func main() {
	cluster, err := core.NewCluster(core.ClusterOptions{
		Shards: 3, Replicas: 3,
		Backend:         core.BackendMFTL,
		RealFlashTiming: true,
		Geometry:        flash.Geometry{Channels: 4, BlocksPerChannel: 64, PagesPerBlock: 16, PageSize: 2048},
		Latency:         transport.LatencyModel{OneWay: 50 * time.Microsecond, Jitter: 10 * time.Microsecond},
		ClockProfile:    clock.PTPSoftware,
		LeaseDuration:   -1,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	ctx := context.Background()

	fmt.Printf("populating %d users (%d keys)...\n", users, 4*users)
	kv := cluster.NewSemelClient(9001)
	err = retwis.Populate(ctx, users, func(ctx context.Context, key, val []byte) error {
		_, err := kv.Put(ctx, key, val)
		return err
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("running %d Retwis instances for %v (Table 2 mix, α=0.6)...\n", instances, duration)
	clients := make([]*milana.Client, instances)
	sessions := make([]retwis.Session[*milana.Txn], instances)
	for i := range clients {
		clients[i] = cluster.NewTxnClient(uint32(i + 1))
		sessions[i] = retwis.Session[*milana.Txn]{RunTransaction: clients[i].RunTransaction}
	}
	res, err := retwis.Run(ctx, retwis.Spec{Users: users, Alpha: 0.6, Duration: duration}, sessions)
	if err != nil {
		log.Fatal(err)
	}

	var committed, aborted, localVal, readOnly int64
	for _, cl := range clients {
		st := cl.Stats()
		committed += st.Committed
		aborted += st.Aborted
		localVal += st.LocalValidated
		readOnly += st.ReadOnly
	}
	fmt.Printf("\ncommitted:          %d (%.0f txn/s)\n", committed, float64(committed)/res.Elapsed.Seconds())
	fmt.Printf("aborted:            %d (%.2f%% abort rate)\n", aborted, 100*float64(aborted)/float64(committed+aborted))
	fmt.Printf("read-only:          %d decided (%d committed locally, zero validation RPCs)\n", readOnly, localVal)
	dev := cluster.Device(core.Addr(0, 0))
	if dev != nil {
		s := dev.Stats()
		fmt.Printf("shard0 primary SSD: %d page reads, %d page programs, %d block erases\n", s.Reads, s.Programs, s.Erases)
	}
}
