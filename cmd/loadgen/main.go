// Command loadgen drives the Retwis benchmark (Table 2 of the paper)
// against a semeld cluster over TCP and reports throughput, latency and
// abort statistics — a network-deployment counterpart of cmd/experiments.
//
//	semeld -listen :7001 &
//	loadgen -shards ":7001" -clients 8 -duration 10s -alpha 0.6
package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/cmd/internal/loadgen"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := loadgen.Run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}
