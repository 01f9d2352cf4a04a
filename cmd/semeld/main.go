// Command semeld runs one SEMEL/MILANA storage replica over TCP.
//
// A three-replica shard on one machine:
//
//	semeld -listen :7001 -shard 0 -replica 0 -peers :7001,:7002,:7003 &
//	semeld -listen :7002 -shard 0 -replica 1 -peers :7001,:7002,:7003 &
//	semeld -listen :7003 -shard 0 -replica 2 -peers :7001,:7002,:7003 &
//
// Replica 0 of each shard starts as primary. The shard map is static: every
// replica must be started with the same -shards description, formatted as
// semicolon-separated shards, each a comma-separated replica address list
// (primary first). When -peers is given, a single shard is assumed.
package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/cmd/internal/semeld"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := semeld.Run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "semeld:", err)
		os.Exit(1)
	}
}
