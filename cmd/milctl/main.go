// Command milctl is a command-line client for semeld servers.
//
//	milctl -shards ":7001,:7002,:7003" get mykey
//	milctl -shards ":7001,:7002,:7003" put mykey myvalue
//	milctl -shards ":7001,:7002,:7003" del mykey
//	milctl -shards ":7001,:7002,:7003" txn get a put b 2 get c
//
// The txn subcommand executes its operation list inside one MILANA
// transaction: "get <key>" reads, "put <key> <value>" writes; the
// transaction commits at the end (read-only transactions validate locally).
package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/cmd/internal/milctl"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := milctl.Run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "milctl:", err)
		if errors.Is(err, milctl.ErrUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}
