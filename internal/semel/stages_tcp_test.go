package semel_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/milana"
	"repro/internal/obs"
	"repro/internal/semel"
	"repro/internal/storage"
	"repro/internal/transport"
)

// startInstrumentedTCPShard boots a 3-replica shard over real TCP with all
// three servers folding their request ledgers into srvReg. The returned
// client carries cliReg so its frame codec takes the clock reads that stage
// attribution of encode/decode piggybacks on. Nil registries give plain
// servers and a plain client.
func startInstrumentedTCPShard(t *testing.T, srvReg, cliReg *obs.Registry) (*cluster.Directory, *transport.TCPClient, clock.Source) {
	t.Helper()
	src := clock.NewSystemSource()

	type pending struct {
		tcp *transport.TCPServer
		set func(*semel.Server)
	}
	var servers []pending
	var addrs []string
	for r := 0; r < 3; r++ {
		var inner *semel.Server
		h := transport.HandlerFunc(func(ctx context.Context, req any) (any, error) {
			return inner.Serve(ctx, req)
		})
		tcp, err := transport.NewTCPServerOpts("127.0.0.1:0", h, transport.TCPServerOptions{Metrics: srvReg})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tcp.Close() })
		servers = append(servers, pending{tcp: tcp, set: func(s *semel.Server) { inner = s }})
		addrs = append(addrs, tcp.Addr())
	}
	dir, err := cluster.New([]cluster.ReplicaSet{{Primary: addrs[0], Backups: addrs[1:]}})
	if err != nil {
		t.Fatal(err)
	}
	for r := range servers {
		net := transport.NewTCPClient()
		t.Cleanup(net.Close)
		srv, err := semel.NewServer(semel.ServerOptions{
			Addr:    addrs[r],
			Shard:   0,
			Primary: r == 0,
			Backend: storage.NewDRAM(),
			Net:     net,
			Dir:     dir,
			Clock:   clock.NewPerfect(src, uint32(1000+r)),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		servers[r].set(srv)
	}
	cli := transport.NewTCPClientOpts(transport.TCPClientOptions{Metrics: cliReg})
	t.Cleanup(cli.Close)
	return dir, cli, src
}

// TestTCPStageAccountingIdentity is the real-socket half of the accounting
// invariant, across the paper's clock ladder: the server-side waits come
// back as sparse stage deltas in the response frame, the client folds them
// next to its own encode/decode/network measurements, and the books still
// balance exactly. The servers independently fold the same requests into
// their own server_stage_ledger series.
func TestTCPStageAccountingIdentity(t *testing.T) {
	for _, prof := range []clock.Profile{clock.NTP, clock.PTPHardware, clock.DTP} {
		t.Run(prof.Name, func(t *testing.T) {
			srvReg, cliReg := obs.NewRegistry(), obs.NewRegistry()
			dir, net, src := startInstrumentedTCPShard(t, srvReg, cliReg)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()

			rng := rand.New(rand.NewSource(7))
			clk := clock.NewSkewed(src, 1, prof.SampleOffset(rng), prof.DriftPPM)
			txc := milana.NewClient(clk, net, dir)
			txc.SyncDecisions = true // phase two rides the ledgered context
			txc.EnableStages(cliReg)

			const txns = 20
			for i := 0; i < txns; i++ {
				key := []byte(fmt.Sprintf("acct:%d", i%4))
				if err := txc.RunTransaction(ctx, func(tx *milana.Txn) error {
					_, _, err := tx.Get(ctx, key)
					if err != nil {
						return err
					}
					return tx.Put(key, []byte(fmt.Sprintf("v%d", i)))
				}); err != nil {
					t.Fatalf("txn %d: %v", i, err)
				}
			}

			// Client-side identity: Σ stage sums − overrun == Σ e2e, exactly.
			snap := cliReg.Snapshot()
			var stageSum int64
			for _, name := range obs.StageNames() {
				stageSum += snap.Hists[obs.WithLabel("milana_stage_ledger_ns", "stage", name)].Sum
			}
			overrun := snap.Counters["milana_stage_ledger_overrun_ns_total"]
			e2e := snap.Hists["milana_stage_ledger_e2e_ns"]
			if e2e.Count < txns {
				t.Fatalf("e2e count = %d, want ≥ %d", e2e.Count, txns)
			}
			if stageSum-overrun != e2e.Sum {
				t.Fatalf("client identity broken: Σstages %d − overrun %d != e2e %d",
					stageSum, overrun, e2e.Sum)
			}

			// Both halves of the wire contributed: the client's own codec
			// and network measurements, and the server-side waits that only
			// a response-frame delta block could have delivered (validate
			// from prepares, flash-program from the commit each single-shard
			// prepare applies inline on DRAM before it answers).
			for _, stage := range []string{"encode", "decode", "network", "validate", "flash-program"} {
				h := snap.Hists[obs.WithLabel("milana_stage_ledger_ns", "stage", stage)]
				if h.Count == 0 {
					t.Fatalf("stage %q never attributed over TCP", stage)
				}
			}

			// Server-side identity over the same traffic.
			srvSnap := srvReg.Snapshot()
			var srvSum int64
			for _, name := range obs.StageNames() {
				srvSum += srvSnap.Hists[obs.WithLabel("server_stage_ledger_ns", "stage", name)].Sum
			}
			srvOverrun := srvSnap.Counters["server_stage_ledger_overrun_ns_total"]
			srvE2E := srvSnap.Hists["server_stage_ledger_e2e_ns"]
			if srvE2E.Count == 0 {
				t.Fatal("servers never folded a request ledger")
			}
			if srvSum-srvOverrun != srvE2E.Sum {
				t.Fatalf("server identity broken: Σstages %d − overrun %d != e2e %d",
					srvSum, srvOverrun, srvE2E.Sum)
			}
		})
	}
}
