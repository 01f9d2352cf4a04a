package semel

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/storage"
	"repro/internal/wire"
)

// TestRouteTable pins every request type Serve answers to its span name,
// its semel_serve_ns{op=...} label ("" = untimed) and its admission class,
// and checks the table has a handler for each.
func TestRouteTable(t *testing.T) {
	dir, err := cluster.New([]cluster.ReplicaSet{{Primary: "p", Backups: []string{"b1", "b2"}}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(ServerOptions{
		Addr: "p", Shard: 0, Primary: true, LeaseDuration: -1, AntiEntropyInterval: -1,
		Backend: storage.NewDRAM(), Net: newBatchNet(nil), Dir: dir,
		Clock: clock.NewPerfect(clock.NewSystemSource(), 1000),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const (
		control = resilience.PriControl
		prepare = resilience.PriPrepare
		read    = resilience.PriRead
	)
	cases := []struct {
		req      any
		name, op string
		pri      resilience.Priority
	}{
		{wire.Replicated{}, "", "", control},
		{wire.GetRequest{}, "get", "get", read},
		{wire.MultiGetRequest{}, "multiget", "multiget", read},
		{wire.PutRequest{}, "put", "put", read},
		{wire.DeleteRequest{}, "delete", "delete", read},
		{wire.ReplicateData{}, "", "replicate-data", control},
		{wire.WatermarkBroadcast{}, "", "", control},
		{wire.PrepareRequest{}, "prepare", "prepare", prepare},
		{wire.DecisionRequest{}, "decision", "decision", control},
		{wire.StatusRequest{}, "status", "status", control},
		{wire.ReplicatePrepare{}, "replicate-prepare", "", control},
		{wire.ReplicateDecision{}, "replicate-decision", "", control},
		{wire.LeaseRequest{}, "", "", control},
		{wire.StatsRequest{}, "", "", control},
		{wire.TraceRequest{}, "", "", control},
		{wire.TSDBRequest{}, "", "", control},
		{wire.AuditRequest{}, "", "", control},
		{wire.RecoveryPullRequest{}, "", "", control},
	}
	seen := make(map[*route]bool)
	for _, c := range cases {
		rt := s.routes.of(c.req)
		if rt == nil {
			t.Fatalf("%T has no route", c.req)
		}
		seen[rt] = true
		var hist *obs.Histogram
		if c.op != "" {
			hist = s.reg.Histogram(`semel_serve_ns{op="` + c.op + `"}`)
		}
		if rt.name != c.name || rt.hist != hist || rt.pri != c.pri {
			t.Errorf("%T routes as name=%q pri=%v; want name=%q op=%q pri=%v", c.req, rt.name, rt.pri, c.name, c.op, c.pri)
		}
		if rt.serve == nil {
			t.Errorf("%T has no handler", c.req)
		}
		if got := routeNames.of(c.req).name; got != c.name {
			t.Errorf("semel.Client would name %T %q, want %q", c.req, got, c.name)
		}
	}
	if n := reflect.TypeOf(routes{}).NumField(); len(seen) != n {
		t.Fatalf("the cases reach %d of the table's %d routes", len(seen), n)
	}
	for _, req := range []any{struct{ X int }{1}, nil} {
		if _, err := s.Serve(context.Background(), req); err == nil || !strings.Contains(err.Error(), "unknown request type") {
			t.Fatalf("Serve(%T) = %v, want an unknown-request-type error", req, err)
		}
	}
}
