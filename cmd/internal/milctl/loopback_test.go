package milctl_test

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/cmd/internal/loadgen"
	"repro/cmd/internal/milctl"
	"repro/cmd/internal/semeld"
)

// freeAddrs reserves n loopback ports and releases them for the caller.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		l.Close()
	}
	return addrs
}

// TestLoopbackCluster starts a three-replica shard of in-process semelds
// (WAL, auditor and metrics endpoint on) and drives every milctl command and
// a short loadgen run against it over loopback TCP: each must succeed, and
// each replica view must print a row for every replica.
func TestLoopbackCluster(t *testing.T) {
	addrs := freeAddrs(t, 6)
	replicas, metrics := addrs[:3], addrs[3:]
	peers := strings.Join(replicas, ",")

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	t.Cleanup(func() {
		cancel()
		wg.Wait()
	})
	for r := range replicas {
		args := []string{
			"-listen", replicas[r], "-shard", "0", "-replica", strconv.Itoa(r), "-peers", peers,
			"-metrics", metrics[r], "-wal-dir", filepath.Join(t.TempDir(), "wal"),
			"-audit-sample", "1", "-tsdb-interval", "100ms",
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := semeld.Run(ctx, args, io.Discard); err != nil {
				t.Errorf("semeld %v: %v", args, err)
			}
		}()
	}
	for _, a := range append(replicas[:3:3], metrics...) {
		waitListening(t, a)
	}

	milctlRun := func(args ...string) string {
		t.Helper()
		var out bytes.Buffer
		if err := milctl.Run(ctx, append([]string{"-shards", peers}, args...), &out); err != nil {
			t.Fatalf("milctl %v: %v\n%s", args, err, out.String())
		}
		return out.String()
	}
	perReplica := func(cmd, out string, want ...string) {
		t.Helper()
		if strings.Contains(out, "unreachable") || strings.Contains(out, "error:") {
			t.Errorf("milctl %s:\n%s", cmd, out)
		}
		for _, addr := range replicas {
			row := lineWith(out, addr)
			if row == "" {
				t.Errorf("milctl %s printed no row for %s:\n%s", cmd, addr, out)
				continue
			}
			for _, w := range want {
				if !strings.Contains(row, w) {
					t.Errorf("milctl %s row for %s lacks %q: %s", cmd, addr, w, row)
				}
			}
		}
	}

	if out := milctlRun("put", "greeting", "hello"); !strings.HasPrefix(out, "ok") {
		t.Errorf("put: %s", out)
	}
	if out := milctlRun("get", "greeting"); !strings.HasPrefix(out, "hello") {
		t.Errorf("get: %s", out)
	}
	milctlRun("put", "scratch", "x")
	if out := milctlRun("del", "scratch"); !strings.HasPrefix(out, "ok") {
		t.Errorf("del: %s", out)
	}
	if out := milctlRun("-id", "2", "txn", "get", "greeting", "put", "counter", "1"); !strings.Contains(out, "committed") {
		t.Errorf("txn: %s", out)
	}
	out := milctlRun("-id", "3", "-trace", "txn", "get", "counter", "put", "counter", "2")
	m := regexp.MustCompile(`trace id ([0-9a-f]{16})`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("txn -trace printed no trace id:\n%s", out)
	}
	// The prepare replicates to both backups, so the stitched timeline names
	// every replica once the backup past the quorum has recorded its span.
	trace := milctlRun("trace", m[1])
	for deadline := time.Now().Add(2 * time.Second); lineWith(trace, replicas[1]) == "" || lineWith(trace, replicas[2]) == ""; {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
		trace = milctlRun("trace", m[1])
	}
	perReplica("trace", trace)
	stats := milctlRun("stats")
	perReplica("stats", stats, "shard 0")
	if row := lineWith(stats, replicas[0]); !strings.Contains(row, "primary") || !strings.Contains(row, "commits=2") {
		t.Errorf("stats row of the primary: %s", row)
	}
	perReplica("timehealth", milctlRun("timehealth"))
	perReplica("walstatus", milctlRun("walstatus"), " on ")
	perReplica("audit", milctlRun("audit"), "true")
	perReplica("history", milctlRun("history", "go_goroutines"))
	if out := milctlRun("-interval", "10ms", "-rounds", "1", "top"); !strings.Contains(out, "throughput:") {
		t.Errorf("top:\n%s", out)
	}

	var lg bytes.Buffer
	if err := loadgen.Run(ctx, []string{"-shards", peers, "-clients", "2", "-users", "50", "-duration", "1s"}, &lg); err != nil {
		t.Fatalf("loadgen: %v\n%s", err, lg.String())
	}
	if !strings.Contains(lg.String(), "committed:") {
		t.Errorf("loadgen:\n%s", lg.String())
	}

	if body := httpGet(t, "http://"+metrics[0]+"/metrics", http.StatusOK); !strings.Contains(body, "clock_offset_ns") {
		t.Errorf("/metrics lacks clock_offset_ns")
	}
	httpGet(t, "http://"+metrics[0]+"/debug/timehealth", http.StatusNotFound)
}

// lineWith returns the first line of out that contains s, or "".
func lineWith(out, s string) string {
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, s) {
			return line
		}
	}
	return ""
}

// waitListening waits until addr accepts TCP connections.
func waitListening(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			c.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never listened: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// httpGet fetches url, checks its status and returns the body.
func httpGet(t *testing.T, url string, status int) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != status {
		t.Errorf("GET %s: status %d, want %d", url, resp.StatusCode, status)
	}
	return string(body)
}
