package exp

import (
	"context"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/transport"
)

var quick = Config{Quick: true, Seed: 42}

func transportModel() transport.LatencyModel {
	return transport.LatencyModel{OneWay: 50 * time.Microsecond, Jitter: 10 * time.Microsecond}
}

func clockNTP() clock.Profile { return clock.NTP }

func TestRunTable1Quick(t *testing.T) {
	rows, err := RunTable1(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 { // 4 GET ratios × 2 stores
		t.Fatalf("%d rows, want 8", len(rows))
	}
	for _, r := range rows {
		if r.KReqPerSec <= 0 {
			t.Fatalf("%s@%d%%: zero throughput", r.Store, r.GetPct)
		}
		if r.GetPct < 100 && r.AvgPutLatency <= 0 {
			t.Fatalf("%s@%d%%: no put latency", r.Store, r.GetPct)
		}
		if r.GetPct > 0 && r.AvgGetLatency <= 0 {
			t.Fatalf("%s@%d%%: no get latency", r.Store, r.GetPct)
		}
	}
	out := RenderTable1(rows)
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "100") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestRunFigure1Quick(t *testing.T) {
	rows, err := RunFigure1(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	// The defining property of Figure 1: a skew far above the write
	// latency forces a far higher rejection rate than zero skew.
	zero, skewed := rows[0], rows[1]
	if zero.Epsilon != 0 || skewed.Epsilon != 2*time.Millisecond {
		t.Fatalf("unexpected sweep: %v %v", zero.Epsilon, skewed.Epsilon)
	}
	t.Logf("2 ms skew: rejection %.3f over %d attempts; zero skew: %.3f over %d",
		skewed.RejectionRate, skewed.Attempts, zero.RejectionRate, zero.Attempts)
	if skewed.Attempts < 50 {
		t.Fatalf("2 ms skew row made %d attempts, too few to judge its rejection rate", skewed.Attempts)
	}
	if !(skewed.RejectionRate > zero.RejectionRate) {
		t.Fatalf("skewed rejection %.3f not above zero-skew %.3f", skewed.RejectionRate, zero.RejectionRate)
	}
	if skewed.RejectionRate < 0.3 {
		t.Fatalf("2 ms skew with 400 µs write period should reject most attempts, got %.3f", skewed.RejectionRate)
	}
	_ = RenderFigure1(rows)
}

func TestRunFigure6Quick(t *testing.T) {
	rows, err := RunFigure6(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 { // SFTL + MFTL at one (α, clients) point
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.AbortRate < 0 || r.AbortRate > 1 {
			t.Fatalf("abort rate %v out of range", r.AbortRate)
		}
	}
	_ = RenderFigure6(rows)
}

func TestRunFigure7Quick(t *testing.T) {
	rows, err := RunFigure7(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // 2 profiles × 2 backends × 1 α
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.AbortRate < 0 || r.AbortRate > 1 {
			t.Fatalf("abort rate %v out of range", r.AbortRate)
		}
	}
	_ = RenderFigure7(rows)
}

func TestRunFigure8Quick(t *testing.T) {
	rows, err := RunFigure8(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 { // 1 backend × {LV on, off} × 1 client count
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.ThroughputTPS <= 0 || r.AvgLatency <= 0 {
			t.Fatalf("empty row %+v", r)
		}
	}
	_ = RenderFigure8(rows)
}

func TestRunFigure9Quick(t *testing.T) {
	rows, err := RunFigure9(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 { // MILANA + Centiman at one α
		t.Fatalf("%d rows", len(rows))
	}
	var milanaLV, centimanLV float64
	for _, r := range rows {
		if r.ThroughputTPS <= 0 {
			t.Fatalf("empty row %+v", r)
		}
		switch r.System {
		case "MILANA":
			milanaLV = r.LocalValidatedPct
		case "Centiman":
			centimanLV = r.LocalValidatedPct
		}
	}
	if milanaLV != 100 {
		t.Fatalf("MILANA local validation = %.1f%%, want 100%%", milanaLV)
	}
	// Under α=0.8 contention with a lagging watermark, Centiman cannot
	// locally validate everything.
	if centimanLV >= 100 {
		t.Fatalf("Centiman local validation = %.1f%%, expected < 100%%", centimanLV)
	}
	_ = RenderFigure9(rows)
}

func TestRunSkewAblationQuick(t *testing.T) {
	rows, err := RunSkewAblation(context.Background(), quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.AbortRate < 0 || r.AbortRate > 1 || r.ThroughputTPS <= 0 {
			t.Fatalf("bad row %+v", r)
		}
	}
	t.Logf("perfect clocks: %d aborts, %.1f%% skew-attributed", rows[1].Aborts, rows[1].SkewAbortPct)
	if rows[1].Profile != "perfect" || rows[1].SkewAbortPct > 50 {
		t.Fatalf("perfect clocks show high skew-attributed aborts: %+v", rows[1])
	}
	_ = RenderSkewAblation(rows)
}

func TestCSVConverters(t *testing.T) {
	dir := t.TempDir()
	h, rows := Table1CSV([]Table1Row{{GetPct: 75, Store: "MFTL", KReqPerSec: 4.2}})
	if err := WriteCSV(dir, "table1", h, rows); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dir + "/table1.csv")
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.Contains(s, "get_pct,store") || !strings.Contains(s, "75,MFTL,4.2000") {
		t.Fatalf("csv = %q", s)
	}
	// The remaining converters produce aligned headers/rows.
	checks := []struct {
		header []string
		rows   [][]string
	}{}
	add := func(h []string, r [][]string) {
		checks = append(checks, struct {
			header []string
			rows   [][]string
		}{h, r})
	}
	add(Figure1CSV([]Fig1Row{{Epsilon: time.Millisecond, RejectionRate: 0.5}}))
	add(Figure6CSV([]Fig6Row{{Backend: "SFTL", Alpha: 0.6, Clients: 4, AbortRate: 0.1}}))
	add(Figure7CSV([]Fig7Row{{Profile: "NTP", Backend: "DRAM", Alpha: 0.8, AbortRate: 0.5}}))
	add(Figure8CSV([]Fig8Row{{Backend: "MFTL", LocalValidation: true, Clients: 8, ThroughputTPS: 100}}))
	add(Figure9CSV([]Fig9Row{{System: "MILANA", Alpha: 0.4, ThroughputTPS: 50}}))
	add(AblationCSV([]AblationRow{{Profile: "DTP", MeanSkew: 150}}))
	for i, c := range checks {
		if len(c.rows) != 1 || len(c.rows[0]) != len(c.header) {
			t.Fatalf("converter %d: header/row mismatch: %v vs %v", i, c.header, c.rows)
		}
	}
}

func TestConfigDilation(t *testing.T) {
	full := Config{}
	if full.dilation() != 25 {
		t.Fatalf("default dilation = %v", full.dilation())
	}
	if quick.dilation() != 1 {
		t.Fatalf("quick dilation = %v", quick.dilation())
	}
	override := Config{TimeDilation: 3}
	if override.dilation() != 3 || override.dilate(time.Millisecond) != 3*time.Millisecond {
		t.Fatal("override dilation broken")
	}
	lm := override.latency(transportModel())
	if lm.OneWay != 150*time.Microsecond || lm.Jitter != 30*time.Microsecond {
		t.Fatalf("latency dilation = %+v", lm)
	}
	ft := full.flashTiming()
	if ft.TimeScale != 25 || ft.PageRead != 50*time.Microsecond {
		t.Fatalf("flash timing = %+v", ft)
	}
	p := full.clockProfile(clockNTP())
	if p.MeanAbsOffset != 25*1510*time.Microsecond {
		t.Fatalf("profile dilation = %v", p.MeanAbsOffset)
	}
	if got := disseminateEvery(full); got != 40 {
		t.Fatalf("disseminateEvery = %d", got)
	}
	if got := disseminateEvery(Config{TimeDilation: 5000}); got != 1 {
		t.Fatalf("disseminateEvery floor = %d", got)
	}
}
