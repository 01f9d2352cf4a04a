package semel

import (
	"context"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Spans exposes the server's span ring (trace collection and tests).
func (s *Server) Spans() *obs.SpanStore { return s.spans }

// Watermark reports the replica's current replication watermark (the
// auditor's truncation source and the audit/timehealth reports read it).
func (s *Server) Watermark() clock.Timestamp { return s.wm.Watermark() }

// handleStats reports the replica's operation counters and, when Detailed,
// a full registry snapshot.
func (s *Server) handleStats(_ context.Context, r wire.StatsRequest) (wire.StatsResponse, error) {
	resp := wire.StatsResponse{
		Addr:      s.opt.Addr,
		Shard:     int(s.opt.Shard),
		Primary:   s.IsPrimary(),
		Gets:      s.stats.gets.Load(),
		Puts:      s.stats.puts.Load(),
		Deletes:   s.stats.deletes.Load(),
		Prepares:  s.stats.prepares.Load(),
		Commits:   s.stats.commits.Load(),
		Aborts:    s.stats.aborts.Load(),
		ReplOps:   s.stats.replOps.Load(),
		Watermark: s.wm.Watermark(),
	}
	if r.Detailed {
		resp.Obs = s.reg.Snapshot()
	}
	return resp, nil
}

// handleTrace returns this replica's spans of one trace, with the clock
// health the collector needs to align them.
func (s *Server) handleTrace(_ context.Context, r wire.TraceRequest) (wire.TraceResponse, error) {
	return wire.TraceResponse{
		Addr:  s.opt.Addr,
		Spans: s.spans.ForTrace(r.TraceID),
		Clock: s.clockHealth(),
	}, nil
}

func (s *Server) handleTimeHealth(context.Context, wire.TimeHealthRequest) (wire.TimeHealthResponse, error) {
	return s.TimeHealth(), nil
}

// handleTSDB answers from the embedded time-series store, if any.
func (s *Server) handleTSDB(_ context.Context, r wire.TSDBRequest) (wire.TSDBResponse, error) {
	if s.opt.TSDB == nil {
		return wire.TSDBResponse{Addr: s.opt.Addr}, nil
	}
	return wire.TSDBResponse{
		Addr:       s.opt.Addr,
		IntervalNs: int64(s.opt.TSDB.Interval()),
		Series:     s.opt.TSDB.Query(r.Patterns, r.LastN),
	}, nil
}

// handleAudit reports the attached auditor's state; with no auditor the
// response reads Enabled=false.
func (s *Server) handleAudit(context.Context, wire.AuditRequest) (wire.AuditResponse, error) {
	sum := s.opt.Auditor.Stats()
	return wire.AuditResponse{
		Addr:              s.opt.Addr,
		Enabled:           sum.Enabled,
		Profile:           sum.Profile,
		Pending:           sum.Pending,
		UnknownRetained:   sum.UnknownRetained,
		WindowsChecked:    sum.WindowsChecked,
		WindowsSkipped:    sum.WindowsSkipped,
		Convictions:       sum.Convictions,
		EpsilonViolations: sum.EpsilonViolations,
		LastCut:           sum.LastCut,
		Artifacts:         s.opt.Auditor.ArtifactsJSON(),
	}, nil
}

// handleWALStatus reports the log's position and the last recovery replay.
func (s *Server) handleWALStatus(context.Context, wire.WALStatusRequest) (wire.WALStatusResponse, error) {
	resp := wire.WALStatusResponse{
		Addr:          s.opt.Addr,
		ReplayRecords: s.replayRecords,
		ReplayNs:      s.replayNs,
	}
	if s.opt.Log == nil {
		return resp, nil
	}
	st := s.opt.Log.Stats()
	resp.Enabled = true
	resp.AppendedLSN = st.AppendedLSN
	resp.DurableLSN = st.DurableLSN
	resp.CheckpointLSN = st.CheckpointLSN
	resp.Segments = st.Segments
	resp.Bytes = st.Bytes
	resp.Fsyncs = st.Fsyncs
	return resp, nil
}

// clockHealth reports the local clock's sync state; clocks that cannot
// report (no HealthReporter) read as perfectly synchronized.
func (s *Server) clockHealth() clock.Health {
	if hr, ok := s.opt.Clock.(clock.HealthReporter); ok {
		return hr.Health()
	}
	return clock.Health{}
}

// TimeHealth builds this node's time-health report and refreshes the
// corresponding gauges, so /metrics and /debug/timehealth agree (a loop
// also refreshes them every second for scrapes).
func (s *Server) TimeHealth() wire.TimeHealthResponse {
	h := s.clockHealth()
	now := s.opt.Clock.Now()
	wm := s.wm.Watermark()
	resp := wire.TimeHealthResponse{
		Addr:      s.opt.Addr,
		Shard:     int(s.opt.Shard),
		Primary:   s.IsPrimary(),
		Clock:     h,
		Now:       now,
		Watermark: wm,
	}
	if !wm.IsZero() {
		resp.WatermarkLagNs = now.Ticks - wm.Ticks
	}
	s.om.clockOffset.Set(h.OffsetNs)
	s.om.clockDrift.Set(h.DriftNs)
	s.om.clockUncertainty.Set(h.UncertaintyNs)
	s.om.clockSinceSync.Set(h.SinceSyncNs)
	s.om.watermarkLag.Set(resp.WatermarkLagNs)
	return resp
}
