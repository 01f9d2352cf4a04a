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
// auditor's truncation source).
func (s *Server) Watermark() clock.Timestamp { return s.wm.Watermark() }

// handleStats answers with the replica's registry snapshot, its sampled
// gauges refreshed first.
func (s *Server) handleStats(context.Context, wire.StatsRequest) (wire.StatsResponse, error) {
	s.refreshGauges()
	return wire.StatsResponse{Addr: s.opt.Addr, Obs: s.reg.Snapshot()}, nil
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

// handleAudit returns the attached auditor's retained artifacts (none
// without an auditor); its counters are audit_* series in the registry.
func (s *Server) handleAudit(context.Context, wire.AuditRequest) (wire.AuditResponse, error) {
	return wire.AuditResponse{Addr: s.opt.Addr, Artifacts: s.opt.Auditor.ArtifactsJSON()}, nil
}

// clockHealth reports the local clock's sync state; clocks that cannot
// report (no HealthReporter) read as perfectly synchronized.
func (s *Server) clockHealth() clock.Health {
	if hr, ok := s.opt.Clock.(clock.HealthReporter); ok {
		return hr.Health()
	}
	return clock.Health{}
}

// refreshGauges sets the gauges that sample state rather than count events
// — clock health, watermark and its lag, role, the WAL's appended position —
// so a snapshot reads them current. The 1 s loop runs it for scrapes, and
// handleStats before it snapshots.
func (s *Server) refreshGauges() {
	h := s.clockHealth()
	s.om.clockOffset.Set(h.OffsetNs)
	s.om.clockResidual.Set(h.ResidualNs)
	s.om.clockDrift.Set(h.DriftNs)
	s.om.clockUncertainty.Set(h.UncertaintyNs)
	s.om.clockSinceSync.Set(h.SinceSyncNs)
	var lag int64
	if wm := s.wm.Watermark(); !wm.IsZero() {
		s.om.watermarkTs.SetMax(wm.Ticks)
		lag = s.opt.Clock.Now().Ticks - wm.Ticks
	}
	s.om.watermarkLag.Set(lag)
	var primary int64
	if s.IsPrimary() {
		primary = 1
	}
	s.om.primary.Set(primary)
	if s.om.walAppended != nil {
		s.om.walAppended.Set(int64(s.opt.Log.Stats().AppendedLSN))
	}
}
