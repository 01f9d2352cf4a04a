package semel

import (
	"context"
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/wire"
)

// handleRecoveryPull returns everything a new primary needs: this replica's
// transaction records, its data versions above the watermark, and the last
// lease it granted.
func (s *Server) handleRecoveryPull(_ context.Context, r wire.RecoveryPullRequest) (wire.RecoveryPullResponse, error) {
	s.regimeBarrier()
	resp := wire.RecoveryPullResponse{Txns: s.mgr.TableRecords()}
	s.mu.Lock()
	resp.LeaseExpiry = s.granted
	s.mu.Unlock()
	var err error
	if resp.Data, err = s.dumpData(r.Since); err != nil {
		return wire.RecoveryPullResponse{}, err
	}
	return resp, nil
}

// pullFrom fetches peer's recovery state above since; ok is false when the
// peer did not answer. Nothing is applied: the caller decides whether the
// pull is still current.
func (s *Server) pullFrom(ctx context.Context, peer string, since clock.Timestamp) (pull wire.RecoveryPullResponse, ok bool) {
	resp, err := s.opt.Net.Call(ctx, peer, wire.RecoveryPullRequest{Since: since})
	if pull, ok = resp.(wire.RecoveryPullResponse); err != nil || !ok {
		return pull, false
	}
	return pull, true
}

// applyPulledData applies a pull's data versions (idempotently: they are
// version-stamped).
func (s *Server) applyPulledData(pull wire.RecoveryPullResponse) {
	for _, op := range pull.Data {
		_ = s.applyDataOp(op)
	}
}

// regimeBarrier waits until every delivery from the old primary that this
// replica has already admitted has been applied. The directory names the new
// primary before any recovery pull or promotion starts, so deliveries that
// arrive after the barrier fail handleReplicated's epoch check: state read
// after it is final for the old regime. Without it, a prepare that passed
// the check just before the failover could land in the table after the new
// primary's pull had read it — acknowledged to the old primary, which votes
// YES on it, yet unknown to the new one, which then validates a conflicting
// write straight through it.
func (s *Server) regimeBarrier() {
	s.regime.Lock()
	s.regime.Unlock()
}

// Promote turns this backup into the shard's primary: pull state from the
// surviving replicas, merge data versions (their order is reconstructed
// from version stamps), merge transaction tables (Algorithm 2), wait out
// the old primary's read lease, and start serving. The directory must
// already name this server as the new primary.
func (s *Server) Promote(ctx context.Context) error {
	if cur, err := s.opt.Dir.Primary(s.opt.Shard); err != nil || cur != s.opt.Addr {
		return fmt.Errorf("semel: directory does not name %s primary (have %s, %v)", s.opt.Addr, cur, err)
	}
	rs, err := s.opt.Dir.Shard(s.opt.Shard)
	if err != nil {
		return err
	}
	s.regimeBarrier()
	since := s.wm.Watermark()
	var pulledTxns [][]wire.TxnRecord
	s.mu.Lock()
	maxLease := s.granted
	s.mu.Unlock()
	reached := 0
	for _, peer := range rs.Backups {
		if peer == s.opt.Addr {
			continue
		}
		pull, ok := s.pullFrom(ctx, peer, since)
		if !ok {
			continue // peer down; a majority may still be reachable
		}
		s.applyPulledData(pull)
		reached++
		pulledTxns = append(pulledTxns, pull.Txns)
		if pull.LeaseExpiry.After(maxLease) {
			maxLease = pull.LeaseExpiry
		}
	}
	// A new primary needs f+1 replicas (including itself) to guarantee it
	// sees every acknowledged operation (§4.5).
	if reached+1 < rs.F()+1 {
		return fmt.Errorf("semel: only %d replicas reachable, need %d", reached+1, rs.F()+1)
	}
	if err := s.mgr.MergeRecovered(ctx, pulledTxns); err != nil {
		return err
	}
	s.mgr.ArmPrepared()
	// Wait for the local clock to pass the old primary's lease so no
	// stale read can be contradicted (§4.5).
	for s.opt.LeaseDuration > 0 && !s.opt.Clock.Now().After(maxLease) {
		wait := maxLease.Sub(s.opt.Clock.Now())
		if wait <= 0 {
			break
		}
		if wait > 50*time.Millisecond {
			wait = 50 * time.Millisecond
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(wait):
		}
	}
	s.mu.Lock()
	s.primary = true
	if s.opt.LeaseDuration > 0 {
		s.leaseUntil = s.opt.Clock.Now().Add(s.opt.LeaseDuration)
	}
	s.mu.Unlock()
	return nil
}
