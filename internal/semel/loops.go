package semel

import (
	"context"
	"time"

	"repro/internal/wire"
)

// startLoops launches lease renewal, the prepared-transaction sweep,
// anti-entropy and the gauge refresh; each body guards its own role.
func (s *Server) startLoops() {
	if s.opt.LeaseDuration > 0 {
		s.every(s.opt.LeaseDuration/4, s.renewLease)
	}
	s.every(s.opt.PreparedTimeout/2, s.sweepPrepared)
	if s.opt.AntiEntropyInterval > 0 {
		s.every(s.opt.AntiEntropyInterval, s.antiEntropyOnce)
	}
	s.every(time.Second, s.refreshGauges)
}

// every runs body once per period on its own goroutine until Close.
func (s *Server) every(period time.Duration, body func()) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				body()
			}
		}
	}()
}

// antiEntropyOnce runs on backups: inconsistent replication only waits for
// f of 2f backups, so a slow or crashed one can permanently lack
// acknowledged writes. It pulls from the current primary everything above
// the local watermark and applies it idempotently. The watermark is the only
// safe low bound: no client ever issues a new operation below it
// (§3.1/§4.4), while a max-seen-version cursor could skip lower-timestamped
// writes that are still in flight under inconsistent replication.
func (s *Server) antiEntropyOnce() {
	if s.IsPrimary() {
		return
	}
	rs, err := s.opt.Dir.Shard(s.opt.Shard)
	if err != nil || rs.Primary == s.opt.Addr {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.opt.AntiEntropyInterval)
	defer cancel()
	pull, ok := s.pullFrom(ctx, rs.Primary, s.wm.Watermark())
	if !ok {
		return
	}
	// The pull ran unlocked — during a failover the primary it waits on is
	// typically the one that is down, and a barrier must not wait that out.
	// Applying is what a barrier fences, like a replicated delivery: under a
	// shared hold of s.regime, and only while the regime pulled from is
	// still current.
	s.regime.RLock()
	defer s.regime.RUnlock()
	if cur, err := s.opt.Dir.Shard(s.opt.Shard); err != nil || cur.Epoch != rs.Epoch || cur.Primary != rs.Primary {
		return
	}
	s.applyPulledData(pull)
	// Only in-doubt (prepared) records matter here: committed data
	// already arrived through the version dump above, and replaying the
	// primary's entire decided-transaction history every tick would be
	// quadratic busywork.
	for _, rec := range pull.Txns {
		if rec.Status == wire.StatusPrepared {
			_ = s.mgr.Learn(ctx, rec)
		}
	}
}

// renewLease runs on the primary: it obtains a fresh read lease from a
// majority of the replica group (§4.5). A deposed primary cannot renew: it
// is no longer in the directory's group, and backups only grant leases to
// the replica the directory names primary.
func (s *Server) renewLease() {
	if !s.IsPrimary() {
		return
	}
	rs, err := s.opt.Dir.Shard(s.opt.Shard)
	if err != nil || rs.Primary != s.opt.Addr {
		return // not the primary anymore; the lease runs out
	}
	need := rs.F() // majority of the original group, counting ourselves
	expiry := s.opt.Clock.Now().Add(s.opt.LeaseDuration)
	if need > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), s.opt.LeaseDuration/2)
		defer cancel()
		grants := make(chan bool, len(rs.Backups))
		for _, peer := range rs.Backups {
			go func(peer string) {
				resp, err := s.opt.Net.Call(ctx, peer, wire.LeaseRequest{Primary: s.opt.Addr, Expiry: expiry})
				lr, ok := resp.(wire.LeaseResponse)
				grants <- err == nil && ok && lr.Granted
			}(peer)
		}
		got := 0
		for range rs.Backups {
			if <-grants {
				got++
			}
			if got >= need {
				break
			}
		}
		if got < need {
			return // keep the old lease; reads stop when it runs out
		}
	}
	s.mu.Lock()
	if expiry.After(s.leaseUntil) {
		s.leaseUntil = expiry
	}
	s.mu.Unlock()
}

// sweepPrepared runs on the primary: it terminates (CTP) every transaction
// prepared longer than PreparedTimeout.
func (s *Server) sweepPrepared() {
	if !s.IsPrimary() {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.opt.PreparedTimeout)
	defer cancel()
	s.mgr.SweepPrepared(ctx, s.opt.PreparedTimeout)
}
