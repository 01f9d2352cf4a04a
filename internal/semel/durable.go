package semel

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"repro/internal/clock"
	"repro/internal/wal"
	"repro/internal/wire"
)

// logRecord makes one acknowledged state change durable: it encodes msg
// with the frozen wire codec, appends it to the WAL, and waits for the
// fsync (group commit batches concurrent callers into one). Call it AFTER
// the state change has been applied and BEFORE acknowledging the caller —
// that order keeps the checkpoint invariant (state gathered after reading
// DurableLSN is a superset of every durable record) and replay idempotent
// (version-stamped writes and the replication handlers tolerate replaying
// an operation the state already holds). A nil Log makes this a no-op.
func (s *Server) logRecord(msg any) error {
	if s.opt.Log == nil {
		return nil
	}
	payload, err := wire.Codec.Append(nil, msg)
	if err != nil {
		return fmt.Errorf("semel: encoding WAL record %T: %w", msg, err)
	}
	if s.walSkipSync.Load() {
		_, err = s.opt.Log.Append(payload) // mutation: ack without durability
	} else {
		_, err = s.opt.Log.AppendSync(payload)
	}
	if err != nil {
		return fmt.Errorf("semel: WAL append: %w", err)
	}
	if every := s.opt.CheckpointEvery; every > 0 && s.walSinceCkpt.Add(1) >= int64(every) {
		s.triggerCheckpoint()
	}
	return nil
}

// triggerCheckpoint starts one background checkpoint unless one is already
// running. The counter resets up front so a slow checkpoint is not
// re-triggered by every append that lands during it.
func (s *Server) triggerCheckpoint() {
	if !s.walCkptBusy.CompareAndSwap(false, true) {
		return
	}
	s.walSinceCkpt.Store(0)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer s.walCkptBusy.Store(false)
		if err := s.CheckpointWAL(); err != nil && !errors.Is(err, wal.ErrClosed) {
			log.Printf("semel: %s: checkpoint failed: %v", s.opt.Addr, err)
		}
	}()
}

// CheckpointWAL writes a checkpoint covering everything durable right now
// and lets the log GC the segments below it. The order is load-bearing:
// DurableLSN is read FIRST, state gathered after — since every record is
// applied to state before it is appended (see logRecord), state gathered
// now reflects at least every record at or below that LSN, so dropping
// those segments loses nothing.
func (s *Server) CheckpointWAL() error {
	if s.opt.Log == nil {
		return nil
	}
	durable := s.opt.Log.DurableLSN()
	ck := wire.WALCheckpoint{
		Watermark: s.wm.Watermark(),
		Txns:      s.mgr.TableRecords(),
	}
	if rs, err := s.opt.Dir.Shard(s.opt.Shard); err == nil {
		ck.Epoch = rs.Epoch
		ck.LeasePrimary = rs.Primary
	}
	s.mu.Lock()
	ck.LeaseExpiry = s.granted
	s.mu.Unlock()
	var err error
	if ck.Data, err = s.dumpData(clock.Timestamp{}); err != nil {
		return err
	}
	payload, err := wire.Codec.Append(nil, ck)
	if err != nil {
		return err
	}
	return s.opt.Log.InstallCheckpoint(durable, payload)
}

// recoverFromWAL rebuilds the replica from its log: decode and apply the
// checkpoint (full data image, transaction table, lease grant, watermark),
// then replay every record above it. Transaction records take the same path
// as a live backup delivery, Manager.Learn, which re-applies a committed
// write set whichever of its prepare and decision is replayed last; prepared
// marks are armed afterwards, and only if this replica starts as primary
// (see NewServer). Decisions terminated by CTP on a peer, or decided
// while this replica was dead, are NOT here — the sweeper and anti-entropy
// re-converge those. Finally the manager's read floor rises to the local
// clock's now: pre-crash reads (all at timestamps ≤ the crash instant)
// were tracked only in DRAM, so post-restart validations must assume every
// key was read as late as the restart.
func (s *Server) recoverFromWAL() error {
	start := time.Now()
	ctx := context.Background()
	var records int64
	if _, payload, ok := s.opt.Log.Checkpoint(); ok {
		msg, err := wire.Codec.Decode(payload)
		if err != nil {
			return fmt.Errorf("decoding checkpoint: %w", err)
		}
		ck, okType := msg.(wire.WALCheckpoint)
		if !okType {
			return fmt.Errorf("checkpoint holds %T, want wire.WALCheckpoint", msg)
		}
		for _, op := range ck.Data {
			if err := s.applyDataOp(op); err != nil {
				return err
			}
		}
		for _, rec := range ck.Txns {
			if err := s.mgr.Learn(ctx, rec); err != nil {
				return err
			}
		}
		s.granted = ck.LeaseExpiry
		if !ck.Watermark.IsZero() {
			// The backend prunes by the tracker's watermark, so both rise to
			// the checkpoint's; the tracker's client reports refill from live
			// clients (a recovered report would pin the minimum).
			s.wm.Raise(ck.Watermark)
			s.opt.Backend.SetWatermark(ck.Watermark)
		}
	}
	err := s.opt.Log.Replay(func(_ uint64, payload []byte) error {
		msg, err := wire.Codec.Decode(payload)
		if err != nil {
			return fmt.Errorf("decoding WAL record: %w", err)
		}
		records++
		switch r := msg.(type) {
		case wire.ReplicateData:
			for _, op := range r.Ops {
				if err := s.applyDataOp(op); err != nil {
					return err
				}
			}
		case wire.ReplicatePrepare:
			return s.mgr.Learn(ctx, r.Record)
		case wire.ReplicateDecision:
			return s.mgr.Learn(ctx, r.Record())
		case wire.LeaseRequest:
			if r.Expiry.After(s.granted) {
				s.granted = r.Expiry
			}
		default:
			return fmt.Errorf("unexpected WAL record type %T", msg)
		}
		return nil
	})
	if err != nil {
		return err
	}
	s.mgr.SetRecoveryFloor(s.opt.Clock.Now())
	s.reg.Gauge("recovery_replay_records").Set(records)
	s.reg.Gauge("recovery_replay_ns").Set(int64(time.Since(start)))
	return nil
}

// dumpData collects every version the backend holds above since, in the
// shape replication ships them.
func (s *Server) dumpData(since clock.Timestamp) ([]wire.DataOp, error) {
	var ops []wire.DataOp
	err := s.opt.Backend.Dump(since, func(key []byte, ver clock.Timestamp, val []byte, tombstone bool) error {
		ops = append(ops, wire.DataOp{Key: key, Val: val, Version: ver, Tombstone: tombstone})
		return nil
	})
	return ops, err
}

// MutateSkipWALFsync deliberately breaks the durability contract by
// acknowledging operations whose WAL records were appended but never
// fsynced — exactly the bug class the crash harness must convict (an
// amnesia-kill then loses acknowledged writes). Never set outside tests.
func (s *Server) MutateSkipWALFsync(skip bool) {
	s.walSkipSync.Store(skip)
}
