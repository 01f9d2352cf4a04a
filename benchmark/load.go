package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/check"
	"repro/internal/flash"
	"repro/internal/milana"
	"repro/internal/mvftl"
	"repro/internal/retwis"
	"repro/internal/wal"
	"repro/internal/wire"
)

// sample is one finished RunTransaction call that started inside the
// measured window.
type sample struct {
	start, end int64 // ns since the window opened
	readOnly   bool
	failed     bool
}

// counters is a snapshot of everything the layers count about themselves
// through their public Stats calls, plus the process's own accounting.
type counters struct {
	milana  milana.Stats
	flash   flash.Stats
	mvftl   mvftl.Stats
	wal     wal.Stats // AppendedLSN, Bytes and Fsyncs summed over replicas
	mallocs uint64
	gcPause time.Duration
	cpu     time.Duration
}

func (d *deployment) counters() counters {
	var c counters
	for _, cl := range d.clients {
		s := cl.Stats()
		c.milana.Committed += s.Committed
		c.milana.Aborted += s.Aborted
		c.milana.LocalValidated += s.LocalValidated
		c.milana.ReadOnly += s.ReadOnly
		for i, n := range s.AbortsByReason {
			c.milana.AbortsByReason[i] += n
		}
	}
	for _, r := range d.replicas {
		if r.device != nil {
			s := r.device.Stats()
			c.flash.Reads += s.Reads
			c.flash.Programs += s.Programs
			c.flash.Erases += s.Erases
		}
		if r.store != nil {
			s := r.store.Stats()
			c.mvftl.Puts += s.Puts
			c.mvftl.GCRelocated += s.GCRelocated
			c.mvftl.GCErased += s.GCErased
		}
		if r.log != nil {
			s := r.log.Stats()
			c.wal.AppendedLSN += s.AppendedLSN
			c.wal.Bytes += s.Bytes
			c.wal.Fsyncs += s.Fsyncs
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c.mallocs = m.Mallocs
	c.gcPause = time.Duration(m.PauseTotalNs)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return c
}

// sessionState is what one session remembers for the correctness checks.
type sessionState struct {
	samples    []sample
	errs       map[string]int      // every RunTransaction error, by class
	written    map[string][]byte   // this session's last committed value per key
	maybe      map[string][][]byte // values of transactions whose outcome it never learned
	lastWrites []retwis.KV         // write set of its last committed read-write transaction
}

// loadResult is one driven window.
type loadResult struct {
	seconds       int
	sessions      []*sessionState
	before, after counters
	history       *check.History // traced pass only
}

func classifyErr(err error) string {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, milana.ErrUnknown):
		return "unknown-outcome"
	default:
		return "error"
	}
}

// execute runs one Retwis specification inside a transaction: GetTimeline
// reads its keys in one round trip per shard, the read-write types read and
// buffer their writes key by key.
func execute(ctx context.Context, t *milana.Txn, spec retwis.TxnSpec) error {
	if spec.ReadOnly() && len(spec.Reads) > 1 {
		keys := make([][]byte, len(spec.Reads))
		for i, k := range spec.Reads {
			keys[i] = []byte(k)
		}
		_, err := t.GetMany(ctx, keys)
		return err
	}
	return retwis.Execute(ctx, t, spec)
}

// drive runs the closed loop: every session generates a specification,
// runs it to completion under the per-transaction deadline, and only then
// generates the next. Sessions start together, run through the warm-up, and
// stop generating when the measured window closes. With a tracer, recording
// is on for exactly the measured window and every finished attempt lands in
// a check.History.
func drive(ctx context.Context, d *deployment, w workload, seed int64, warm time.Duration, seconds int, tr *tracer) *loadResult {
	res := &loadResult{seconds: seconds}
	if tr != nil {
		res.history = check.NewHistory()
	}
	for _, cl := range d.clients {
		res.sessions = append(res.sessions, &sessionState{
			errs:    map[string]int{},
			written: map[string][]byte{},
			maybe:   map[string][][]byte{},
		})
		cl.SetHistory(res.history) // a nil history attaches nothing
	}
	opened := time.Now().Add(warm)
	closed := opened.Add(time.Duration(seconds) * time.Second)

	var wg sync.WaitGroup
	for i := range d.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, st, rec := d.clients[i], res.sessions[i], tr.session(i)
			gen := retwis.NewGenerator(retwis.Options{
				Users:         users,
				Alpha:         w.Alpha,
				ValueSize:     w.ValueSize,
				Seed:          seed + int64(i)*7919,
				FreshUserBase: users + i*10_000_000,
			})
			// A session that stops reports its last decided transaction,
			// so the replicas' anti-entropy has nothing left to re-send.
			defer cl.BroadcastWatermark(ctx)
			for finished := 1; ; finished++ {
				start := time.Now()
				if !start.Before(closed) {
					return
				}
				spec := gen.Next()
				tctx, cancel := context.WithTimeout(ctx, txnDeadline)
				rec.beginRoot(spec.ReadOnly())
				err := cl.RunTransaction(tctx, func(t *milana.Txn) error {
					rec.beginAttempt(t)
					err := execute(tctx, t, spec)
					rec.endExecute()
					return err
				})
				rec.endRoot(err == nil)
				end := time.Now()
				cancel()
				switch {
				case err != nil:
					st.errs[classifyErr(err)]++
					for _, kv := range spec.Writes {
						st.maybe[kv.Key] = append(st.maybe[kv.Key], kv.Val)
					}
				case !spec.ReadOnly():
					for _, kv := range spec.Writes {
						st.written[kv.Key] = kv.Val
					}
					st.lastWrites = spec.Writes
				}
				if !start.Before(opened) {
					st.samples = append(st.samples, sample{
						start:    int64(start.Sub(opened)),
						end:      int64(end.Sub(opened)),
						readOnly: spec.ReadOnly(),
						failed:   err != nil,
					})
				}
				if finished%watermarkEvery == 0 {
					cl.BroadcastWatermark(ctx)
				}
			}
		}(i)
	}

	time.Sleep(time.Until(opened))
	res.before = d.counters()
	if tr != nil {
		tr.on.Store(true)
	}
	time.Sleep(time.Until(closed))
	res.after = d.counters()
	if tr != nil {
		tr.closedAt = tr.now()
	}
	wg.Wait()
	return res
}

// ---- correctness ----

// verify runs the checks that need the live cluster and returns one line
// per violation.
func verify(ctx context.Context, d *deployment, w workload, res *loadResult) []string {
	var bad []string

	// 1. Every session's last committed write set, read back in a fresh
	// read-only transaction, holds for each key a value some session wrote
	// to it last (sessions share timelines and follower lists, so the final
	// writer of a key need not be the session that is asking).
	var sampled []string
	for i, st := range res.sessions {
		if len(st.lastWrites) == 0 {
			bad = append(bad, fmt.Sprintf("session %d committed no read-write transaction", i))
			continue
		}
		keys := make([][]byte, len(st.lastWrites))
		for j, kv := range st.lastWrites {
			keys[j] = []byte(kv.Key)
			sampled = append(sampled, kv.Key)
		}
		var got map[string][]byte
		rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		err := d.clients[i].RunTransaction(rctx, func(t *milana.Txn) (err error) {
			got, err = t.GetMany(rctx, keys)
			return err
		})
		cancel()
		if err != nil {
			bad = append(bad, fmt.Sprintf("session %d read-back failed: %v", i, err))
			continue
		}
		for _, kv := range st.lastWrites {
			if !res.plausible(kv.Key, got[kv.Key]) {
				bad = append(bad, fmt.Sprintf("session %d read back %q = %.16q, which no session wrote last", i, kv.Key, got[kv.Key]))
			}
		}
	}

	// 2. After quiesce, primary and backups agree on the latest version of
	// a sample of keys: the ones just read back plus a stride through the
	// population. Decisions and the sends beyond the f-ack quorum finish in
	// the background, so agreement is polled for, with a limit.
	for u := 0; u < users; u += 40 {
		sampled = append(sampled, retwis.TimelineKey(u), retwis.FollowersKey(u))
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		diverged := d.divergent(sampled)
		if diverged == "" {
			break
		}
		if time.Now().After(deadline) {
			bad = append(bad, "replicas disagree after quiesce: "+diverged)
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	// 3. The traced pass's history is serializable. The population was
	// written outside any transaction; the checker needs a writer for every
	// version read, so each populated key enters the history as a
	// one-write transaction committed at the version set-up gave it.
	if res.history != nil {
		txns := res.history.Txns()
		for k, key := range retwis.PopulationKeys(users) {
			ver := d.population[k]
			txns = append(txns, check.Txn{
				ID:    wire.TxnID{Client: populatorID, Seq: uint64(k + 1)},
				Begin: ver, Commit: ver, Writes: []string{key}, Outcome: check.Committed,
			})
		}
		if rep := check.Serializability(txns); !rep.Serializable {
			bad = append(bad, rep.String())
		}
	}

	// 4. The flash device is sized so that garbage collection never starts;
	// a run in which it did measures something else.
	if w.MFTL {
		if gc := res.after.mvftl; gc.GCRelocated != 0 || gc.GCErased != 0 {
			bad = append(bad, fmt.Sprintf("garbage collection ran (relocated %d, erased %d)", gc.GCRelocated, gc.GCErased))
		}
	}
	return bad
}

// plausible reports whether val is some session's last committed value of
// key, or the value of a transaction whose outcome its session never
// learned (which cooperative termination may have committed).
func (r *loadResult) plausible(key string, val []byte) bool {
	for _, st := range r.sessions {
		if v, ok := st.written[key]; ok && bytes.Equal(v, val) {
			return true
		}
		for _, v := range st.maybe[key] {
			if bytes.Equal(v, val) {
				return true
			}
		}
	}
	return false
}

// divergent names the first sampled key whose latest version differs
// between the replicas of its shard, or "" when they all agree.
func (d *deployment) divergent(keys []string) string {
	for _, k := range keys {
		shard := int(d.dir.ShardFor([]byte(k)))
		reps := d.replicas[shard*replicas : (shard+1)*replicas]
		pval, pver, pfound, err := reps[0].server.Backend().Latest([]byte(k))
		if err != nil {
			return fmt.Sprintf("%s: %v", k, err)
		}
		for _, r := range reps[1:] {
			val, ver, found, err := r.server.Backend().Latest([]byte(k))
			if err != nil {
				return fmt.Sprintf("%s on %s: %v", k, r.addr, err)
			}
			if found != pfound || ver != pver || !bytes.Equal(val, pval) {
				return fmt.Sprintf("%s: %s has %v, %s has %v", k, reps[0].addr, pver, r.addr, ver)
			}
		}
	}
	return ""
}
