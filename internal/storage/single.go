package storage

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/ftl"
	"repro/internal/obs"
	"repro/internal/record"
)

// svStripes is the number of metadata shards. Writes and reads on keys in
// different stripes never share a lock, so one slow flash program cannot
// stall unrelated keys.
const svStripes = 64

// svStripe is one metadata shard: the key→LBA table and version cache for
// the keys that hash here, plus per-key in-flight write tracking.
type svStripe struct {
	mu      sync.Mutex
	done    *sync.Cond            // signalled when a write finishes
	lbas    map[string]int        // key -> owned LBA
	latest  map[string]memVersion // ts + tombstone cache (value lives on flash)
	writing map[string]bool       // keys with a flash program in flight
}

// SingleVersion is a key-value store over the generic single-version FTL —
// the "SFTL" configuration of Figure 6. Each key owns one logical block;
// every put overwrites it in place (the FTL remaps physically). Because only
// the newest version exists, a Get at a snapshot older than the current
// version fails with ErrSnapshotUnavailable, which forces the transaction
// layer to abort tardy read-only transactions — exactly the effect the
// multi-version FTLs eliminate.
//
// Metadata is striped svStripes ways and never held across flash I/O:
// writers publish the new version, release the stripe, program the page,
// then mark the write complete (or roll the metadata back on error). Writes
// to the *same* key serialize on the in-flight marker so programs cannot
// land on media out of version order; everything else proceeds in parallel
// across the device's channels.
type SingleVersion struct {
	f       *ftl.FTL
	stripes [svStripes]svStripe

	allocMu  sync.Mutex
	freeLBAs []int

	metrics atomic.Pointer[svMetrics]
}

// svMetrics feeds the striped store's contention observability.
type svMetrics struct {
	stripeWaits *obs.Counter // same-key waits behind an in-flight program
	inflight    *obs.Gauge   // programs currently in flight
}

// NewSingleVersion builds the store over a fresh FTL.
func NewSingleVersion(f *ftl.FTL) *SingleVersion {
	s := &SingleVersion{f: f}
	for i := range s.stripes {
		st := &s.stripes[i]
		st.done = sync.NewCond(&st.mu)
		st.lbas = make(map[string]int)
		st.latest = make(map[string]memVersion)
		st.writing = make(map[string]bool)
	}
	for i := f.NumLBAs() - 1; i >= 0; i-- {
		s.freeLBAs = append(s.freeLBAs, i)
	}
	return s
}

var _ Backend = (*SingleVersion)(nil)

func (s *SingleVersion) stripe(key []byte) *svStripe {
	h := fnv.New32a()
	h.Write(key)
	return &s.stripes[h.Sum32()%svStripes]
}

func (s *SingleVersion) allocLBA() (int, bool) {
	s.allocMu.Lock()
	defer s.allocMu.Unlock()
	if len(s.freeLBAs) == 0 {
		return 0, false
	}
	lba := s.freeLBAs[len(s.freeLBAs)-1]
	s.freeLBAs = s.freeLBAs[:len(s.freeLBAs)-1]
	return lba, true
}

func (s *SingleVersion) freeLBA(lba int) {
	s.allocMu.Lock()
	s.freeLBAs = append(s.freeLBAs, lba)
	s.allocMu.Unlock()
}

// Put overwrites the key's single version. A put with a version stamp at or
// before the current version is rejected as stale by SEMEL's linearizable
// RPC rule (§3.3); here it is an idempotent no-op so inconsistent
// replication can deliver duplicates safely — ordering enforcement happens
// in the SEMEL server.
func (s *SingleVersion) Put(key, val []byte, ver clock.Timestamp) error {
	return s.write(key, val, ver, false)
}

// Delete overwrites the key with a tombstone.
func (s *SingleVersion) Delete(key []byte, ver clock.Timestamp) error {
	return s.write(key, nil, ver, true)
}

func (s *SingleVersion) write(key, val []byte, ver clock.Timestamp, tombstone bool) error {
	if len(key) == 0 {
		return fmt.Errorf("storage: empty key")
	}
	st := s.stripe(key)
	k := string(key)
	st.mu.Lock()
	// One program per key at a time: a second write to the same key must
	// wait, or the two programs could land on media out of version order
	// and leave a stale record under newer metadata.
	for st.writing[k] {
		s.noteWait()
		st.done.Wait()
	}
	cur, had := st.latest[k]
	if had && !ver.After(cur.ts) {
		st.mu.Unlock()
		return nil // stale or duplicate: single-version keeps the youngest
	}
	lba, hadLBA := st.lbas[k]
	if !hadLBA {
		var ok bool
		if lba, ok = s.allocLBA(); !ok {
			st.mu.Unlock()
			return fmt.Errorf("storage: single-version store full")
		}
		st.lbas[k] = lba
	}
	st.latest[k] = memVersion{ts: ver, tombstone: tombstone}
	st.writing[k] = true
	st.mu.Unlock()

	if m := s.metrics.Load(); m != nil {
		m.inflight.Add(1)
	}
	rec := record.Record{Key: key, Val: val, Ts: ver, Tombstone: tombstone}
	err := s.f.WriteLBA(lba, rec.Encode(nil))
	if m := s.metrics.Load(); m != nil {
		m.inflight.Add(-1)
	}

	st.mu.Lock()
	delete(st.writing, k)
	if err != nil {
		// The program never reached media; roll the metadata back so
		// readers cannot observe a version that does not exist.
		if had {
			st.latest[k] = cur
		} else {
			delete(st.latest, k)
			delete(st.lbas, k)
			s.freeLBA(lba)
		}
	}
	st.done.Broadcast()
	st.mu.Unlock()
	return err
}

// Get returns the single version if its timestamp is ≤ at; if the version
// is younger than the requested snapshot, the snapshot is gone and
// ErrSnapshotUnavailable is returned.
func (s *SingleVersion) Get(key []byte, at clock.Timestamp) ([]byte, clock.Timestamp, bool, error) {
	st := s.stripe(key)
	k := string(key)
	for attempt := 0; ; attempt++ {
		st.mu.Lock()
		// Wait out an in-flight program of this key (metadata already
		// names the new version, media may not hold it yet). Other keys
		// in the stripe only contend for the map lookups, never the I/O.
		for st.writing[k] {
			s.noteWait()
			st.done.Wait()
		}
		cur, ok := st.latest[k]
		lba := st.lbas[k]
		st.mu.Unlock()
		if !ok {
			return nil, clock.Timestamp{}, false, nil
		}
		if cur.ts.After(at) {
			return nil, clock.Timestamp{}, false, ErrSnapshotUnavailable
		}
		if cur.tombstone {
			return nil, clock.Timestamp{}, false, nil
		}
		page, err := s.f.ReadLBA(lba)
		if err != nil {
			return nil, clock.Timestamp{}, false, err
		}
		rec, _, err := record.Decode(page)
		if err != nil {
			return nil, clock.Timestamp{}, false, err
		}
		if !bytes.Equal(rec.Key, key) {
			return nil, clock.Timestamp{}, false, fmt.Errorf("storage: media mismatch for key %q", key)
		}
		if rec.Ts != cur.ts {
			// A concurrent overwrite landed between our metadata read and
			// the page read; the version we validated no longer exists.
			if attempt < 3 {
				continue
			}
			return nil, clock.Timestamp{}, false, ErrSnapshotUnavailable
		}
		out := make([]byte, len(rec.Val))
		copy(out, rec.Val)
		return out, rec.Ts, true, nil
	}
}

// Latest returns the single current version.
func (s *SingleVersion) Latest(key []byte) ([]byte, clock.Timestamp, bool, error) {
	return s.Get(key, clock.Timestamp{Ticks: 1<<63 - 1, Client: ^uint32(0)})
}

// LatestVersion returns the current version stamp.
func (s *SingleVersion) LatestVersion(key []byte) (clock.Timestamp, bool, bool) {
	st := s.stripe(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	cur, ok := st.latest[string(key)]
	if !ok {
		return clock.Timestamp{}, false, false
	}
	return cur.ts, cur.tombstone, true
}

// SetWatermark is a no-op: a single-version store retains nothing older
// than the current version anyway.
func (s *SingleVersion) SetWatermark(clock.Timestamp) {}

// Flush is a no-op: writes are synchronous.
func (s *SingleVersion) Flush() {}

// Blocking is true: reads and writes wait on flash pages.
func (s *SingleVersion) Blocking() bool { return true }

// SetMetrics forwards the metrics registry to the underlying FTL and device
// and enables the store's own contention metrics: storage_stripe_wait_total
// counts reads/writes that had to wait behind an in-flight program of the
// same key, storage_inflight_writes gauges concurrent programs.
func (s *SingleVersion) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		s.metrics.Store(nil)
	} else {
		s.metrics.Store(&svMetrics{
			stripeWaits: reg.Counter("storage_stripe_wait_total"),
			inflight:    reg.Gauge("storage_inflight_writes"),
		})
	}
	s.f.SetMetrics(reg)
}

func (s *SingleVersion) noteWait() {
	if m := s.metrics.Load(); m != nil {
		m.stripeWaits.Inc()
	}
}

// Dump streams the single retained version of each key with timestamp >
// since.
func (s *SingleVersion) Dump(since clock.Timestamp, fn func(key []byte, ver clock.Timestamp, val []byte, tombstone bool) error) error {
	type item struct {
		key string
		v   memVersion
	}
	var items []item
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		for k, v := range st.latest {
			if v.ts.After(since) {
				items = append(items, item{key: k, v: v})
			}
		}
		st.mu.Unlock()
	}
	for _, it := range items {
		if it.v.tombstone {
			if err := fn([]byte(it.key), it.v.ts, nil, true); err != nil {
				return err
			}
			continue
		}
		val, ver, found, err := s.Get([]byte(it.key), it.v.ts)
		if err != nil || !found {
			continue // overwritten since the snapshot; newer dump entry covers it
		}
		if err := fn([]byte(it.key), ver, val, false); err != nil {
			return err
		}
	}
	return nil
}
