// Package kvlayer implements the paper's VFTL baseline (§5.1): a
// multi-version key-value store layered *on top of* a generic single-version
// FTL. It has its own lookup, request handling and garbage collection logic,
// separate from the FTL's — the two-step Key → LBA → physical translation
// that SEMEL's unified MFTL (internal/mvftl) collapses into one.
//
// Costs that differentiate it from MFTL in Table 1 are real here:
//
//   - two mapping structures (this layer's key map and the FTL's page map),
//   - two garbage collectors (this layer repacks versions across LBAs and
//     trims; the FTL relocates LBAs across blocks),
//   - 10% capacity reserved at *two* levels.
package kvlayer

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/ftl"
	"repro/internal/obs"
	"repro/internal/record"
)

// Errors returned by the store.
var (
	ErrNoSpace = errors.New("kvlayer: out of space")
	ErrEmpty   = errors.New("kvlayer: empty key")
)

const gcReserveLBAs = 2

// Stats counts store activity.
type Stats struct {
	Puts        int64
	Gets        int64
	Deletes     int64
	GCRelocated int64 // live records repacked by this layer's collector
	GCTrimmed   int64 // LBAs reclaimed by this layer's collector
}

// Options configures New.
type Options struct {
	// PackTimeout bounds the packing delay; 0 means 1 ms, negative
	// disables packing.
	PackTimeout time.Duration
	// OverProvision is the fraction of LBAs this layer reserves for its
	// own garbage collection; 0 means the paper's 10% (on top of the 10%
	// the FTL below already reserves).
	OverProvision float64
	// Packers is the number of parallel log heads; 0 means 4.
	Packers int
}

type version struct {
	ts        clock.Timestamp
	lba       int32
	off       int32
	tombstone bool
}

type keyEntry struct {
	versions []version // youngest first
}

// Store is the split multi-version KV layer. It is safe for concurrent use.
type Store struct {
	f       *ftl.FTL
	opt     Options
	packers []*record.Packer
	rr      atomic.Int64

	gcMu sync.Mutex

	mu        sync.Mutex
	unpinned  *sync.Cond
	mapping   map[string]*keyEntry
	written   []int // records written per LBA
	live      []int // records still referenced per LBA
	pins      []int // in-flight reads per LBA
	free      []int32
	watermark clock.Timestamp
	reserve   int
	totBytes  int64 // bytes of records ever flushed (occupancy estimation)
	totRecs   int64

	puts        atomic.Int64
	gets        atomic.Int64
	deletes     atomic.Int64
	gcRelocated atomic.Int64
	gcTrimmed   atomic.Int64
}

// New builds the KV layer over a fresh FTL.
func New(f *ftl.FTL, opt Options) (*Store, error) {
	if opt.PackTimeout == 0 {
		opt.PackTimeout = time.Millisecond
	}
	if opt.PackTimeout < 0 {
		opt.PackTimeout = 0
	}
	if opt.OverProvision <= 0 {
		opt.OverProvision = 0.10
	}
	if opt.Packers <= 0 {
		opt.Packers = 4
	}
	n := f.NumLBAs()
	reserve := int(float64(n) * opt.OverProvision)
	if reserve < gcReserveLBAs {
		reserve = gcReserveLBAs
	}
	if n <= reserve+opt.Packers {
		return nil, fmt.Errorf("kvlayer: FTL too small (%d LBAs, reserve %d)", n, reserve)
	}
	s := &Store{
		f:       f,
		opt:     opt,
		mapping: make(map[string]*keyEntry),
		written: make([]int, n),
		live:    make([]int, n),
		pins:    make([]int, n),
		reserve: reserve,
	}
	s.unpinned = sync.NewCond(&s.mu)
	for i := n - 1; i >= 0; i-- {
		s.free = append(s.free, int32(i))
	}
	s.packers = make([]*record.Packer, opt.Packers)
	for i := range s.packers {
		s.packers[i] = record.NewPacker(f.PageSize(), opt.PackTimeout, s.flushPage)
	}
	return s, nil
}

// Put makes a new durable version of key.
func (s *Store) Put(key, val []byte, ver clock.Timestamp) error {
	if err := s.write(record.Record{Key: key, Val: val, Ts: ver}); err != nil {
		return err
	}
	s.puts.Add(1)
	return nil
}

// Delete writes a tombstone version (see mvftl.Store.Delete for semantics).
func (s *Store) Delete(key []byte, ver clock.Timestamp) error {
	if err := s.write(record.Record{Key: key, Ts: ver, Tombstone: true}); err != nil {
		return err
	}
	s.deletes.Add(1)
	return nil
}

func (s *Store) write(rec record.Record) error {
	if len(rec.Key) == 0 {
		return ErrEmpty
	}
	s.mu.Lock()
	low := len(s.free) <= s.reserve
	s.mu.Unlock()
	if low {
		s.collect()
	}
	// A flush can race the collector into a transiently exhausted pool;
	// retry through collection before reporting the store full.
	var err error
	for attempt := 0; attempt < 4; attempt++ {
		idx := int(s.rr.Add(1)-1) % len(s.packers)
		err = s.packers[idx].Put(rec, false)
		if err == nil || !errors.Is(err, ErrNoSpace) {
			return err
		}
		s.collect()
	}
	return err
}

// Get returns the youngest version of key with timestamp ≤ at.
func (s *Store) Get(key []byte, at clock.Timestamp) (val []byte, ver clock.Timestamp, found bool, err error) {
	s.mu.Lock()
	e := s.mapping[string(key)]
	var v version
	ok := false
	if e != nil {
		for _, cand := range e.versions {
			if cand.ts.AtOrBefore(at) {
				v, ok = cand, true
				break
			}
		}
	}
	if !ok || v.tombstone {
		s.mu.Unlock()
		return nil, clock.Timestamp{}, false, nil
	}
	s.pins[v.lba]++
	s.mu.Unlock()

	val, err = s.readVersion(key, v)

	s.mu.Lock()
	s.pins[v.lba]--
	if s.pins[v.lba] == 0 {
		s.unpinned.Broadcast()
	}
	s.mu.Unlock()
	if err != nil {
		return nil, clock.Timestamp{}, false, err
	}
	s.gets.Add(1)
	return val, v.ts, true, nil
}

// Latest returns the youngest version of key.
func (s *Store) Latest(key []byte) ([]byte, clock.Timestamp, bool, error) {
	return s.Get(key, clock.Timestamp{Ticks: 1<<63 - 1, Client: ^uint32(0)})
}

// LatestVersion returns the youngest version stamp without media access.
func (s *Store) LatestVersion(key []byte) (ver clock.Timestamp, tombstone, found bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.mapping[string(key)]
	if e == nil || len(e.versions) == 0 {
		return clock.Timestamp{}, false, false
	}
	v := e.versions[0]
	return v.ts, v.tombstone, true
}

func (s *Store) readVersion(key []byte, v version) ([]byte, error) {
	page, err := s.f.ReadLBA(int(v.lba))
	if err != nil {
		return nil, err
	}
	if int(v.off) >= len(page) {
		return nil, fmt.Errorf("kvlayer: offset %d beyond page", v.off)
	}
	rec, _, err := record.Decode(page[v.off:])
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(rec.Key, key) || rec.Ts != v.ts {
		return nil, fmt.Errorf("kvlayer: mapping/media mismatch for key %q", key)
	}
	out := make([]byte, len(rec.Val))
	copy(out, rec.Val)
	return out, nil
}

// VersionCount reports the number of mapped versions of key.
func (s *Store) VersionCount(key []byte) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.mapping[string(key)]
	if e == nil {
		return 0
	}
	return len(e.versions)
}

// SetWatermark raises the retention watermark (monotone).
func (s *Store) SetWatermark(ts clock.Timestamp) {
	s.mu.Lock()
	if s.watermark.Before(ts) {
		s.watermark = ts
	}
	s.mu.Unlock()
}

// Flush forces out all partially packed pages.
func (s *Store) Flush() {
	for _, p := range s.packers {
		p.Flush()
	}
}

// Blocking is true: reads and writes wait on flash pages.
func (s *Store) Blocking() bool { return true }

// SetMetrics forwards the metrics registry to the underlying FTL (GC pause,
// free-pool gauge) and through it to the device (queue depth, wear).
func (s *Store) SetMetrics(reg *obs.Registry) { s.f.SetMetrics(reg) }

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	return Stats{
		Puts:        s.puts.Load(),
		Gets:        s.gets.Load(),
		Deletes:     s.deletes.Load(),
		GCRelocated: s.gcRelocated.Load(),
		GCTrimmed:   s.gcTrimmed.Load(),
	}
}

// flushPage writes a packed page to a fresh LBA and installs the batch.
func (s *Store) flushPage(page []byte, batch []*record.Pending) error {
	gcBatch := false
	for _, p := range batch {
		if p.GC {
			gcBatch = true
			break
		}
	}
	s.mu.Lock()
	if !gcBatch && len(s.free) <= gcReserveLBAs {
		s.mu.Unlock()
		return ErrNoSpace
	}
	if len(s.free) == 0 {
		s.mu.Unlock()
		return ErrNoSpace
	}
	lba := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	s.mu.Unlock()

	if err := s.f.WriteLBA(int(lba), page); err != nil {
		s.mu.Lock()
		s.free = append(s.free, lba)
		s.mu.Unlock()
		return err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.written[lba] += len(batch)
	for _, p := range batch {
		s.totBytes += int64(p.Len)
		s.totRecs++
		v := version{ts: p.Rec.Ts, lba: lba, off: int32(p.Off), tombstone: p.Rec.Tombstone}
		if p.GC {
			s.installRelocationLocked(string(p.Rec.Key), v)
		} else {
			s.installVersionLocked(string(p.Rec.Key), v)
		}
	}
	return nil
}

func (s *Store) installVersionLocked(key string, v version) {
	e := s.mapping[key]
	if e == nil {
		e = &keyEntry{}
		s.mapping[key] = e
	}
	pos := len(e.versions)
	for i, cur := range e.versions {
		c := v.ts.Compare(cur.ts)
		if c == 0 {
			return // idempotent duplicate
		}
		if c > 0 {
			pos = i
			break
		}
	}
	e.versions = append(e.versions, version{})
	copy(e.versions[pos+1:], e.versions[pos:])
	e.versions[pos] = v
	s.live[v.lba]++
	s.pruneLocked(key, e)
}

func (s *Store) installRelocationLocked(key string, v version) {
	e := s.mapping[key]
	if e == nil {
		return
	}
	for i := range e.versions {
		if e.versions[i].ts == v.ts {
			old := e.versions[i]
			if old.tombstone != v.tombstone {
				return
			}
			s.live[old.lba]--
			s.live[v.lba]++
			e.versions[i].lba = v.lba
			e.versions[i].off = v.off
			s.gcRelocated.Add(1)
			return
		}
	}
}

func (s *Store) pruneLocked(key string, e *keyEntry) {
	wm := s.watermark
	if wm.IsZero() {
		return
	}
	idx := -1
	for i, v := range e.versions {
		if v.ts.AtOrBefore(wm) {
			idx = i
			break
		}
	}
	if idx >= 0 && idx+1 < len(e.versions) {
		for _, v := range e.versions[idx+1:] {
			s.live[v.lba]--
		}
		e.versions = e.versions[:idx+1]
	}
	if len(e.versions) == 1 && e.versions[0].tombstone && e.versions[0].ts.AtOrBefore(wm) {
		s.live[e.versions[0].lba]--
		delete(s.mapping, key)
	}
}

// PruneAll applies the watermark rule to every key immediately.
func (s *Store) PruneAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, e := range s.mapping {
		s.pruneLocked(k, e)
	}
}

// collect is this layer's garbage collector: it repacks live records out of
// the LBA pages with the most garbage and trims the source LBAs, returning
// them to the free pool. The FTL below runs its *own* collector when these
// trims and rewrites churn physical blocks — the double-GC effect of §5.1.
func (s *Store) collect() {
	s.gcMu.Lock()
	defer s.gcMu.Unlock()
	for {
		s.mu.Lock()
		if len(s.free) > s.reserve {
			s.mu.Unlock()
			return
		}
		freeBefore := len(s.free)
		victim := s.pickVictimLocked()
		var batch []int32
		if victim < 0 {
			batch = s.pickCompactionBatchLocked()
		}
		s.mu.Unlock()
		switch {
		case victim >= 0:
			if !s.relocateAndTrim(int32(victim)) {
				return
			}
		case len(batch) > 0:
			s.compactBatch(batch)
			s.mu.Lock()
			progress := len(s.free) > freeBefore
			s.mu.Unlock()
			if !progress {
				return // compaction is not gaining ground; stop
			}
		default:
			return
		}
	}
}

// compactBatch repacks the live records of several under-filled pages in
// one concurrent burst (so they share output pages), then trims the
// sources.
func (s *Store) compactBatch(victims []int32) {
	var relocs []record.Record
	perVictim := make(map[int32]bool, len(victims))
	for _, v := range victims {
		page, err := s.f.ReadLBA(int(v))
		if err != nil {
			continue
		}
		perVictim[v] = true
		for _, pl := range record.DecodePage(page) {
			if !s.isLive(string(pl.Rec.Key), pl.Rec.Ts, v, int32(pl.Off)) {
				continue
			}
			relocs = append(relocs, record.Record{
				Key:       append([]byte(nil), pl.Rec.Key...),
				Val:       append([]byte(nil), pl.Rec.Val...),
				Ts:        pl.Rec.Ts,
				Tombstone: pl.Rec.Tombstone,
			})
		}
	}
	if !s.repack(relocs) {
		return
	}
	for _, v := range victims {
		if !perVictim[v] {
			continue
		}
		s.mu.Lock()
		if s.live[v] != 0 {
			s.mu.Unlock()
			continue
		}
		for s.pins[v] > 0 {
			s.unpinned.Wait()
		}
		s.written[v] = 0
		s.mu.Unlock()
		if err := s.f.TrimLBA(int(v)); err != nil {
			continue
		}
		s.gcTrimmed.Add(1)
		s.mu.Lock()
		s.free = append(s.free, v)
		s.mu.Unlock()
	}
}

func (s *Store) pickVictimLocked() int {
	victim, victimGarbage := -1, 0
	for lba := range s.written {
		if s.written[lba] == 0 {
			continue
		}
		g := s.written[lba] - s.live[lba]
		if g <= 0 {
			continue
		}
		if victim < 0 || g > victimGarbage {
			victim, victimGarbage = lba, g
		}
	}
	return victim
}

// pickCompactionBatchLocked selects a batch of under-filled pages to repack
// *together*: the packing timer flushes nearly empty pages under bursty or
// serial writers, and compacting one such page at a time gains nothing (one
// record in, one page out). A batch of them repacked concurrently shares
// output pages and reclaims space. Requires an enabled packer.
func (s *Store) pickCompactionBatchLocked() []int32 {
	if s.totRecs == 0 || s.opt.PackTimeout <= 0 {
		return nil
	}
	estPerPage := int(int64(s.f.PageSize()) / (s.totBytes / s.totRecs))
	if estPerPage < 2 {
		return nil
	}
	var batch []int32
	// Up to two output pages' worth of input pages per round.
	limit := 2 * estPerPage
	for lba := range s.written {
		if s.written[lba] == 0 || s.written[lba] > estPerPage/2 {
			continue
		}
		batch = append(batch, int32(lba))
		if len(batch) >= limit {
			break
		}
	}
	if len(batch) < 2 {
		return nil // a lone victim cannot gain space
	}
	return batch
}

func (s *Store) relocateAndTrim(victim int32) bool {
	page, err := s.f.ReadLBA(int(victim))
	if err != nil {
		// The page raced to fully dead and unmapped; still reclaimable.
		page = nil
	}
	var relocs []record.Record
	for _, pl := range record.DecodePage(page) {
		if !s.isLive(string(pl.Rec.Key), pl.Rec.Ts, victim, int32(pl.Off)) {
			continue
		}
		relocs = append(relocs, record.Record{
			Key:       append([]byte(nil), pl.Rec.Key...),
			Val:       append([]byte(nil), pl.Rec.Val...),
			Ts:        pl.Rec.Ts,
			Tombstone: pl.Rec.Tombstone,
		})
	}
	// Repack concurrently so the records share pages with each other and
	// with foreground puts instead of waiting out one packing timer each.
	if !s.repack(relocs) {
		return false
	}
	s.mu.Lock()
	if s.live[victim] != 0 {
		s.mu.Unlock()
		return false
	}
	for s.pins[victim] > 0 {
		s.unpinned.Wait()
	}
	s.written[victim] = 0
	s.mu.Unlock()
	if err := s.f.TrimLBA(int(victim)); err != nil {
		return false
	}
	s.gcTrimmed.Add(1)
	s.mu.Lock()
	s.free = append(s.free, victim)
	s.mu.Unlock()
	return true
}

// repack pushes relocated records through the packers concurrently.
func (s *Store) repack(relocs []record.Record) bool {
	if len(relocs) == 0 {
		return true
	}
	errs := make(chan error, len(relocs))
	for _, rec := range relocs {
		idx := int(s.rr.Add(1)-1) % len(s.packers)
		go func(idx int, rec record.Record) {
			errs <- s.packers[idx].Put(rec, true)
		}(idx, rec)
	}
	ok := true
	for range relocs {
		if err := <-errs; err != nil {
			ok = false
		}
	}
	return ok
}

func (s *Store) isLive(key string, ts clock.Timestamp, lba, off int32) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.mapping[key]
	if e == nil {
		return false
	}
	s.pruneLocked(key, e)
	if s.mapping[key] == nil {
		return false
	}
	for _, v := range e.versions {
		if v.ts == ts {
			return v.lba == lba && v.off == off
		}
	}
	return false
}

// FreeLBAs reports the size of this layer's free pool.
func (s *Store) FreeLBAs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.free)
}

// Dump streams every mapped version with timestamp > since, reading values
// from media (see mvftl.Store.Dump).
func (s *Store) Dump(since clock.Timestamp, fn func(key []byte, ver clock.Timestamp, val []byte, tombstone bool) error) error {
	type item struct {
		key       string
		ts        clock.Timestamp
		tombstone bool
	}
	s.mu.Lock()
	var items []item
	for k, e := range s.mapping {
		for _, v := range e.versions {
			if v.ts.After(since) {
				items = append(items, item{key: k, ts: v.ts, tombstone: v.tombstone})
			}
		}
	}
	s.mu.Unlock()
	for _, it := range items {
		if it.tombstone {
			if err := fn([]byte(it.key), it.ts, nil, true); err != nil {
				return err
			}
			continue
		}
		val, ver, found, err := s.Get([]byte(it.key), it.ts)
		if err != nil {
			return err
		}
		if !found || ver != it.ts {
			continue
		}
		if err := fn([]byte(it.key), ver, val, false); err != nil {
			return err
		}
	}
	return nil
}
