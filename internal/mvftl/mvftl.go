// Package mvftl implements SEMEL's unified multi-version FTL — "MFTL" in
// the paper's evaluation and Contribution 3 (§3.1). It maps each key
// *directly* to physical flash locations (one translation step instead of
// the two of a KV store layered on a generic FTL), keeps every key's
// versions as a timestamp-descending list, packs small key-value records
// into pages with a bounded packing delay (§5), and integrates version
// management with FTL garbage collection: the collector consults the
// watermark (§3.1) and keeps only the youngest version at or below it.
//
// Records carry their key and version stamp on media, so the mapping table
// can be rebuilt by a full-device scan after a crash (Recover).
package mvftl

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/flash"
	"repro/internal/obs"
	"repro/internal/record"
)

// Errors returned by the store.
var (
	ErrNoSpace = errors.New("mvftl: out of space (no garbage to collect)")
	ErrEmpty   = errors.New("mvftl: empty key")
)

const gcReserveBlocks = 2

// Block lifecycle states.
const (
	stateFree = iota
	stateFrontier
	stateSealed
)

// Stats counts store activity. GCRelocated counts live records moved by the
// collector ("remapped data" in Table 1's terms).
type Stats struct {
	Puts        int64
	Gets        int64
	Deletes     int64
	GCRelocated int64
	GCErased    int64
}

// Options configures New.
type Options struct {
	// PackTimeout bounds how long a record may wait to share a page with
	// others; 0 means the paper's 1 ms. Negative disables packing.
	PackTimeout time.Duration
	// OverProvision is the capacity fraction reserved for remapping;
	// 0 means the paper's 10%.
	OverProvision float64
	// Packers is the number of parallel write frontiers; 0 means one per
	// flash channel.
	Packers int
}

func (o *Options) applyDefaults(geo flash.Geometry) {
	if o.PackTimeout == 0 {
		o.PackTimeout = time.Millisecond
	}
	if o.PackTimeout < 0 {
		o.PackTimeout = 0 // record.Packer: flush every Put
	}
	if o.OverProvision <= 0 {
		o.OverProvision = 0.10
	}
	if o.Packers <= 0 {
		o.Packers = geo.Channels
	}
}

// version locates one version of a key on flash.
type version struct {
	ts        clock.Timestamp
	ppn       int32
	off       int32
	tombstone bool
}

// keyEntry is the mapping-table entry: a version list sorted youngest
// first, exactly the linked list of Figure 3.
type keyEntry struct {
	versions []version
}

type frontier struct {
	block int
	next  int
}

// Store is the unified multi-version FTL. It is safe for concurrent use.
type Store struct {
	dev     *flash.Device
	geo     flash.Geometry
	opt     Options
	packers []*record.Packer
	rr      atomic.Int64

	gcMu sync.Mutex // serializes garbage collection

	// mu is a reader/writer lock over the mapping table and block
	// bookkeeping: snapshot reads on different keys only share-lock it, so
	// concurrent gets fan out across the device's channels instead of
	// convoying on a single mutex. Mutators (page installs, GC, pruning)
	// take it exclusively.
	mu        sync.RWMutex
	mapping   map[string]*keyEntry
	state     []int8
	written   []int // records ever packed into the block since erase
	live      []int // records still referenced by the mapping
	free      []int
	fronts    []frontier
	watermark clock.Timestamp
	liveTotal int
	totBytes  int64 // bytes of records ever flushed (occupancy estimation)
	totRecs   int64

	// pins counts in-flight device reads per block, under its own small
	// lock so readers holding only mu.RLock can still pin. A reader pins
	// while it holds the read lock; the collector decides a block is dead
	// under the exclusive lock (no reader can be mid-lookup then, and a
	// dead block is unreachable from the mapping, so no new pin can
	// arrive) and then waits for the survivors to drain.
	pinMu    sync.Mutex
	pins     []int
	unpinned *sync.Cond // on pinMu

	puts        atomic.Int64
	gets        atomic.Int64
	deletes     atomic.Int64
	gcRelocated atomic.Int64
	gcErased    atomic.Int64

	metrics atomic.Pointer[storeMetrics]
}

// storeMetrics feeds the store's observability registry: GC pause wall time,
// free-pool size, and records moved by the collector.
type storeMetrics struct {
	gcPause     *obs.Histogram
	freeBlocks  *obs.Gauge
	gcRelocated *obs.Counter
}

// SetMetrics attaches a metrics registry and forwards it to the underlying
// device. The store then feeds mvftl_gc_pause_ns, the mvftl_free_blocks
// gauge, and mvftl_gc_relocated_total. Pass nil to detach.
func (s *Store) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		s.metrics.Store(nil)
		s.dev.SetMetrics(nil)
		return
	}
	s.metrics.Store(&storeMetrics{
		gcPause:     reg.Histogram("mvftl_gc_pause_ns"),
		freeBlocks:  reg.Gauge("mvftl_free_blocks"),
		gcRelocated: reg.Counter("mvftl_gc_relocated_total"),
	})
	s.dev.SetMetrics(reg)
}

// noteFreeBlocks publishes the free-pool size; callers hold mu.
func (s *Store) noteFreeBlocks() {
	if m := s.metrics.Load(); m != nil {
		m.freeBlocks.Set(int64(len(s.free)))
	}
}

// New builds the store over a fresh (fully erased) device.
func New(dev *flash.Device, opt Options) (*Store, error) {
	s, err := newStore(dev, opt)
	if err != nil {
		return nil, err
	}
	for b := 0; b < s.geo.Blocks(); b++ {
		s.free = append(s.free, b)
	}
	return s, nil
}

func newStore(dev *flash.Device, opt Options) (*Store, error) {
	geo := dev.Geometry()
	opt.applyDefaults(geo)
	spareBlocks := opt.Packers + gcReserveBlocks + 2
	if geo.Blocks() <= spareBlocks {
		return nil, fmt.Errorf("mvftl: geometry too small (%d blocks, need > %d)", geo.Blocks(), spareBlocks)
	}
	s := &Store{
		dev:     dev,
		geo:     geo,
		opt:     opt,
		mapping: make(map[string]*keyEntry),
		state:   make([]int8, geo.Blocks()),
		written: make([]int, geo.Blocks()),
		live:    make([]int, geo.Blocks()),
		pins:    make([]int, geo.Blocks()),
		fronts:  make([]frontier, opt.Packers),
	}
	s.unpinned = sync.NewCond(&s.pinMu)
	for i := range s.fronts {
		s.fronts[i].block = -1
	}
	s.packers = make([]*record.Packer, opt.Packers)
	for i := range s.packers {
		i := i
		s.packers[i] = record.NewPacker(geo.PageSize, opt.PackTimeout,
			func(page []byte, batch []*record.Pending) error { return s.flushPage(i, page, batch) })
	}
	return s, nil
}

// Put makes a new durable version of key. It returns once the version is on
// media and visible to reads.
func (s *Store) Put(key, val []byte, ver clock.Timestamp) error {
	return s.write(record.Record{Key: key, Val: val, Ts: ver})
}

// Delete writes a tombstone version: reads at or after ver observe the key
// as absent, while snapshot reads before ver still see old versions until
// the watermark passes. (If a crash intervenes after the tombstone's block
// is erased but before all older blocks are, recovery may briefly resurrect
// pre-delete versions; SEMEL's layers above tolerate this because deletes
// are not used in consistency-critical paths.)
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
	s.mu.RLock()
	lowPool := len(s.free) <= gcReserveBlocks
	s.mu.RUnlock()
	if lowPool {
		s.collect()
	}
	// A flush can race the collector into a transiently empty pool;
	// retry through collection before reporting the device full.
	var err error
	for attempt := 0; attempt < 4; attempt++ {
		idx := int(s.rr.Add(1)-1) % len(s.packers)
		err = s.packers[idx].Put(rec, false)
		if err == nil {
			if !rec.Tombstone {
				s.puts.Add(1)
			}
			return nil
		}
		if !errors.Is(err, ErrNoSpace) {
			return err
		}
		s.collect()
	}
	return err
}

// Get returns the youngest version of key with timestamp at or before `at`
// (§3: "return a version with timestamp ≤ t_current").
func (s *Store) Get(key []byte, at clock.Timestamp) (val []byte, ver clock.Timestamp, found bool, err error) {
	s.mu.RLock()
	e := s.mapping[string(key)]
	var v version
	ok := false
	if e != nil {
		for _, cand := range e.versions { // youngest first
			if cand.ts.AtOrBefore(at) {
				v, ok = cand, true
				break
			}
		}
	}
	if !ok || v.tombstone {
		s.mu.RUnlock()
		return nil, clock.Timestamp{}, false, nil
	}
	blk := int(v.ppn) / s.geo.PagesPerBlock
	// Pin before dropping the read lock: the collector only frees a block
	// while holding mu exclusively, so it cannot observe pins==0 between
	// our lookup and this increment.
	s.pinMu.Lock()
	s.pins[blk]++
	s.pinMu.Unlock()
	s.mu.RUnlock()

	val, err = s.readVersion(key, v)

	s.pinMu.Lock()
	s.pins[blk]--
	if s.pins[blk] == 0 {
		s.unpinned.Broadcast()
	}
	s.pinMu.Unlock()
	if err != nil {
		return nil, clock.Timestamp{}, false, err
	}
	s.gets.Add(1)
	return val, v.ts, true, nil
}

// Latest returns the youngest version of key.
func (s *Store) Latest(key []byte) (val []byte, ver clock.Timestamp, found bool, err error) {
	return s.Get(key, clock.Timestamp{Ticks: 1<<63 - 1, Client: ^uint32(0)})
}

// LatestVersion returns the version stamp of the youngest version (including
// tombstones) without reading the value from media.
func (s *Store) LatestVersion(key []byte) (ver clock.Timestamp, tombstone, found bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e := s.mapping[string(key)]
	if e == nil || len(e.versions) == 0 {
		return clock.Timestamp{}, false, false
	}
	v := e.versions[0]
	return v.ts, v.tombstone, true
}

func (s *Store) readVersion(key []byte, v version) ([]byte, error) {
	addr := flash.PageAddr{Block: int(v.ppn) / s.geo.PagesPerBlock, Page: int(v.ppn) % s.geo.PagesPerBlock}
	page, err := s.dev.ReadPage(addr)
	if err != nil {
		return nil, err
	}
	if int(v.off) >= len(page) {
		return nil, fmt.Errorf("mvftl: version offset %d beyond page", v.off)
	}
	rec, _, err := record.Decode(page[v.off:])
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(rec.Key, key) || rec.Ts != v.ts {
		return nil, fmt.Errorf("mvftl: mapping/media mismatch for key %q", key)
	}
	out := make([]byte, len(rec.Val))
	copy(out, rec.Val)
	return out, nil
}

// VersionCount reports how many versions of key the mapping currently holds
// (after lazy pruning); used by tests and instrumentation.
func (s *Store) VersionCount(key []byte) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e := s.mapping[string(key)]
	if e == nil {
		return 0
	}
	return len(e.versions)
}

// SetWatermark raises the GC watermark (§3.1): for each key, only the
// youngest version at or below the watermark — plus everything younger —
// must be retained. Lower watermarks are ignored.
func (s *Store) SetWatermark(ts clock.Timestamp) {
	s.mu.Lock()
	if s.watermark.Before(ts) {
		s.watermark = ts
	}
	s.mu.Unlock()
}

// Watermark returns the current GC watermark.
func (s *Store) Watermark() clock.Timestamp {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.watermark
}

// Flush forces out all partially packed pages.
func (s *Store) Flush() {
	for _, p := range s.packers {
		p.Flush()
	}
}

// Blocking is true: reads and writes wait on flash pages.
func (s *Store) Blocking() bool { return true }

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	return Stats{
		Puts:        s.puts.Load(),
		Gets:        s.gets.Load(),
		Deletes:     s.deletes.Load(),
		GCRelocated: s.gcRelocated.Load(),
		GCErased:    s.gcErased.Load(),
	}
}

// flushPage is the packer callback: program the packed page, then install
// every record in the mapping table.
func (s *Store) flushPage(frontierIdx int, page []byte, batch []*record.Pending) error {
	gcBatch := false
	for _, p := range batch {
		if p.GC {
			gcBatch = true
			break
		}
	}
	blk, pg, err := s.allocPage(frontierIdx, gcBatch)
	if err != nil {
		return err
	}
	if err := s.dev.ProgramPage(flash.PageAddr{Block: blk, Page: pg}, page); err != nil {
		return err
	}
	ppn := int32(blk*s.geo.PagesPerBlock + pg)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.written[blk] += len(batch)
	for _, p := range batch {
		s.totBytes += int64(p.Len)
		s.totRecs++
		v := version{ts: p.Rec.Ts, ppn: ppn, off: int32(p.Off), tombstone: p.Rec.Tombstone}
		if p.GC {
			s.installRelocationLocked(string(p.Rec.Key), v)
		} else {
			s.installVersionLocked(string(p.Rec.Key), v)
		}
	}
	return nil
}

// allocPage hands out the next page of a write frontier, refilling the
// frontier from the free pool. Batches containing GC relocations may take
// the last free block; host batches must leave it for the collector.
func (s *Store) allocPage(frontierIdx int, allowLast bool) (blk, page int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := &s.fronts[frontierIdx]
	for f.block < 0 || f.next >= s.geo.PagesPerBlock {
		if f.block >= 0 {
			s.state[f.block] = stateSealed
			f.block = -1
		}
		if !allowLast && len(s.free) <= 1 {
			return 0, 0, ErrNoSpace
		}
		b, ok := s.takeFreeLocked()
		if !ok {
			return 0, 0, ErrNoSpace
		}
		*f = frontier{block: b, next: 0}
		s.state[b] = stateFrontier
	}
	blk, page = f.block, f.next
	f.next++
	return blk, page, nil
}

// takeFreeLocked removes the least-worn block from the free pool.
func (s *Store) takeFreeLocked() (int, bool) {
	best, bestIdx := -1, -1
	var bestWear int64
	for i, b := range s.free {
		w, _ := s.dev.Wear(b)
		if best < 0 || w < bestWear {
			best, bestIdx, bestWear = b, i, w
		}
	}
	if best < 0 {
		return 0, false
	}
	s.free[bestIdx] = s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	s.noteFreeBlocks()
	return best, true
}

// installVersionLocked inserts v into key's version list (youngest first).
// A duplicate timestamp (an idempotent retransmission) leaves the list
// unchanged; the new media copy simply becomes garbage.
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
			return // duplicate
		}
		if c > 0 {
			pos = i
			break
		}
	}
	e.versions = append(e.versions, version{})
	copy(e.versions[pos+1:], e.versions[pos:])
	e.versions[pos] = v
	blk := int(v.ppn) / s.geo.PagesPerBlock
	s.live[blk]++
	s.liveTotal++
	s.pruneLocked(key, e)
}

// installRelocationLocked repoints an existing version at its relocated
// media copy. If the version was pruned while the copy was in flight, the
// new copy is garbage and nothing changes.
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
			s.live[int(old.ppn)/s.geo.PagesPerBlock]--
			s.live[int(v.ppn)/s.geo.PagesPerBlock]++
			e.versions[i].ppn = v.ppn
			e.versions[i].off = v.off
			s.gcRelocated.Add(1)
			if m := s.metrics.Load(); m != nil {
				m.gcRelocated.Inc()
			}
			return
		}
	}
}

// pruneLocked applies the watermark retention rule to one key: keep the
// youngest version at or below the watermark and everything younger; drop
// the rest. A key whose only remaining version is a tombstone at or below
// the watermark is removed entirely.
func (s *Store) pruneLocked(key string, e *keyEntry) {
	wm := s.watermark
	if wm.IsZero() {
		return
	}
	idx := -1
	for i, v := range e.versions { // youngest first
		if v.ts.AtOrBefore(wm) {
			idx = i
			break
		}
	}
	if idx >= 0 && idx+1 < len(e.versions) {
		for _, v := range e.versions[idx+1:] {
			s.dropVersionLocked(v)
		}
		e.versions = e.versions[:idx+1]
	}
	if len(e.versions) == 1 && e.versions[0].tombstone && e.versions[0].ts.AtOrBefore(wm) {
		s.dropVersionLocked(e.versions[0])
		delete(s.mapping, key)
	}
}

func (s *Store) dropVersionLocked(v version) {
	s.live[int(v.ppn)/s.geo.PagesPerBlock]--
	s.liveTotal--
}

// PruneAll applies the watermark rule to every key immediately (the lazy
// path prunes on writes and during collection).
func (s *Store) PruneAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, e := range s.mapping {
		s.pruneLocked(k, e)
	}
}

// collect runs the integrated garbage collector until the free pool exceeds
// the reserve or no block holds garbage.
func (s *Store) collect() {
	s.gcMu.Lock()
	defer s.gcMu.Unlock()
	start := time.Now()
	collected := false
	defer func() {
		// Only runs that processed a victim count as pauses; the common
		// early-return (pool already refilled) is not a stall.
		if collected {
			if m := s.metrics.Load(); m != nil {
				m.gcPause.ObserveSince(start)
			}
		}
	}()
	stalled := 0
	for {
		s.mu.Lock()
		if len(s.free) > gcReserveBlocks {
			s.mu.Unlock()
			return
		}
		freeBefore := len(s.free)
		victim := s.pickVictimLocked()
		s.mu.Unlock()
		if victim < 0 {
			return
		}
		collected = true
		if !s.relocateAndErase(victim) {
			return
		}
		s.mu.Lock()
		progress := len(s.free) > freeBefore
		s.mu.Unlock()
		// Compaction-only rounds can momentarily break even; two such
		// rounds in a row means it is not gaining ground.
		if progress {
			stalled = 0
		} else if stalled++; stalled >= 2 {
			return
		}
	}
}

// pickVictimLocked selects the sealed block with the most garbage records,
// breaking ties toward lower wear. When no block holds garbage but space is
// exhausted, it falls back to compacting the least-occupied sealed block:
// under-filled pages (flushed by the packing timer under bursty writers)
// get repacked densely.
func (s *Store) pickVictimLocked() int {
	victim, victimGarbage := -1, 0
	var victimWear int64
	for b := 0; b < s.geo.Blocks(); b++ {
		if s.state[b] != stateSealed {
			continue
		}
		g := s.written[b] - s.live[b]
		if g <= 0 {
			continue
		}
		w, _ := s.dev.Wear(b)
		if victim < 0 || g > victimGarbage || (g == victimGarbage && w < victimWear) {
			victim, victimGarbage, victimWear = b, g, w
		}
	}
	if victim >= 0 || s.totRecs == 0 || s.opt.PackTimeout <= 0 {
		// Compaction only helps when the packer can merge records into
		// denser pages; with packing disabled, one record per flush is
		// already the density ceiling.
		return victim
	}
	estPerBlock := int(int64(s.geo.PageSize)/(s.totBytes/s.totRecs)) * s.geo.PagesPerBlock
	best := -1
	for b := 0; b < s.geo.Blocks(); b++ {
		if s.state[b] != stateSealed || s.written[b] == 0 || s.written[b] > estPerBlock/2 {
			continue
		}
		if best < 0 || s.written[b] < s.written[best] {
			best = b
		}
	}
	return best
}

// relocateAndErase repacks every live record out of victim (through the
// normal packers, so relocations share pages with foreground puts exactly as
// in §5) and erases it. Returns false if relocation could not complete.
func (s *Store) relocateAndErase(victim int) bool {
	for p := 0; p < s.geo.PagesPerBlock; p++ {
		addr := flash.PageAddr{Block: victim, Page: p}
		if ok, _ := s.dev.PageState(addr); !ok {
			continue
		}
		page, err := s.dev.ReadPage(addr)
		if err != nil {
			continue
		}
		basePPN := int32(victim*s.geo.PagesPerBlock + p)
		var relocs []record.Record
		for _, pl := range record.DecodePage(page) {
			if !s.isLive(string(pl.Rec.Key), pl.Rec.Ts, basePPN, int32(pl.Off)) {
				continue
			}
			// Copy key/val out of the page buffer before repacking.
			relocs = append(relocs, record.Record{
				Key:       append([]byte(nil), pl.Rec.Key...),
				Val:       append([]byte(nil), pl.Rec.Val...),
				Ts:        pl.Rec.Ts,
				Tombstone: pl.Rec.Tombstone,
			})
		}
		// Repack concurrently: relocated records share pages with each
		// other and with foreground puts (§5's "puts or remapped keys").
		if !s.repack(relocs) {
			return false
		}
	}
	s.mu.Lock()
	if s.live[victim] != 0 {
		s.mu.Unlock()
		return false // something still lives here; leave sealed
	}
	s.state[victim] = stateFree // reserved until erased
	s.written[victim] = 0
	s.mu.Unlock()
	// No mapping entry references the victim anymore, so no new read can
	// pin it; wait only for the readers already in flight.
	s.pinMu.Lock()
	for s.pins[victim] > 0 {
		s.unpinned.Wait()
	}
	s.pinMu.Unlock()
	if err := s.dev.EraseBlock(victim); err != nil {
		return false
	}
	s.gcErased.Add(1)
	s.mu.Lock()
	s.free = append(s.free, victim)
	s.noteFreeBlocks()
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

// isLive reports whether the mapping still references the media copy of
// (key, ts) at the given location, pruning the key first so the collector
// sees up-to-date retention decisions.
func (s *Store) isLive(key string, ts clock.Timestamp, ppn, off int32) bool {
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
			return v.ppn == ppn && v.off == off
		}
	}
	return false
}

// Dump streams every mapped version with timestamp > since, reading values
// from media. Versions pruned or relocated mid-dump are skipped or re-read
// consistently; tombstones are emitted without values.
func (s *Store) Dump(since clock.Timestamp, fn func(key []byte, ver clock.Timestamp, val []byte, tombstone bool) error) error {
	type item struct {
		key       string
		ts        clock.Timestamp
		tombstone bool
	}
	s.mu.RLock()
	var items []item
	for k, e := range s.mapping {
		for _, v := range e.versions {
			if v.ts.After(since) {
				items = append(items, item{key: k, ts: v.ts, tombstone: v.tombstone})
			}
		}
	}
	s.mu.RUnlock()
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
			continue // pruned while dumping; below the watermark anyway
		}
		if err := fn([]byte(it.key), ver, val, false); err != nil {
			return err
		}
	}
	return nil
}
