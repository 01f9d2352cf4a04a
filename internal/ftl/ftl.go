// Package ftl implements a generic, single-version, page-mapped Flash
// Translation Layer — the paper's SFTL baseline (§5.1). It exposes the
// classic block-device abstraction (read/write/trim by logical block
// address), maps each LBA to a physical flash page, writes out-of-place in a
// log-structured fashion, reserves ~10% of capacity for remapping, performs
// greedy garbage collection, and picks least-worn blocks when allocating
// (dynamic wear leveling).
//
// The split multi-version store of the paper (VFTL) is built *on top of*
// this package by internal/kvlayer; the unified multi-version FTL (MFTL)
// in internal/mvftl replaces it entirely.
package ftl

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flash"
	"repro/internal/obs"
)

// Errors returned by the FTL.
var (
	ErrUnmapped = errors.New("ftl: logical block not mapped")
	ErrNoSpace  = errors.New("ftl: out of space (no garbage to collect)")
	ErrBadLBA   = errors.New("ftl: LBA out of range")
	ErrBadSize  = errors.New("ftl: data larger than page")
)

// Block lifecycle states.
const (
	stateFree = iota
	stateFrontier
	stateSealed
)

const gcReserveBlocks = 2 // GC refills the free pool to this many blocks

// Stats counts host-visible and internal FTL activity. GCRelocated is the
// number of still-valid pages the garbage collector had to move ("remapped
// data" in the paper's Table 1 discussion).
type Stats struct {
	HostReads   int64
	HostWrites  int64
	GCRelocated int64
	GCErased    int64
}

// Options configures New.
type Options struct {
	// OverProvision is the fraction of raw capacity reserved for
	// remapping; 0 means the paper's 10%.
	OverProvision float64
}

type frontier struct {
	block int
	next  int
}

// FTL is a single-version page-mapped flash translation layer. It is safe
// for concurrent use.
type FTL struct {
	dev     *flash.Device
	geo     flash.Geometry
	numLBAs int

	// chMu serializes writes (and GC) per write frontier, mirroring the
	// per-channel parallelism of the device.
	chMu []sync.Mutex
	gcMu sync.Mutex // serializes garbage collection globally

	mapMu    sync.Mutex
	unpinned *sync.Cond // signaled when a block's pin count drops to zero
	l2p      []int32    // LBA -> physical page number (-1 = unmapped)
	p2l      []int32    // physical page number -> LBA (-1 = invalid)
	state    []int8     // per-block lifecycle state
	valid    []int      // per-block count of valid pages
	pins     []int      // per-block in-flight reads
	free     []int      // free block pool
	front    []frontier // per-channel write frontier (block -1 = none)
	gcFront  frontier   // dedicated GC relocation frontier (guarded by gcMu+mapMu)

	rr          atomic.Int64 // round-robin channel selector
	hostReads   atomic.Int64
	hostWrites  atomic.Int64
	gcRelocated atomic.Int64
	gcErased    atomic.Int64

	metrics atomic.Pointer[ftlMetrics]
}

// ftlMetrics feeds the FTL's observability registry: how long each garbage
// collection run stalls the write path, and the size of the free pool.
type ftlMetrics struct {
	gcPause    *obs.Histogram
	freeBlocks *obs.Gauge
	gcErased   *obs.Counter
}

// New builds an FTL over dev. All blocks must be erased (a fresh device).
func New(dev *flash.Device, opt Options) (*FTL, error) {
	geo := dev.Geometry()
	if opt.OverProvision <= 0 {
		opt.OverProvision = 0.10
	}
	if opt.OverProvision >= 0.9 {
		return nil, fmt.Errorf("ftl: over-provisioning %.2f too large", opt.OverProvision)
	}
	total := geo.Pages()
	numLBAs := int(float64(total) * (1 - opt.OverProvision))
	// Beyond the nominal over-provisioning, the FTL needs physical slack
	// for per-channel frontiers and the GC reserve, or it can wedge.
	needSpare := (geo.Channels + gcReserveBlocks + 2) * geo.PagesPerBlock
	if total-numLBAs < needSpare {
		numLBAs = total - needSpare
	}
	if numLBAs <= 0 {
		return nil, fmt.Errorf("ftl: geometry too small (%d pages, need > %d spare)", total, needSpare)
	}
	f := &FTL{
		dev:     dev,
		geo:     geo,
		numLBAs: numLBAs,
		chMu:    make([]sync.Mutex, geo.Channels),
		l2p:     make([]int32, numLBAs),
		p2l:     make([]int32, total),
		state:   make([]int8, geo.Blocks()),
		valid:   make([]int, geo.Blocks()),
		pins:    make([]int, geo.Blocks()),
		front:   make([]frontier, geo.Channels),
	}
	f.unpinned = sync.NewCond(&f.mapMu)
	for i := range f.l2p {
		f.l2p[i] = -1
	}
	for i := range f.p2l {
		f.p2l[i] = -1
	}
	for b := 0; b < geo.Blocks(); b++ {
		f.free = append(f.free, b)
	}
	for c := range f.front {
		f.front[c].block = -1
	}
	f.gcFront.block = -1
	return f, nil
}

// SetMetrics attaches a metrics registry and forwards it to the underlying
// device. The FTL then feeds ftl_gc_pause_ns (wall time of each GC run that
// reclaimed space), the ftl_free_blocks gauge, and ftl_gc_erased_total.
// Pass nil to detach.
func (f *FTL) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		f.metrics.Store(nil)
		f.dev.SetMetrics(nil)
		return
	}
	f.metrics.Store(&ftlMetrics{
		gcPause:    reg.Histogram("ftl_gc_pause_ns"),
		freeBlocks: reg.Gauge("ftl_free_blocks"),
		gcErased:   reg.Counter("ftl_gc_erased_total"),
	})
	f.dev.SetMetrics(reg)
}

// noteFreeBlocks publishes the free-pool size; callers hold mapMu.
func (f *FTL) noteFreeBlocks() {
	if m := f.metrics.Load(); m != nil {
		m.freeBlocks.Set(int64(len(f.free)))
	}
}

// NumLBAs returns the number of addressable logical pages.
func (f *FTL) NumLBAs() int { return f.numLBAs }

// PageSize returns the logical block size in bytes.
func (f *FTL) PageSize() int { return f.geo.PageSize }

// Stats returns a snapshot of the counters.
func (f *FTL) Stats() Stats {
	return Stats{
		HostReads:   f.hostReads.Load(),
		HostWrites:  f.hostWrites.Load(),
		GCRelocated: f.gcRelocated.Load(),
		GCErased:    f.gcErased.Load(),
	}
}

func (f *FTL) ppn(a flash.PageAddr) int32 { return int32(a.Block*f.geo.PagesPerBlock + a.Page) }

func (f *FTL) addr(ppn int32) flash.PageAddr {
	return flash.PageAddr{Block: int(ppn) / f.geo.PagesPerBlock, Page: int(ppn) % f.geo.PagesPerBlock}
}

// ReadLBA returns the current contents of the logical block.
func (f *FTL) ReadLBA(lba int) ([]byte, error) {
	if lba < 0 || lba >= f.numLBAs {
		return nil, fmt.Errorf("%w: %d", ErrBadLBA, lba)
	}
	f.mapMu.Lock()
	ppn := f.l2p[lba]
	if ppn < 0 {
		f.mapMu.Unlock()
		return nil, fmt.Errorf("%w: %d", ErrUnmapped, lba)
	}
	blk := int(ppn) / f.geo.PagesPerBlock
	f.pins[blk]++ // hold off GC erase of this block while we read
	f.mapMu.Unlock()

	data, err := f.dev.ReadPage(f.addr(ppn))

	f.mapMu.Lock()
	f.pins[blk]--
	if f.pins[blk] == 0 {
		f.unpinned.Broadcast()
	}
	f.mapMu.Unlock()
	if err != nil {
		return nil, err
	}
	f.hostReads.Add(1)
	return data, nil
}

// WriteLBA writes data (at most one page) to the logical block,
// out-of-place. Concurrent writers to distinct channels proceed in
// parallel.
func (f *FTL) WriteLBA(lba int, data []byte) error {
	if lba < 0 || lba >= f.numLBAs {
		return fmt.Errorf("%w: %d", ErrBadLBA, lba)
	}
	if len(data) > f.geo.PageSize {
		return fmt.Errorf("%w: %d bytes", ErrBadSize, len(data))
	}
	ch := int(f.rr.Add(1)-1) % f.geo.Channels
	f.chMu[ch].Lock()
	defer f.chMu[ch].Unlock()

	ppn, err := f.allocAndProgram(ch, data)
	if err != nil {
		return err
	}

	f.mapMu.Lock()
	f.installMapping(lba, ppn)
	f.mapMu.Unlock()
	f.hostWrites.Add(1)
	return nil
}

// installMapping points lba at newPPN, invalidating any previous mapping.
// Callers must hold mapMu.
func (f *FTL) installMapping(lba int, newPPN int32) {
	if old := f.l2p[lba]; old >= 0 {
		f.p2l[old] = -1
		f.valid[int(old)/f.geo.PagesPerBlock]--
	}
	f.l2p[lba] = newPPN
	f.p2l[newPPN] = int32(lba)
	f.valid[int(newPPN)/f.geo.PagesPerBlock]++
}

// TrimLBA invalidates a logical block (used by the multi-version KV layer
// when a version becomes garbage).
func (f *FTL) TrimLBA(lba int) error {
	if lba < 0 || lba >= f.numLBAs {
		return fmt.Errorf("%w: %d", ErrBadLBA, lba)
	}
	f.mapMu.Lock()
	defer f.mapMu.Unlock()
	if old := f.l2p[lba]; old >= 0 {
		f.p2l[old] = -1
		f.valid[int(old)/f.geo.PagesPerBlock]--
		f.l2p[lba] = -1
	}
	return nil
}

// allocAndProgram obtains the next page of channel ch's frontier (running
// GC if the free pool is low) and programs data into it. The caller must
// hold chMu[ch].
func (f *FTL) allocAndProgram(ch int, data []byte) (int32, error) {
	f.mapMu.Lock()
	for f.front[ch].block < 0 || f.front[ch].next >= f.geo.PagesPerBlock {
		if f.front[ch].block >= 0 {
			f.state[f.front[ch].block] = stateSealed
			f.front[ch].block = -1
		}
		if len(f.free) <= gcReserveBlocks {
			f.mapMu.Unlock()
			refilled := f.collect()
			f.mapMu.Lock()
			if len(f.free) <= 1 {
				// The last free block is reserved for the GC frontier;
				// consuming it could wedge collection permanently. Other
				// channels' writers may have drained the blocks this pass
				// freed: collect again while passes still free blocks.
				if refilled {
					continue
				}
				f.mapMu.Unlock()
				return 0, ErrNoSpace
			}
		}
		blk, ok := f.takeFreeBlockLocked(ch)
		if !ok {
			f.mapMu.Unlock()
			return 0, ErrNoSpace
		}
		f.front[ch] = frontier{block: blk, next: 0}
		f.state[blk] = stateFrontier
	}
	blk, page := f.front[ch].block, f.front[ch].next
	f.front[ch].next++
	f.mapMu.Unlock()

	if err := f.dev.ProgramPage(flash.PageAddr{Block: blk, Page: page}, data); err != nil {
		return 0, err
	}
	return f.ppn(flash.PageAddr{Block: blk, Page: page}), nil
}

// takeFreeBlockLocked removes and returns a free block, preferring blocks on
// the caller's channel and, among those, the least worn (dynamic wear
// leveling). Callers must hold mapMu.
func (f *FTL) takeFreeBlockLocked(ch int) (int, bool) {
	best, bestIdx := -1, -1
	var bestWear int64
	bestOnCh := false
	for i, b := range f.free {
		onCh := b%f.geo.Channels == ch
		w, _ := f.dev.Wear(b)
		better := false
		switch {
		case best < 0:
			better = true
		case onCh && !bestOnCh:
			better = true
		case onCh == bestOnCh && w < bestWear:
			better = true
		}
		if better {
			best, bestIdx, bestWear, bestOnCh = b, i, w, onCh
		}
	}
	if best < 0 {
		return 0, false
	}
	f.free[bestIdx] = f.free[len(f.free)-1]
	f.free = f.free[:len(f.free)-1]
	f.noteFreeBlocks()
	return best, true
}

// collect runs greedy garbage collection until the free pool is replenished
// or no block has any garbage, and reports whether the pool was refilled:
// this pass erased a block, or found the pool above the reserve. It stops at
// the first victim it cannot relocate, so it never spins on one. Callers must
// NOT hold mapMu. Relocated pages are written through a dedicated GC frontier
// so collection can always make progress regardless of host-frontier state.
func (f *FTL) collect() (refilled bool) {
	f.gcMu.Lock()
	defer f.gcMu.Unlock()
	start := time.Now()
	collected := false
	defer func() {
		// Only GC runs that actually reclaimed count as pauses; the
		// common early-return (pool already refilled) is not a stall.
		if collected {
			if m := f.metrics.Load(); m != nil {
				m.gcPause.ObserveSince(start)
			}
		}
	}()
	for {
		f.mapMu.Lock()
		if len(f.free) > gcReserveBlocks {
			f.mapMu.Unlock()
			return true
		}
		victim := f.pickVictimLocked()
		f.mapMu.Unlock()
		if victim < 0 {
			return collected // nothing reclaimable
		}
		if !f.relocateAndErase(victim) {
			return collected
		}
		collected = true
	}
}

// pickVictimLocked chooses the sealed block with the fewest valid pages,
// skipping blocks with no garbage. Ties break toward the least-worn block,
// which spreads erases across the device (static wear leveling). Callers
// must hold mapMu.
func (f *FTL) pickVictimLocked() int {
	victim, victimValid := -1, 0
	var victimWear int64
	for b := 0; b < f.geo.Blocks(); b++ {
		if f.state[b] != stateSealed {
			continue
		}
		if f.valid[b] >= f.geo.PagesPerBlock {
			continue // no garbage: relocating it frees nothing
		}
		w, _ := f.dev.Wear(b)
		if victim < 0 || f.valid[b] < victimValid || (f.valid[b] == victimValid && w < victimWear) {
			victim, victimValid, victimWear = b, f.valid[b], w
		}
	}
	return victim
}

// relocateAndErase moves every still-valid page out of victim (through the
// GC frontier), erases it and reports whether it did. If any page cannot be
// relocated the block is left sealed (its data intact) for a later attempt.
// The caller must hold gcMu, not mapMu.
func (f *FTL) relocateAndErase(victim int) bool {
	base := int32(victim * f.geo.PagesPerBlock)
	for p := 0; p < f.geo.PagesPerBlock; p++ {
		srcPPN := base + int32(p)
		f.mapMu.Lock()
		lba := f.p2l[srcPPN]
		f.mapMu.Unlock()
		if lba < 0 {
			continue
		}
		data, err := f.dev.ReadPage(f.addr(srcPPN))
		if err != nil {
			continue // page raced to invalid; nothing to preserve
		}
		dstPPN, err := f.gcProgram(data)
		if err != nil {
			return false // cannot relocate safely; leave victim sealed
		}
		f.mapMu.Lock()
		// Only install if the mapping did not change while we copied
		// (a concurrent host write supersedes the relocation).
		if f.l2p[lba] == srcPPN {
			f.installMapping(int(lba), dstPPN)
			f.gcRelocated.Add(1)
		}
		f.mapMu.Unlock()
	}
	f.mapMu.Lock()
	if f.valid[victim] != 0 {
		// A page slipped back in (should not happen); refuse to erase.
		f.mapMu.Unlock()
		return false
	}
	// Wait out readers that pinned the block before we unmapped its pages.
	for f.pins[victim] > 0 {
		f.unpinned.Wait()
	}
	f.state[victim] = stateFree // reserved: not in pool until erased
	f.mapMu.Unlock()
	if err := f.dev.EraseBlock(victim); err == nil {
		f.gcErased.Add(1)
		if m := f.metrics.Load(); m != nil {
			m.gcErased.Inc()
		}
	}
	f.mapMu.Lock()
	f.free = append(f.free, victim)
	f.noteFreeBlocks()
	f.mapMu.Unlock()
	return true
}

// gcProgram writes relocated data through the dedicated GC frontier,
// refilling it from the free pool when full. The caller must hold gcMu.
func (f *FTL) gcProgram(data []byte) (int32, error) {
	f.mapMu.Lock()
	for f.gcFront.block < 0 || f.gcFront.next >= f.geo.PagesPerBlock {
		if f.gcFront.block >= 0 {
			f.state[f.gcFront.block] = stateSealed
			f.gcFront.block = -1
		}
		blk, ok := f.takeFreeBlockLocked(0)
		if !ok {
			f.mapMu.Unlock()
			return 0, ErrNoSpace
		}
		f.gcFront = frontier{block: blk, next: 0}
		f.state[blk] = stateFrontier
	}
	blk, page := f.gcFront.block, f.gcFront.next
	f.gcFront.next++
	f.mapMu.Unlock()
	if err := f.dev.ProgramPage(flash.PageAddr{Block: blk, Page: page}, data); err != nil {
		return 0, err
	}
	return f.ppn(flash.PageAddr{Block: blk, Page: page}), nil
}

// FreeBlocks reports the current size of the free pool (for tests and
// instrumentation).
func (f *FTL) FreeBlocks() int {
	f.mapMu.Lock()
	defer f.mapMu.Unlock()
	return len(f.free)
}
