package storage

import (
	"sync"

	"repro/internal/clock"
)

// DRAM is an in-memory multi-version backend modeling battery-backed DRAM
// or byte-addressable NVM (§2.2): write latency ≤ 100 ns, i.e. effectively
// instant next to network latency. It is the "DRAM backend" of Figures 7
// and 8, where its very low write latency makes transaction ordering most
// sensitive to clock skew.
type DRAM struct {
	mu        sync.RWMutex
	m         map[string][]memVersion // youngest first
	watermark clock.Timestamp
}

type memVersion struct {
	ts        clock.Timestamp
	val       []byte
	tombstone bool
}

// NewDRAM returns an empty DRAM backend.
func NewDRAM() *DRAM { return &DRAM{m: make(map[string][]memVersion)} }

var _ Backend = (*DRAM)(nil)

// Put inserts a version; duplicate version stamps are idempotent no-ops.
func (d *DRAM) Put(key, val []byte, ver clock.Timestamp) error {
	return d.insert(key, val, ver, false)
}

// Delete inserts a tombstone version.
func (d *DRAM) Delete(key []byte, ver clock.Timestamp) error {
	return d.insert(key, nil, ver, true)
}

func (d *DRAM) insert(key, val []byte, ver clock.Timestamp, tombstone bool) error {
	cp := make([]byte, len(val))
	copy(cp, val)
	d.mu.Lock()
	defer d.mu.Unlock()
	k := string(key)
	vs := d.m[k]
	pos := len(vs)
	for i, v := range vs {
		c := ver.Compare(v.ts)
		if c == 0 {
			return nil // idempotent duplicate
		}
		if c > 0 {
			pos = i
			break
		}
	}
	vs = append(vs, memVersion{})
	copy(vs[pos+1:], vs[pos:])
	vs[pos] = memVersion{ts: ver, val: cp, tombstone: tombstone}
	d.m[k] = d.pruneLocked(k, vs)
	return nil
}

// pruneLocked applies the watermark retention rule and returns the kept
// slice; it deletes fully-dead keys from the map.
func (d *DRAM) pruneLocked(key string, vs []memVersion) []memVersion {
	wm := d.watermark
	if wm.IsZero() {
		return vs
	}
	idx := -1
	for i, v := range vs {
		if v.ts.AtOrBefore(wm) {
			idx = i
			break
		}
	}
	if idx >= 0 && idx+1 < len(vs) {
		vs = vs[:idx+1]
	}
	if len(vs) == 1 && vs[0].tombstone && vs[0].ts.AtOrBefore(wm) {
		delete(d.m, key)
		return nil
	}
	return vs
}

// Get returns the youngest version with timestamp ≤ at.
func (d *DRAM) Get(key []byte, at clock.Timestamp) ([]byte, clock.Timestamp, bool, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	for _, v := range d.m[string(key)] {
		if v.ts.AtOrBefore(at) {
			if v.tombstone {
				return nil, clock.Timestamp{}, false, nil
			}
			out := make([]byte, len(v.val))
			copy(out, v.val)
			return out, v.ts, true, nil
		}
	}
	return nil, clock.Timestamp{}, false, nil
}

// Latest returns the youngest version.
func (d *DRAM) Latest(key []byte) ([]byte, clock.Timestamp, bool, error) {
	return d.Get(key, clock.Timestamp{Ticks: 1<<63 - 1, Client: ^uint32(0)})
}

// LatestVersion returns the youngest version stamp without copying data.
func (d *DRAM) LatestVersion(key []byte) (clock.Timestamp, bool, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	vs := d.m[string(key)]
	if len(vs) == 0 {
		return clock.Timestamp{}, false, false
	}
	return vs[0].ts, vs[0].tombstone, true
}

// SetWatermark raises the retention watermark (monotone) and prunes lazily
// on subsequent writes.
func (d *DRAM) SetWatermark(ts clock.Timestamp) {
	d.mu.Lock()
	if d.watermark.Before(ts) {
		d.watermark = ts
	}
	d.mu.Unlock()
}

// Flush is a no-op: DRAM writes are durable immediately.
func (d *DRAM) Flush() {}

// Blocking is false: a DRAM call never waits on a device.
func (d *DRAM) Blocking() bool { return false }

// VersionCount reports the retained version count for a key (tests).
func (d *DRAM) VersionCount(key []byte) int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.m[string(key)])
}

// Dump streams every retained version with timestamp > since.
func (d *DRAM) Dump(since clock.Timestamp, fn func(key []byte, ver clock.Timestamp, val []byte, tombstone bool) error) error {
	type item struct {
		key string
		v   memVersion
	}
	d.mu.RLock()
	var items []item
	for k, vs := range d.m {
		for _, v := range vs {
			if v.ts.After(since) {
				items = append(items, item{key: k, v: v})
			}
		}
	}
	d.mu.RUnlock()
	for _, it := range items {
		val := make([]byte, len(it.v.val))
		copy(val, it.v.val)
		if err := fn([]byte(it.key), it.v.ts, val, it.v.tombstone); err != nil {
			return err
		}
	}
	return nil
}
