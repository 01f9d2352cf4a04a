// Package storage defines the versioned storage Backend used by SEMEL
// servers and provides two of the paper's backends directly: a DRAM
// (persistent-memory) backend and a single-version flash backend (the SFTL
// baseline of Figure 6). The multi-version flash backends — unified MFTL and
// split VFTL — live in internal/mvftl and internal/kvlayer and satisfy the
// same interface.
package storage

import (
	"errors"
	"sync"

	"repro/internal/clock"
)

// ErrSnapshotUnavailable is returned by single-version backends when asked
// for a version at a snapshot older than the only version they retain. The
// transaction layer treats it as a forced abort — the effect Figure 6
// measures when comparing single- and multi-version FTLs.
var ErrSnapshotUnavailable = errors.New("storage: snapshot version no longer available")

// Backend is a durable multi-version key-value store for one shard replica.
// Implementations must be safe for concurrent use.
type Backend interface {
	// Put makes a durable version of key with the given version stamp.
	// Versions may arrive in any timestamp order (inconsistent
	// replication); a duplicate version stamp is an idempotent no-op.
	Put(key, val []byte, ver clock.Timestamp) error
	// Delete writes a tombstone version.
	Delete(key []byte, ver clock.Timestamp) error
	// Get returns the youngest version with timestamp ≤ at.
	Get(key []byte, at clock.Timestamp) (val []byte, ver clock.Timestamp, found bool, err error)
	// Latest returns the youngest version.
	Latest(key []byte) (val []byte, ver clock.Timestamp, found bool, err error)
	// LatestVersion returns the youngest version stamp (tombstones
	// included) without reading the value.
	LatestVersion(key []byte) (ver clock.Timestamp, tombstone, found bool)
	// SetWatermark raises the garbage-collection watermark.
	SetWatermark(ts clock.Timestamp)
	// Flush forces buffered writes (e.g. packed pages) to media.
	Flush()
	// Dump streams every retained version with timestamp > since to fn,
	// stopping at fn's first error. A new primary uses it to merge
	// replica states during failover (§4.5); versions at or below the
	// watermark are identical everywhere and may be skipped via since.
	Dump(since clock.Timestamp, fn func(key []byte, ver clock.Timestamp, val []byte, tombstone bool) error) error
	// Blocking reports whether a call may wait on a device (a flash page
	// read or program). Per-key work overlaps only on a blocking backend;
	// on one that never waits, a goroutine per key costs more than it
	// overlaps (see ForEach).
	Blocking() bool
}

// ForEach runs fn(0), …, fn(n-1) — the per-key work of one request against
// b — and returns the lowest-index error. On a non-blocking backend, and for
// a single call, it runs them inline, in index order, on the caller's
// goroutine. On a blocking backend it runs one goroutine per index, so
// independent keys keep the device's channels busy in parallel instead of
// convoying behind one another's page reads and programs. Every call runs
// whatever the others return.
func ForEach(b Backend, n int, fn func(i int) error) error {
	if n <= 1 || !b.Blocking() {
		var first error
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range n {
		go func() {
			defer wg.Done()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
