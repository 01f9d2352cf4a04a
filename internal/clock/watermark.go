package clock

import "sync"

// WatermarkTracker implements the watermarking scheme of §3.1/§4.4: each
// client periodically reports the timestamp of its last acknowledged (SEMEL)
// or last decided (MILANA) operation, and the watermark is the minimum over
// all reports. Because client clocks are monotonic, no client will ever
// issue a new operation with a timestamp below the watermark, so the garbage
// collector needs to keep only the youngest version at or below it.
type WatermarkTracker struct {
	mu      sync.Mutex
	reports map[uint32]Timestamp
	cached  Timestamp
	dirty   bool
}

// NewWatermarkTracker returns an empty tracker. With no registered clients
// the watermark is Zero, meaning nothing may be collected.
func NewWatermarkTracker() *WatermarkTracker {
	return &WatermarkTracker{reports: make(map[uint32]Timestamp)}
}

// Report records client's latest decided timestamp. Reports are monotonic:
// a stale (older) report is ignored, which makes delivery-order races with
// the broadcast protocol harmless.
func (w *WatermarkTracker) Report(client uint32, ts Timestamp) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if cur, ok := w.reports[client]; ok && ts.AtOrBefore(cur) {
		return
	}
	w.reports[client] = ts
	w.dirty = true
}

// Forget removes a client from the computation, e.g. after it has been
// declared failed; otherwise a dead client pins the watermark forever.
func (w *WatermarkTracker) Forget(client uint32) {
	w.mu.Lock()
	defer w.mu.Unlock()
	delete(w.reports, client)
	w.dirty = true
}

// Watermark returns the current watermark: the minimum reported timestamp,
// or Zero if no client has reported. It never falls — below a watermark once
// returned (or raised to, see Raise) the store keeps only the youngest
// version of each key, and a client that joins with an older report cannot
// bring the others back.
func (w *WatermarkTracker) Watermark() Timestamp {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dirty {
		low, first := Zero, true
		for _, ts := range w.reports {
			if first || ts.Before(low) {
				low = ts
				first = false
			}
		}
		if low.After(w.cached) {
			w.cached = low
		}
		w.dirty = false
	}
	return w.cached
}

// Raise lifts the watermark to ts without a client report, for a watermark
// learned from elsewhere — a checkpoint's, which the store has already pruned
// by. A report standing in for it would pin the minimum there forever.
func (w *WatermarkTracker) Raise(ts Timestamp) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if ts.After(w.cached) {
		w.cached = ts
	}
}

// Clients returns the number of clients currently reporting.
func (w *WatermarkTracker) Clients() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.reports)
}
