// Package wal is a segmented, checksummed write-ahead log with group-commit
// fsync batching, atomic checkpoints, and torn-tail recovery. It is the
// durability layer under semel.Server: every state change a replica
// acknowledges is appended (and fsynced) here first, so a process that dies
// with amnesia can rebuild itself from checkpoint + replay.
//
// On-disk layout (one directory per replica):
//
//	wal-<first LSN, %016x>.seg   segment: a run of framed records
//	ckpt-<LSN, %016x>.ck         checkpoint covering records 1..LSN
//
// Record framing, little-endian:
//
//	+----------+------------+---------------+
//	| len u32  | crc32c u32 | payload (len) |
//	+----------+------------+---------------+
//
// Records carry opaque payloads (the server encodes wire messages with the
// frozen codec v1). LSNs are assigned densely from 1, so a segment's name
// plus its record count locates every LSN without an index.
//
// Group commit rides the PR-2 batcher idea: one flusher writes and fsyncs
// at a time, appends that arrive while a flush is in flight pile into the
// next buffer, and the following fsync acknowledges them all. A synced
// record is durable; an unsynced one may vanish — Open truncates any torn
// tail and replay never observes a hole.
//
// Checkpoints are written sideways (tmp file, fsync, atomic rename), never
// in the record stream, so a crash mid-checkpoint leaves the previous one
// intact. Segments entirely below the newest checkpoint are garbage.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

const (
	segPrefix  = "wal-"
	segSuffix  = ".seg"
	ckptPrefix = "ckpt-"
	ckptSuffix = ".ck"
	tmpSuffix  = ".tmp"

	headerSize = 8
	// MaxRecord bounds one payload: a corrupt length field must not turn
	// into a multi-gigabyte allocation during replay.
	MaxRecord = 16 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var (
	// ErrClosed is returned by every operation after Close or Kill.
	ErrClosed = errors.New("wal: closed")
	// ErrTooLarge is returned for payloads above MaxRecord.
	ErrTooLarge = errors.New("wal: record exceeds MaxRecord")
)

// CorruptError reports damage replay cannot repair: a tear that is not at
// the tail of the log, or a gap in the segment sequence. Torn tails are
// normal crash debris and are truncated silently — CorruptError means the
// disk lost something it had acknowledged.
type CorruptError struct {
	Path   string
	Detail string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: corrupt log at %s: %s", e.Path, e.Detail)
}

// Options configures Open.
type Options struct {
	// Dir is the log directory (created if missing).
	Dir string
	// FS is the filesystem seam; nil means the real OS filesystem.
	FS FS
	// SegmentBytes rotates the active segment once it exceeds this size
	// (0 = 4 MiB). A soft cap: one oversized record still fits.
	SegmentBytes int64
	// Metrics receives wal_* counters/gauges/histograms; nil disables.
	Metrics *obs.Registry
}

// Stats is a point-in-time snapshot of the log (semel's wal_appended_lsn
// gauge and the repository benchmark read it).
type Stats struct {
	AppendedLSN   uint64 // last assigned LSN
	DurableLSN    uint64 // last fsynced LSN
	CheckpointLSN uint64 // records 1..this are covered by the checkpoint
	Segments      int    // live segment files
	Bytes         int64  // framed bytes appended this process lifetime
	Fsyncs        int64  // fsync calls this process lifetime
}

type segment struct {
	name    string
	base    uint64 // LSN of the first record
	records int    // valid records (flushed; buffered appends not counted)
	size    int64  // bytes on disk (flushed)
}

func (s *segment) end() uint64 { return s.base + uint64(s.records) - 1 }

func segName(base uint64) string { return fmt.Sprintf("%s%016x%s", segPrefix, base, segSuffix) }
func ckptName(lsn uint64) string { return fmt.Sprintf("%s%016x%s", ckptPrefix, lsn, ckptSuffix) }
func parseName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	var v uint64
	_, err := fmt.Sscanf(name[len(prefix):len(name)-len(suffix)], "%016x", &v)
	return v, err == nil
}

// WAL is a durable record log. All methods are safe for concurrent use.
type WAL struct {
	dir      string
	fs       FS
	segBytes int64

	mu     sync.Mutex
	closed bool
	err    error // sticky IO error; the log refuses writes after one

	segs    []*segment // ascending base; last is active
	active  File
	buf     []byte // framed records appended but not yet written
	spare   []byte // recycled flush buffer
	nextLSN uint64 // next LSN to assign
	// flushedLSN ≤ durableLSN is not an invariant the other way: every
	// flush both writes and syncs, so the two advance together.
	durableLSN uint64
	syncing    bool
	round      chan struct{} // closed when the in-flight flush completes

	ckptMu      sync.Mutex // serializes checkpoint writers
	ckptLSN     uint64
	ckptPayload []byte

	bytesTotal   int64
	fsyncsTotal  int64
	mFsyncNs     *obs.Histogram
	mBytes       *obs.Counter
	mRecords     *obs.Counter
	mFsyncs      *obs.Counter
	mDurable     *obs.Gauge
	mCkptLSN     *obs.Gauge
	mSegments    *obs.Gauge
	mCheckpoints *obs.Counter
}

// Open loads (or creates) the log in opt.Dir: it picks the newest valid
// checkpoint, validates every segment record, truncates a torn tail, and
// starts a fresh active segment. The returned log is ready for Replay and
// for new appends.
func Open(opt Options) (*WAL, error) {
	if opt.Dir == "" {
		return nil, errors.New("wal: Options.Dir required")
	}
	if opt.FS == nil {
		opt.FS = OS
	}
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = 4 << 20
	}
	w := &WAL{
		dir:          opt.Dir,
		fs:           opt.FS,
		segBytes:     opt.SegmentBytes,
		nextLSN:      1,
		mFsyncNs:     opt.Metrics.Histogram("wal_fsync_ns"),
		mBytes:       opt.Metrics.Counter("wal_bytes_total"),
		mRecords:     opt.Metrics.Counter("wal_records_total"),
		mFsyncs:      opt.Metrics.Counter("wal_fsyncs_total"),
		mDurable:     opt.Metrics.Gauge("wal_durable_lsn"),
		mCkptLSN:     opt.Metrics.Gauge("wal_checkpoint_lsn"),
		mSegments:    opt.Metrics.Gauge("wal_segments"),
		mCheckpoints: opt.Metrics.Counter("wal_checkpoints_total"),
	}
	if err := w.fs.MkdirAll(w.dir); err != nil {
		return nil, err
	}
	names, err := w.fs.List(w.dir)
	if err != nil {
		return nil, err
	}
	if err := w.loadCheckpoint(names); err != nil {
		return nil, err
	}
	if err := w.scanSegments(names); err != nil {
		return nil, err
	}
	// Always start a fresh active segment: recovery then never appends to
	// a file it only partially trusts, and the FS seam needs no append-to-
	// existing mode.
	if err := w.startSegmentLocked(w.nextLSN); err != nil {
		return nil, err
	}
	w.durableLSN = w.nextLSN - 1
	w.mDurable.Set(int64(w.durableLSN))
	w.mCkptLSN.Set(int64(w.ckptLSN))
	w.mSegments.Set(int64(len(w.segs)))
	return w, nil
}

// loadCheckpoint picks the newest checkpoint whose framing validates,
// deletes the rest (older, invalid, or leftover tmp files).
func (w *WAL) loadCheckpoint(names []string) error {
	var lsns []uint64
	for _, n := range names {
		if strings.HasSuffix(n, tmpSuffix) {
			_ = w.fs.Remove(join(w.dir, n)) // crash debris
			continue
		}
		if lsn, ok := parseName(n, ckptPrefix, ckptSuffix); ok {
			lsns = append(lsns, lsn)
		}
	}
	sort.Slice(lsns, func(i, j int) bool { return lsns[i] > lsns[j] })
	for _, lsn := range lsns {
		path := join(w.dir, ckptName(lsn))
		if w.ckptLSN != 0 { // already found a newer valid one
			_ = w.fs.Remove(path)
			continue
		}
		data, err := w.fs.ReadFile(path)
		if err != nil {
			return err
		}
		payload, rest, ok := parseRecord(data)
		if !ok || len(rest) != 0 {
			// A checkpoint that lost bytes after its rename should be
			// impossible (content is fsynced first), but tolerate it:
			// fall back to the next-older one rather than refuse to open.
			_ = w.fs.Remove(path)
			continue
		}
		w.ckptLSN, w.ckptPayload = lsn, payload
		w.nextLSN = lsn + 1
	}
	return nil
}

// scanSegments validates every record of every segment, truncating a torn
// tail. A tear is tolerated only at the global end of the log: segment
// rotation syncs the old file before the new one receives bytes, so
// unsynced debris is always a suffix.
func (w *WAL) scanSegments(names []string) error {
	for _, n := range names {
		if base, ok := parseName(n, segPrefix, segSuffix); ok {
			w.segs = append(w.segs, &segment{name: n, base: base})
		}
	}
	sort.Slice(w.segs, func(i, j int) bool { return w.segs[i].base < w.segs[j].base })

	tearSeg := -1 // index of the first segment with a torn record
	var tearOff int64
	for i, seg := range w.segs {
		path := join(w.dir, seg.name)
		data, err := w.fs.ReadFile(path)
		if err != nil {
			return err
		}
		rest := data
		for len(rest) > 0 {
			_, next, ok := parseRecord(rest)
			if !ok {
				if tearSeg < 0 {
					tearSeg, tearOff = i, int64(len(data)-len(rest))
				} else {
					return &CorruptError{Path: path, Detail: "invalid record after an earlier tear"}
				}
				break
			}
			seg.records++
			rest = next
		}
		seg.size = int64(len(data) - len(rest))
		if tearSeg >= 0 && i > tearSeg && seg.records > 0 {
			return &CorruptError{Path: path, Detail: fmt.Sprintf("valid records after a tear in %s", w.segs[tearSeg].name)}
		}
	}
	if tearSeg >= 0 {
		// Cut the torn record and drop the (empty) segments after it.
		torn := w.segs[tearSeg]
		if err := w.fs.Truncate(join(w.dir, torn.name), tearOff); err != nil {
			return err
		}
		for _, seg := range w.segs[tearSeg+1:] {
			if err := w.fs.Remove(join(w.dir, seg.name)); err != nil {
				return err
			}
		}
		w.segs = w.segs[:tearSeg+1]
	}
	// Drop empty trailing segments (a crash between rotation and first
	// flush, or the always-fresh active segment of the previous process).
	for len(w.segs) > 0 && w.segs[len(w.segs)-1].records == 0 {
		last := w.segs[len(w.segs)-1]
		if err := w.fs.Remove(join(w.dir, last.name)); err != nil {
			return err
		}
		w.segs = w.segs[:len(w.segs)-1]
	}
	// LSN accounting: segments must be contiguous, and the checkpoint may
	// cover segments that were already collected.
	for i, seg := range w.segs {
		if i > 0 && seg.base != w.segs[i-1].end()+1 {
			return &CorruptError{Path: join(w.dir, seg.name), Detail: fmt.Sprintf("gap: segment starts at %d, previous ends at %d", seg.base, w.segs[i-1].end())}
		}
	}
	if len(w.segs) > 0 {
		first, last := w.segs[0], w.segs[len(w.segs)-1]
		if first.base > w.ckptLSN+1 {
			return &CorruptError{Path: join(w.dir, first.name), Detail: fmt.Sprintf("records %d..%d missing below first segment", w.ckptLSN+1, first.base-1)}
		}
		if end := last.end() + 1; end > w.nextLSN {
			w.nextLSN = end
		}
	}
	return nil
}

func (w *WAL) startSegmentLocked(base uint64) error {
	name := segName(base)
	f, err := w.fs.Create(join(w.dir, name))
	if err != nil {
		return err
	}
	if w.active != nil {
		_ = w.active.Close()
	}
	w.active = f
	w.segs = append(w.segs, &segment{name: name, base: base})
	w.mSegments.Set(int64(len(w.segs)))
	return nil
}

// Checkpoint returns the newest checkpoint's coverage LSN and payload
// (ok=false when the log has none). The payload is the caller's own bytes
// from InstallCheckpoint, returned verbatim.
func (w *WAL) Checkpoint() (lsn uint64, payload []byte, ok bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.ckptLSN == 0 && w.ckptPayload == nil {
		return 0, nil, false
	}
	return w.ckptLSN, w.ckptPayload, true
}

// Replay streams every record above the checkpoint, in LSN order. It reads
// from disk, so it reflects exactly what a restart would see; call it before
// appending (appends after Open land in a segment Replay also visits, which
// is harmless but usually not what recovery wants).
func (w *WAL) Replay(fn func(lsn uint64, payload []byte) error) error {
	w.mu.Lock()
	segs := make([]segment, 0, len(w.segs))
	for _, s := range w.segs {
		segs = append(segs, *s)
	}
	ckpt := w.ckptLSN
	w.mu.Unlock()

	for _, seg := range segs {
		if seg.records == 0 || seg.end() <= ckpt {
			continue
		}
		data, err := w.fs.ReadFile(join(w.dir, seg.name))
		if err != nil {
			return err
		}
		rest := data
		for i := 0; i < seg.records; i++ {
			payload, next, ok := parseRecord(rest)
			if !ok {
				return &CorruptError{Path: join(w.dir, seg.name), Detail: "record vanished between open and replay"}
			}
			rest = next
			lsn := seg.base + uint64(i)
			if lsn <= ckpt {
				continue
			}
			if err := fn(lsn, payload); err != nil {
				return err
			}
		}
	}
	return nil
}

// Append adds a record without waiting for durability: it becomes durable
// with the next Sync/AppendSync (or is lost with the process). The returned
// LSN is assigned immediately.
func (w *WAL) Append(payload []byte) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appendLocked(payload)
}

// AppendSync adds a record and returns once it is on disk. Concurrent
// callers share fsyncs: whichever goroutine finds no flush in flight writes
// and syncs everything buffered so far, and the rest wait for the round
// that covers their LSN.
func (w *WAL) AppendSync(payload []byte) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	lsn, err := w.appendLocked(payload)
	if err != nil {
		return 0, err
	}
	if err := w.waitDurableLocked(lsn); err != nil {
		return 0, err
	}
	return lsn, nil
}

// Sync makes every record appended so far durable.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	return w.waitDurableLocked(w.nextLSN - 1)
}

func (w *WAL) appendLocked(payload []byte) (uint64, error) {
	if w.closed {
		return 0, ErrClosed
	}
	if w.err != nil {
		return 0, w.err
	}
	if len(payload) > MaxRecord {
		return 0, ErrTooLarge
	}
	lsn := w.nextLSN
	w.nextLSN++
	w.buf = appendRecord(w.buf, payload)
	w.bytesTotal += int64(len(payload) + headerSize)
	w.mRecords.Inc()
	w.mBytes.Add(int64(len(payload) + headerSize))
	return lsn, nil
}

// waitDurableLocked blocks until durableLSN ≥ lsn, flushing if nobody else
// is. Caller holds w.mu; the lock is dropped during IO and reacquired.
func (w *WAL) waitDurableLocked(lsn uint64) error {
	for {
		if w.durableLSN >= lsn {
			return nil
		}
		if w.err != nil {
			return w.err
		}
		if w.closed {
			return ErrClosed
		}
		if !w.syncing {
			w.flushLocked()
			continue
		}
		round := w.round
		w.mu.Unlock()
		<-round
		w.mu.Lock()
	}
}

// flushLocked writes and fsyncs the buffered records. Caller holds w.mu and
// has checked !w.syncing; the lock is released for the IO and reacquired.
func (w *WAL) flushLocked() {
	if len(w.buf) == 0 || w.err != nil {
		return
	}
	activeSeg := w.segs[len(w.segs)-1]
	firstLSN := activeSeg.base + uint64(activeSeg.records)
	if activeSeg.size >= w.segBytes {
		// Rotate: the old segment is fully synced (every flush syncs), so
		// closing it cannot lose bytes. Rotation happens under the lock —
		// it is rare, and it keeps the segment table consistent.
		if err := w.startSegmentLocked(firstLSN); err != nil {
			w.err = err
			return
		}
		activeSeg = w.segs[len(w.segs)-1]
	}
	w.syncing = true
	round := make(chan struct{})
	w.round = round
	buf := w.buf
	w.buf = w.spare[:0]
	target := w.nextLSN - 1
	file := w.active
	w.mu.Unlock()

	_, err := file.Write(buf)
	if err == nil {
		start := time.Now()
		err = file.Sync()
		w.mFsyncNs.ObserveSince(start)
	}

	w.mu.Lock()
	w.spare = buf[:0]
	if err != nil {
		w.err = fmt.Errorf("wal: flush: %w", err)
	} else {
		w.fsyncsTotal++
		w.mFsyncs.Inc()
		w.durableLSN = target
		w.mDurable.Set(int64(target))
		activeSeg.records = int(target - activeSeg.base + 1)
		activeSeg.size += int64(len(buf))
	}
	w.syncing = false
	w.round = nil
	close(round)
}

// InstallCheckpoint records that the caller's payload captures the effects
// of every record 1..lsn: it is written to a tmp file, fsynced, atomically
// renamed into place, and then the segments entirely below lsn are deleted.
// lsn must not exceed DurableLSN (a checkpoint may not promise records the
// disk does not hold).
func (w *WAL) InstallCheckpoint(lsn uint64, payload []byte) error {
	w.ckptMu.Lock()
	defer w.ckptMu.Unlock()

	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	if lsn > w.durableLSN {
		d := w.durableLSN
		w.mu.Unlock()
		return fmt.Errorf("wal: checkpoint lsn %d above durable lsn %d", lsn, d)
	}
	if lsn < w.ckptLSN {
		c := w.ckptLSN
		w.mu.Unlock()
		return fmt.Errorf("wal: checkpoint lsn %d below installed checkpoint %d", lsn, c)
	}
	old := w.ckptLSN
	w.mu.Unlock()

	final := join(w.dir, ckptName(lsn))
	tmp := final + tmpSuffix
	f, err := w.fs.Create(tmp)
	if err != nil {
		return w.stick(err)
	}
	framed := appendRecord(make([]byte, 0, len(payload)+headerSize), payload)
	if _, err := f.Write(framed); err != nil {
		_ = f.Close()
		return w.stick(err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return w.stick(err)
	}
	if err := f.Close(); err != nil {
		return w.stick(err)
	}
	if err := w.fs.Rename(tmp, final); err != nil {
		return w.stick(err)
	}
	if old != 0 && old != lsn {
		_ = w.fs.Remove(join(w.dir, ckptName(old)))
	}

	w.mu.Lock()
	w.ckptLSN = lsn
	w.ckptPayload = append([]byte(nil), payload...)
	w.mCkptLSN.Set(int64(lsn))
	w.mCheckpoints.Inc()
	w.gcLocked()
	w.mu.Unlock()
	return nil
}

// stick records a checkpoint IO error as the log's sticky error: a log
// whose directory is failing must stop acknowledging writes too.
func (w *WAL) stick(err error) error {
	w.mu.Lock()
	if w.err == nil {
		w.err = fmt.Errorf("wal: checkpoint: %w", err)
	}
	w.mu.Unlock()
	return err
}

// gcLocked removes segments whose every record is covered by the
// checkpoint. The active (last) segment always survives.
func (w *WAL) gcLocked() {
	keep := w.segs[:0]
	for i, seg := range w.segs {
		if i < len(w.segs)-1 && seg.records > 0 && seg.end() <= w.ckptLSN {
			_ = w.fs.Remove(join(w.dir, seg.name))
			continue
		}
		keep = append(keep, seg)
	}
	w.segs = keep
	w.mSegments.Set(int64(len(w.segs)))
}

// Stats snapshots the log.
func (w *WAL) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return Stats{
		AppendedLSN:   w.nextLSN - 1,
		DurableLSN:    w.durableLSN,
		CheckpointLSN: w.ckptLSN,
		Segments:      len(w.segs),
		Bytes:         w.bytesTotal,
		Fsyncs:        w.fsyncsTotal,
	}
}

// DurableLSN returns the last fsynced LSN.
func (w *WAL) DurableLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.durableLSN
}

// Close flushes buffered appends, fsyncs, and closes the active segment.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	// Drain: wait out any in-flight flush, then flush the remainder.
	for {
		if w.syncing {
			round := w.round
			w.mu.Unlock()
			<-round
			w.mu.Lock()
			continue
		}
		if len(w.buf) > 0 && w.err == nil {
			w.flushLocked()
			continue
		}
		break
	}
	w.closed = true
	err := w.err
	if w.active != nil {
		if cerr := w.active.Close(); err == nil {
			err = cerr
		}
		w.active = nil
	}
	w.mu.Unlock()
	return err
}

// Kill abandons the log without flushing: buffered (unsynced) records are
// dropped, exactly as a process death would drop them. Chaos kill paths use
// this; everything else should Close.
func (w *WAL) Kill() {
	w.mu.Lock()
	for w.syncing {
		round := w.round
		w.mu.Unlock()
		<-round
		w.mu.Lock()
	}
	w.closed = true
	w.buf = nil
	if w.active != nil {
		_ = w.active.Close()
		w.active = nil
	}
	w.mu.Unlock()
}

// appendRecord frames payload onto dst.
func appendRecord(dst, payload []byte) []byte {
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	return append(append(dst, hdr[:]...), payload...)
}

// parseRecord splits one framed record off b. ok=false on truncation or
// checksum mismatch.
func parseRecord(b []byte) (payload, rest []byte, ok bool) {
	if len(b) < headerSize {
		return nil, b, false
	}
	ln := binary.LittleEndian.Uint32(b[0:4])
	if ln > MaxRecord || int(ln) > len(b)-headerSize {
		return nil, b, false
	}
	payload = b[headerSize : headerSize+int(ln)]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(b[4:8]) {
		return nil, b, false
	}
	return payload, b[headerSize+int(ln):], true
}
