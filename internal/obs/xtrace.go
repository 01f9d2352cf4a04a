// Cross-node tracing: a TraceContext that rides every RPC (in the request
// record of req.go, in the transport's frame header, and per-op inside
// coalesced replication batches), a SpanStore ring where each node records
// spans stamped with its *own* — possibly skewed — clock, and a Collector
// that stitches spans pulled from many nodes into one timeline by applying
// each node's estimated clock offset and annotating every edge with the
// residual uncertainty the sync protocol left behind. The annotation is the
// point: the same trace visibly tightens as the skew profile moves
// NTP → PTP → DTP, which is the paper's argument rendered as a timeline.
package obs

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TraceContext is the causality token carried by every RPC. SpanID is the
// sender's span — the parent of any span the receiver records. The zero
// value means "not traced" and costs nothing to carry.
type TraceContext struct {
	TraceID uint64
	SpanID  uint64
	Sampled bool
}

// SpanRecord is one finished span as recorded by one node. Start/End are raw
// ticks of that node's clock — skew and all; alignment happens only at
// collection time, exactly as it would against real NTP/PTP daemons.
type SpanRecord struct {
	TraceID uint64
	SpanID  uint64
	Parent  uint64 // 0 = root
	Node    string // recording node (server addr or "client-<id>")
	Name    string // operation: "get", "prepare", "replicate-op", ...
	Start   int64  // local clock ticks (ns)
	End     int64
	Outcome string // "" or "ok" = success; anything else is an error/abort
}

// SpanStore is a node's concurrent ring buffer of finished SpanRecords.
// All methods are safe for concurrent use and nil-safe.
type SpanStore struct {
	node   string
	idHigh uint64
	next   atomic.Uint64

	mu     sync.Mutex
	ring   []SpanRecord
	pos    int
	filled bool
}

// NewSpanStore creates a store for node retaining the last ringSize spans
// (ringSize <= 0 means 1024).
func NewSpanStore(node string, ringSize int) *SpanStore {
	if ringSize <= 0 {
		ringSize = 1024
	}
	h := fnv.New32a()
	h.Write([]byte(node))
	return &SpanStore{node: node, idHigh: uint64(h.Sum32()) << 32, ring: make([]SpanRecord, ringSize)}
}

// Node returns the node name stamped on this store's spans.
func (s *SpanStore) Node() string {
	if s == nil {
		return ""
	}
	return s.node
}

// NextID allocates a span (or trace) ID unique across nodes with high
// probability: node-name hash in the high 32 bits, a local counter below.
func (s *SpanStore) NextID() uint64 {
	if s == nil {
		return 0
	}
	return s.idHigh | (s.next.Add(1) & 0xffffffff)
}

// Add records one finished span.
func (s *SpanStore) Add(rec SpanRecord) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.ring[s.pos] = rec
	s.pos++
	if s.pos == len(s.ring) {
		s.pos, s.filled = 0, true
	}
	s.mu.Unlock()
}

// ForTrace returns every retained span of the given trace.
func (s *SpanStore) ForTrace(traceID uint64) []SpanRecord {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []SpanRecord
	for _, rec := range s.all() {
		if rec.TraceID == traceID {
			out = append(out, rec)
		}
	}
	return out
}

// Recent returns all retained spans, oldest first.
func (s *SpanStore) Recent() []SpanRecord {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.all()
}

func (s *SpanStore) all() []SpanRecord {
	var out []SpanRecord
	if s.filled {
		out = append(out, s.ring[s.pos:]...)
	}
	out = append(out, s.ring[:s.pos]...)
	return out
}

// NodeClock is a node's clock-health estimate as seen at collection time:
// the offset the sync daemon believes separates the node from true time, and
// the uncertainty (residual + drift bound) that estimate carries. The
// Collector subtracts OffsetNs to align spans and reports UncertaintyNs as
// the error bar alignment cannot remove.
type NodeClock struct {
	Node          string
	OffsetNs      int64
	UncertaintyNs int64
}

// Collector accumulates spans and clock estimates pulled from many nodes
// and assembles them into stitched, skew-corrected timelines.
type Collector struct {
	spans  map[uint64]SpanRecord // by SpanID (dedupes replica re-fetches)
	order  []uint64              // insertion order, for stable output
	clocks map[string]NodeClock
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{spans: make(map[uint64]SpanRecord), clocks: make(map[string]NodeClock)}
}

// AddSpans merges spans fetched from one node.
func (c *Collector) AddSpans(spans []SpanRecord) {
	for _, sp := range spans {
		if _, ok := c.spans[sp.SpanID]; !ok {
			c.order = append(c.order, sp.SpanID)
		}
		c.spans[sp.SpanID] = sp
	}
}

// SetNodeClock records a node's offset/uncertainty estimate. Nodes without
// one align uncorrected with unknown (zero) uncertainty.
func (c *Collector) SetNodeClock(nc NodeClock) {
	c.clocks[nc.Node] = nc
}

// AlignedSpan is one span placed on the collector's reference timeline.
type AlignedSpan struct {
	SpanRecord
	StartNs int64 // Start minus the node's estimated offset
	EndNs   int64
	// UncertaintyNs is the node's own residual clock uncertainty.
	UncertaintyNs int64
	// EdgeUncertaintyNs bounds the error on this span's placement relative
	// to its parent: the sum of both nodes' uncertainties (the edge crosses
	// two independently disciplined clocks).
	EdgeUncertaintyNs int64
	Depth             int
}

// StitchedTrace is one assembled cross-node timeline.
type StitchedTrace struct {
	TraceID uint64
	// Spans in render order: roots by corrected start time, children
	// depth-first beneath their parents.
	Spans []AlignedSpan
}

// Nodes returns the distinct nodes contributing spans, sorted.
func (t StitchedTrace) Nodes() []string {
	seen := make(map[string]bool)
	var out []string
	for _, sp := range t.Spans {
		if !seen[sp.Node] {
			seen[sp.Node] = true
			out = append(out, sp.Node)
		}
	}
	sort.Strings(out)
	return out
}

// Assemble stitches every collected span of traceID into one timeline:
// each span's local timestamps are corrected by its node's estimated clock
// offset, and each parent→child edge is annotated with the combined residual
// uncertainty of the two clocks involved.
func (c *Collector) Assemble(traceID uint64) StitchedTrace {
	tr := StitchedTrace{TraceID: traceID}
	byID := make(map[uint64]AlignedSpan)
	children := make(map[uint64][]uint64)
	var ids []uint64
	for _, id := range c.order {
		sp := c.spans[id]
		if sp.TraceID != traceID {
			continue
		}
		nc := c.clocks[sp.Node]
		a := AlignedSpan{
			SpanRecord:    sp,
			StartNs:       sp.Start - nc.OffsetNs,
			EndNs:         sp.End - nc.OffsetNs,
			UncertaintyNs: nc.UncertaintyNs,
		}
		byID[sp.SpanID] = a
		ids = append(ids, sp.SpanID)
	}
	isRoot := func(a AlignedSpan) bool {
		_, hasParent := byID[a.Parent]
		return a.Parent == 0 || !hasParent
	}
	var roots []uint64
	for _, id := range ids {
		a := byID[id]
		if isRoot(a) {
			roots = append(roots, id)
			continue
		}
		children[a.Parent] = append(children[a.Parent], id)
	}
	byStart := func(ids []uint64) {
		sort.Slice(ids, func(i, j int) bool {
			ai, aj := byID[ids[i]], byID[ids[j]]
			if ai.StartNs != aj.StartNs {
				return ai.StartNs < aj.StartNs
			}
			return ids[i] < ids[j]
		})
	}
	byStart(roots)
	var walk func(id uint64, depth int, parentUnc int64)
	walk = func(id uint64, depth int, parentUnc int64) {
		a := byID[id]
		a.Depth = depth
		a.EdgeUncertaintyNs = a.UncertaintyNs + parentUnc
		tr.Spans = append(tr.Spans, a)
		kids := children[id]
		byStart(kids)
		for _, k := range kids {
			walk(k, depth+1, a.UncertaintyNs)
		}
	}
	for _, id := range roots {
		walk(id, 0, 0)
	}
	return tr
}

// Render draws the timeline as indented text. Each line shows the span's
// offset-corrected start relative to the trace start, the ± residual
// uncertainty of its placement (own clock + parent's clock), its node,
// operation, duration, and outcome.
func (t StitchedTrace) Render() string {
	if len(t.Spans) == 0 {
		return fmt.Sprintf("trace %016x: no spans\n", t.TraceID)
	}
	t0 := t.Spans[0].StartNs
	for _, sp := range t.Spans {
		if sp.StartNs < t0 {
			t0 = sp.StartNs
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace %016x: %d spans across %d nodes\n", t.TraceID, len(t.Spans), len(t.Nodes()))
	for _, sp := range t.Spans {
		outcome := sp.Outcome
		if outcome == "" {
			outcome = "ok"
		}
		fmt.Fprintf(&b, "%s+%-11s ±%-9s %-16s %-20s %-10s %s\n",
			strings.Repeat("  ", sp.Depth+1),
			fmtDur(sp.StartNs-t0),
			fmtDur(sp.EdgeUncertaintyNs),
			sp.Node,
			sp.Name,
			fmtDur(sp.EndNs-sp.StartNs),
			outcome)
	}
	return b.String()
}

func fmtDur(ns int64) string {
	return time.Duration(ns).Round(10 * time.Nanosecond).String()
}
