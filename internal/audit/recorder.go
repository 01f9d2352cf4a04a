package audit

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/check"
	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Artifact kinds.
const (
	KindConviction       = "conviction"        // the spot-checker found an anomaly
	KindEpsilonViolation = "epsilon-violation" // commit wait did not cover ε
	KindWatchdogAlert    = "watchdog-alert"    // the tsdb watchdog convicted a metric
)

// Artifact is one flight-recorder dump: everything needed to diagnose a
// violation after the offending window has been discarded. It marshals to
// JSON both for the on-disk artifact files and for wire.AuditResponse
// (which carries artifacts as opaque JSON blobs).
type Artifact struct {
	// Kind is KindConviction or KindEpsilonViolation.
	Kind string `json:"kind"`
	// Seq numbers artifacts within one auditor, oldest first.
	Seq int `json:"seq"`
	// Wallclock is the host wall time the artifact was filed (RFC3339Nano).
	Wallclock string `json:"wallclock"`
	// Profile is the clock-synchronization profile label.
	Profile string `json:"profile"`
	// Anomaly describes the violation.
	Anomaly string `json:"anomaly"`

	// Conviction fields: the cut the window closed at, the minimal anomaly
	// cycle, and the checked window (frontier synthetics and retained
	// unknowns included — exactly the transaction set the checker saw).
	Cut    clock.Timestamp `json:"cut,omitempty"`
	Cycle  []check.Edge    `json:"cycle,omitempty"`
	Window []check.Txn     `json:"window,omitempty"`

	// ε-violation fields: the offending transaction, its commit timestamp,
	// the bound it was checked against, and the (negative) margin.
	TxnID    wire.TxnID      `json:"txn_id,omitempty"`
	CommitTs clock.Timestamp `json:"commit_ts,omitempty"`
	Epsilon  time.Duration   `json:"epsilon_ns,omitempty"`
	MarginNs int64           `json:"margin_ns,omitempty"`

	// Watchdog-alert fields: which rule convicted which series, the value
	// that fired, and the threshold it crossed.
	Rule      string  `json:"rule,omitempty"`
	Series    string  `json:"series,omitempty"`
	Value     float64 `json:"value,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`

	// Context: recent spans of the involved trace IDs and a cluster
	// clock-health snapshot at filing time.
	Spans  []obs.SpanRecord        `json:"spans,omitempty"`
	Clocks map[string]clock.Health `json:"clocks,omitempty"`
}

// recorder retains artifacts in a ring and optionally persists each one to
// an atomically renamed JSON file.
type recorder struct {
	dir  string
	mu   sync.Mutex
	ring []*Artifact // oldest first, len ≤ cap
	max  int
	seq  int
}

func newRecorder(dir string, ring int) *recorder {
	return &recorder{dir: dir, max: ring}
}

// file stamps, retains and (optionally) persists one artifact.
func (r *recorder) file(a *Artifact) {
	r.mu.Lock()
	r.seq++
	a.Seq = r.seq
	a.Wallclock = time.Now().UTC().Format(time.RFC3339Nano)
	if len(r.ring) == r.max {
		copy(r.ring, r.ring[1:])
		r.ring[len(r.ring)-1] = a
	} else {
		r.ring = append(r.ring, a)
	}
	dir := r.dir
	r.mu.Unlock()
	if dir == "" {
		return
	}
	r.persist(dir, a)
}

// persist writes the artifact via temp-file + rename, so readers never see
// a torn dump.
func (r *recorder) persist(dir string, a *Artifact) {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	name := fmt.Sprintf("audit-%06d-%s.json", a.Seq, a.Kind)
	tmp, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	_ = os.Rename(tmp.Name(), filepath.Join(dir, name))
}

// artifacts returns the retained artifacts, oldest first.
func (r *recorder) artifacts() []*Artifact {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Artifact(nil), r.ring...)
}

// artifactsJSON returns the retained artifacts JSON-encoded, oldest first.
func (r *recorder) artifactsJSON() [][]byte {
	arts := r.artifacts()
	out := make([][]byte, 0, len(arts))
	for _, a := range arts {
		data, err := json.Marshal(a)
		if err != nil {
			continue
		}
		out = append(out, data)
	}
	return out
}
