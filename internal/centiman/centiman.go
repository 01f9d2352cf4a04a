// Package centiman implements the Centiman baseline of §5.3 (Ding et al.,
// SoCC'15), in the configuration the paper compares against: sharded
// validators (one per shard, co-located with storage), optimistic
// concurrency control with validation performed at the validators, and
// watermark-based client-local validation of read-only transactions.
//
// Centiman's local-validation rule differs fundamentally from MILANA's: a
// client may commit a read-only transaction locally only if every version
// it read is at or below the *watermark* (a lagging, periodically
// disseminated bound), falling back to remote validation otherwise. Under
// contention, hot keys always carry young versions, so the local check
// fails and throughput drops — the effect Figure 9 measures.
package centiman

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/transport"
	"repro/internal/wire"
)

// ErrAborted mirrors milana.ErrAborted for the baseline.
var ErrAborted = errors.New("centiman: transaction aborted")

// ValidateRequest asks a validator to validate one shard's slice of a
// transaction.
type ValidateRequest struct {
	ID       wire.TxnID
	CommitTs clock.Timestamp
	ReadSet  []wire.ReadKey
	// WriteKeys are the keys this transaction will write on this shard.
	WriteKeys [][]byte
}

// ValidateResponse is the validator's vote.
type ValidateResponse struct {
	OK bool
}

// Validator validates transactions for one shard. It keeps the commit
// timestamp of the last validated write per key.
type Validator struct {
	mu   sync.Mutex
	last map[string]clock.Timestamp
}

// NewValidator returns an empty validator.
func NewValidator() *Validator { return &Validator{last: make(map[string]clock.Timestamp)} }

// Serve implements transport.Handler.
func (v *Validator) Serve(_ context.Context, req any) (any, error) {
	r, ok := req.(ValidateRequest)
	if !ok {
		return nil, fmt.Errorf("centiman: unexpected request %T", req)
	}
	return v.validate(r), nil
}

// validate is backward OCC: a read conflicts if a younger write committed
// after the version read; a write conflicts if an equal-or-younger write
// already committed. Successful write sets are recorded at CommitTs.
func (v *Validator) validate(r ValidateRequest) ValidateResponse {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, rk := range r.ReadSet {
		if last, ok := v.last[string(rk.Key)]; ok && last.After(rk.Version) {
			return ValidateResponse{OK: false}
		}
	}
	for _, wk := range r.WriteKeys {
		if last, ok := v.last[string(wk)]; ok && last.Compare(r.CommitTs) >= 0 {
			return ValidateResponse{OK: false}
		}
	}
	for _, wk := range r.WriteKeys {
		v.last[string(wk)] = r.CommitTs
	}
	return ValidateResponse{OK: true}
}

// Board is the watermark dissemination service: clients post the timestamp
// below which all of their transactions have completed, and read the global
// minimum. Posting happens only every DisseminateEvery transactions — the
// paper's "clients disseminate watermark after every 1,000 transactions" —
// so the watermark lags, which is precisely what defeats local validation
// under contention.
type Board struct {
	mu      sync.Mutex
	reports map[uint32]clock.Timestamp
	current clock.Timestamp
}

// NewBoard returns an empty board (watermark Zero).
func NewBoard() *Board { return &Board{reports: make(map[uint32]clock.Timestamp)} }

// Post records a client's completed-below timestamp and refreshes the
// global watermark.
func (b *Board) Post(client uint32, ts clock.Timestamp) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if cur, ok := b.reports[client]; ok && ts.AtOrBefore(cur) {
		return
	}
	b.reports[client] = ts
	min := clock.Timestamp{}
	first := true
	for _, t := range b.reports {
		if first || t.Before(min) {
			min = t
			first = false
		}
	}
	b.current = min
}

// Watermark returns the current global watermark.
func (b *Board) Watermark() clock.Timestamp {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.current
}

// Stats counts a client's outcomes.
type Stats struct {
	Committed        int64
	Aborted          int64
	LocalValidated   int64
	RemoteValidated  int64
	ReadOnly         int64
	ReadOnlyRemotely int64
}

// Client runs Centiman transactions: snapshot reads against SEMEL storage
// primaries, validation at per-shard validators, watermark-gated local
// validation for read-only transactions.
type Client struct {
	clk clock.Clock
	net transport.Client
	dir *cluster.Directory
	// validatorAddr maps a shard to its validator's transport address.
	validatorAddr func(shard cluster.ShardID) string
	board         *Board
	// DisseminateEvery is the watermark posting period in transactions
	// (the paper uses 1,000).
	DisseminateEvery int

	seq       atomic.Uint64
	decidedMu sync.Mutex
	decided   clock.Timestamp
	sinceDiss int

	committed       atomic.Int64
	aborted         atomic.Int64
	localValidated  atomic.Int64
	remoteValidated atomic.Int64
	readOnly        atomic.Int64
	roRemote        atomic.Int64
}

// NewClient builds a Centiman client. The client registers with the
// watermark board immediately (its creation time bounds every transaction
// it will ever begin), so one slow-starting client does not pin the global
// watermark at zero.
func NewClient(clk clock.Clock, net transport.Client, dir *cluster.Directory, board *Board, validatorAddr func(cluster.ShardID) string) *Client {
	c := &Client{clk: clk, net: net, dir: dir, board: board, validatorAddr: validatorAddr, DisseminateEvery: 1000}
	c.decided = clk.Now()
	board.Post(c.ID(), c.decided)
	return c
}

// ID returns the client ID.
func (c *Client) ID() uint32 { return c.clk.Client() }

// Stats snapshots the outcome counters.
func (c *Client) Stats() Stats {
	return Stats{
		Committed:        c.committed.Load(),
		Aborted:          c.aborted.Load(),
		LocalValidated:   c.localValidated.Load(),
		RemoteValidated:  c.remoteValidated.Load(),
		ReadOnly:         c.readOnly.Load(),
		ReadOnlyRemotely: c.roRemote.Load(),
	}
}

type readInfo struct {
	ver   clock.Timestamp
	shard cluster.ShardID
}

// Txn is one Centiman transaction.
type Txn struct {
	c     *Client
	id    wire.TxnID
	begin clock.Timestamp
	reads map[string]readInfo
	write map[string][]byte
	done  bool
}

// Begin starts a transaction at the client's current time.
func (c *Client) Begin() *Txn {
	return &Txn{
		c:     c,
		id:    wire.TxnID{Client: c.ID(), Seq: c.seq.Add(1)},
		begin: c.clk.Now(),
		reads: make(map[string]readInfo),
		write: make(map[string][]byte),
	}
}

// Get reads key from a consistent snapshot at ts_begin.
func (t *Txn) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	if v, ok := t.write[string(key)]; ok {
		return append([]byte(nil), v...), true, nil
	}
	if _, ok := t.reads[string(key)]; ok {
		// Value caching elided; re-reads return the recorded version's
		// value from the server, which is stable at ts_begin.
	}
	shard := t.c.dir.ShardFor(key)
	addr, err := t.c.dir.Primary(shard)
	if err != nil {
		return nil, false, err
	}
	resp, err := t.c.net.Call(ctx, addr, wire.GetRequest{Key: key, At: t.begin})
	if err != nil {
		return nil, false, err
	}
	g, ok := resp.(wire.GetResponse)
	if !ok {
		return nil, false, fmt.Errorf("centiman: unexpected response %T", resp)
	}
	if g.SnapshotMiss {
		t.finish(false)
		return nil, false, ErrAborted
	}
	t.reads[string(key)] = readInfo{ver: g.Version, shard: shard}
	return g.Val, g.Found, nil
}

// Put buffers a write.
func (t *Txn) Put(key, val []byte) error {
	t.write[string(key)] = append([]byte(nil), val...)
	return nil
}

// ReadOnly reports whether the transaction buffered no writes.
func (t *Txn) ReadOnly() bool { return len(t.write) == 0 }

func (t *Txn) finish(committed bool) {
	t.done = true
	if committed {
		t.c.committed.Add(1)
	} else {
		t.c.aborted.Add(1)
	}
	if t.ReadOnly() {
		t.c.readOnly.Add(1)
	}
	t.c.noteDecided(t.begin)
}

func (c *Client) noteDecided(ts clock.Timestamp) {
	c.decidedMu.Lock()
	if ts.After(c.decided) {
		c.decided = ts
	}
	c.sinceDiss++
	if c.sinceDiss >= c.DisseminateEvery {
		c.sinceDiss = 0
		c.board.Post(c.ID(), c.decided)
	}
	c.decidedMu.Unlock()
}

// Commit validates and commits. Read-only transactions whose every read
// version is at or below the watermark commit locally; everything else
// validates remotely at the shard validators, then applies its writes to
// storage.
func (t *Txn) Commit(ctx context.Context) error {
	if t.done {
		return errors.New("centiman: transaction already finished")
	}
	if t.ReadOnly() {
		wm := t.c.board.Watermark()
		local := !wm.IsZero()
		for _, ri := range t.reads {
			if ri.ver.After(wm) {
				local = false
				break
			}
		}
		if local {
			t.c.localValidated.Add(1)
			t.finish(true)
			return nil
		}
		t.c.roRemote.Add(1)
	}
	return t.remoteCommit(ctx)
}

func (t *Txn) remoteCommit(ctx context.Context) error {
	t.c.remoteValidated.Add(1)
	commitTs := t.c.clk.Now()
	type shardSets struct {
		reads  []wire.ReadKey
		writes [][]byte
	}
	byShard := make(map[cluster.ShardID]*shardSets)
	at := func(s cluster.ShardID) *shardSets {
		ss := byShard[s]
		if ss == nil {
			ss = &shardSets{}
			byShard[s] = ss
		}
		return ss
	}
	for k, ri := range t.reads {
		ss := at(ri.shard)
		ss.reads = append(ss.reads, wire.ReadKey{Key: []byte(k), Version: ri.ver})
	}
	for k := range t.write {
		s := t.c.dir.ShardFor([]byte(k))
		ss := at(s)
		ss.writes = append(ss.writes, []byte(k))
	}
	// Validate at every involved validator, in parallel.
	votes := make(chan bool, len(byShard))
	for shard, ss := range byShard {
		shard, ss := shard, ss
		go func() {
			resp, err := t.c.net.Call(ctx, t.c.validatorAddr(shard), ValidateRequest{
				ID: t.id, CommitTs: commitTs, ReadSet: ss.reads, WriteKeys: ss.writes,
			})
			if err != nil {
				votes <- false
				return
			}
			vr, ok := resp.(ValidateResponse)
			votes <- ok && vr.OK
		}()
	}
	commit := true
	for range byShard {
		if !<-votes {
			commit = false
		}
	}
	if !commit {
		t.finish(false)
		return ErrAborted
	}
	// Apply the writes to storage. A rejection means a validated
	// transaction with a younger timestamp already overwrote the key,
	// which is serializably equivalent to our write being superseded.
	for k, v := range t.write {
		addr, err := t.c.dir.Primary(t.c.dir.ShardFor([]byte(k)))
		if err != nil {
			t.finish(false)
			return err
		}
		if _, err := t.c.net.Call(ctx, addr, wire.PutRequest{Key: []byte(k), Val: v, Version: commitTs}); err != nil {
			t.finish(false)
			return err
		}
	}
	t.c.decidedMu.Lock()
	if commitTs.After(t.c.decided) {
		t.c.decided = commitTs
	}
	t.c.decidedMu.Unlock()
	t.finish(true)
	return nil
}

// RunTransaction executes fn with retry-on-abort semantics matching the
// MILANA client's.
func (c *Client) RunTransaction(ctx context.Context, fn func(t *Txn) error) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		t := c.Begin()
		err := fn(t)
		if err == nil {
			err = t.Commit(ctx)
		}
		if err == nil {
			return nil
		}
		if !t.done {
			t.finish(false)
		}
		if !errors.Is(err, ErrAborted) {
			return err
		}
	}
}
