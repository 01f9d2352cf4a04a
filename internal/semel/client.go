package semel

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// ErrRejected is returned when a write loses the timestamp race: a version
// with a later timestamp already exists (§3.3). Clients with lagging clocks
// see this more often — the skew cost the paper quantifies.
var ErrRejected = errors.New("semel: write rejected (a newer version exists)")

// Client is the SEMEL application library (§3): it timestamps every
// operation with the client's precision clock and routes it to the primary
// of the key's shard.
type Client struct {
	clk clock.Clock
	net transport.Client
	dir *cluster.Directory
	// retries bounds retransmissions of a timed-out or misrouted request.
	retries int
	// spans, when set via EnableTracing, makes every single-key operation
	// a sampled distributed trace rooted at this client.
	spans *obs.SpanStore
}

// NewClient builds a SEMEL client. The clock's client ID becomes part of
// every version this client writes.
func NewClient(clk clock.Clock, net transport.Client, dir *cluster.Directory) *Client {
	return &Client{clk: clk, net: net, dir: dir, retries: 3}
}

// ID returns the client's ID.
func (c *Client) ID() uint32 { return c.clk.Client() }

// Clock returns the client's clock.
func (c *Client) Clock() clock.Clock { return c.clk }

// EnableTracing makes every subsequent single-key operation a distributed
// trace: the RPC carries a TraceContext (so the primary, its replication
// batcher, and the backups record spans under it), and the client keeps the
// root span. The newest root span in Spans() names the latest trace ID.
func (c *Client) EnableTracing(ring int) {
	c.spans = obs.NewSpanStore(fmt.Sprintf("client-%d", c.ID()), ring)
}

// Spans returns the client's root-span store (nil until EnableTracing).
func (c *Client) Spans() *obs.SpanStore { return c.spans }

func (c *Client) primaryFor(key []byte) (string, error) {
	return c.dir.Primary(c.dir.ShardFor(key))
}

// call retries through directory refreshes so a request survives a
// failover that happens mid-flight. With tracing enabled it opens a root
// span (trace ID = span ID) covering all attempts, stamped with the
// client's clock.
func (c *Client) call(ctx context.Context, key []byte, req any) (any, error) {
	if c.spans != nil {
		id := c.spans.NextID()
		ctx = obs.WithReq(ctx, obs.Req{TraceContext: obs.TraceContext{TraceID: id, SpanID: id, Sampled: true}})
		start := c.clk.Now().Ticks
		defer func() {
			c.spans.Add(obs.SpanRecord{
				TraceID: id, SpanID: id,
				Node: c.spans.Node(), Name: routeNames.of(req).name,
				Start: start, End: c.clk.Now().Ticks,
			})
		}()
	}
	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		addr, err := c.primaryFor(key)
		if err != nil {
			return nil, err
		}
		resp, err := c.net.Call(ctx, addr, req)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return nil, lastErr
}

// Get returns the youngest version of key with timestamp ≤ the client's
// current time.
func (c *Client) Get(ctx context.Context, key []byte) (val []byte, ver clock.Timestamp, found bool, err error) {
	return c.GetAt(ctx, key, c.clk.Now())
}

// GetAt returns the youngest version of key with timestamp ≤ at (snapshot
// read in the past, §3.3 — higher concurrency, not linearizable).
func (c *Client) GetAt(ctx context.Context, key []byte, at clock.Timestamp) ([]byte, clock.Timestamp, bool, error) {
	resp, err := c.call(ctx, key, wire.GetRequest{Key: key, At: at})
	if err != nil {
		return nil, clock.Timestamp{}, false, err
	}
	g, ok := resp.(wire.GetResponse)
	if !ok {
		return nil, clock.Timestamp{}, false, fmt.Errorf("semel: unexpected response %T", resp)
	}
	if g.SnapshotMiss {
		return nil, clock.Timestamp{}, false, fmt.Errorf("%w at %v", ErrSnapshotMiss, at)
	}
	return g.Val, g.Version, g.Found, nil
}

// ErrSnapshotMiss is returned by GetAt when the requested snapshot has been
// superseded on a single-version backend.
var ErrSnapshotMiss = errors.New("semel: snapshot no longer available")

// Put creates a new version of key stamped with the client's current time
// and returns the version stamp. The same version is retransmitted on
// retries, so the write is at-most-once.
func (c *Client) Put(ctx context.Context, key, val []byte) (clock.Timestamp, error) {
	ver := c.clk.Now()
	resp, err := c.call(ctx, key, wire.PutRequest{Key: key, Val: val, Version: ver})
	if err != nil {
		return clock.Timestamp{}, err
	}
	p, ok := resp.(wire.PutResponse)
	if !ok {
		return clock.Timestamp{}, fmt.Errorf("semel: unexpected response %T", resp)
	}
	if p.Rejected {
		return clock.Timestamp{}, ErrRejected
	}
	return ver, nil
}

// Delete writes a tombstone over all versions of key.
func (c *Client) Delete(ctx context.Context, key []byte) error {
	ver := c.clk.Now()
	resp, err := c.call(ctx, key, wire.DeleteRequest{Key: key, Version: ver})
	if err != nil {
		return err
	}
	d, ok := resp.(wire.DeleteResponse)
	if !ok {
		return fmt.Errorf("semel: unexpected response %T", resp)
	}
	if d.Rejected {
		return ErrRejected
	}
	return nil
}

// MultiGet reads several keys in one round trip per shard, all at the same
// snapshot timestamp. Results are keyed by the input key strings; missing
// keys are absent from the map.
func (c *Client) MultiGet(ctx context.Context, keys [][]byte) (map[string][]byte, error) {
	at := c.clk.Now()
	byShard := make(map[cluster.ShardID][][]byte)
	for _, k := range keys {
		s := c.dir.ShardFor(k)
		byShard[s] = append(byShard[s], k)
	}
	out := make(map[string][]byte, len(keys))
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make(chan error, len(byShard))
	for shard, shardKeys := range byShard {
		wg.Add(1)
		go func(shard cluster.ShardID, shardKeys [][]byte) {
			defer wg.Done()
			addr, err := c.dir.Primary(shard)
			if err != nil {
				errs <- err
				return
			}
			resp, err := c.net.Call(ctx, addr, wire.MultiGetRequest{Keys: shardKeys, At: at})
			if err != nil {
				errs <- err
				return
			}
			mg, ok := resp.(wire.MultiGetResponse)
			if !ok || len(mg.Items) != len(shardKeys) {
				errs <- fmt.Errorf("semel: malformed multi-get response %T", resp)
				return
			}
			mu.Lock()
			defer mu.Unlock()
			for i, item := range mg.Items {
				if item.Found {
					out[string(shardKeys[i])] = item.Val
				}
			}
		}(shard, shardKeys)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
