// Package cluster provides the shard directory: the global master state of
// §3 that maps each key to a data shard and each shard to its primary and
// backup replicas. The paper implements this with standard techniques
// (consistent hashing, a ZooKeeper-style master); here the directory is an
// in-process object shared by clients and servers, with explicit failover.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// ShardID identifies one shard of the key space.
type ShardID int

// ReplicaSet is the replica group of one shard: a designated primary and 2f
// backups.
type ReplicaSet struct {
	Primary string
	Backups []string
	// Full is the group's original size (2f+1). It persists across
	// failovers: quorum arithmetic must keep using the original f, or a
	// shrunken group would silently weaken its guarantees.
	Full int
	// Epoch counts this shard's failovers. Replication traffic carries
	// the sender's epoch so a message from a deposed regime can be
	// fenced instead of retroactively mutating the new primary's state.
	Epoch uint64
}

// Replicas returns all replica addresses, primary first.
func (r ReplicaSet) Replicas() []string {
	out := make([]string, 0, 1+len(r.Backups))
	out = append(out, r.Primary)
	out = append(out, r.Backups...)
	return out
}

// F returns the number of failures the group was provisioned to tolerate:
// half its *original* size rounded down (the group has 2f+1 members).
// Failovers shrink the live membership but never lower f — a majority of
// the original group remains required for writes, leases and promotion.
func (r ReplicaSet) F() int {
	full := r.Full
	if full == 0 {
		full = 1 + len(r.Backups)
	}
	return full / 2
}

const virtualNodes = 64

type ringEntry struct {
	hash  uint64
	shard ShardID
}

// Directory maps keys to shards (consistent hashing) and shards to replica
// sets. It is safe for concurrent use.
type Directory struct {
	mu     sync.RWMutex
	shards []ReplicaSet
	ring   []ringEntry
	epoch  uint64
}

// New builds a directory over the given replica sets.
func New(shards []ReplicaSet) (*Directory, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: no shards")
	}
	for i, s := range shards {
		if s.Primary == "" {
			return nil, fmt.Errorf("cluster: shard %d has no primary", i)
		}
	}
	for i := range shards {
		if shards[i].Full == 0 {
			shards[i].Full = 1 + len(shards[i].Backups)
		}
	}
	d := &Directory{shards: shards}
	for id := range shards {
		for v := 0; v < virtualNodes; v++ {
			d.ring = append(d.ring, ringEntry{hash: hash64(fmt.Sprintf("shard-%d-vn-%d", id, v)), shard: ShardID(id)})
		}
	}
	sort.Slice(d.ring, func(i, j int) bool { return d.ring[i].hash < d.ring[j].hash })
	return d, nil
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// NumShards returns the shard count.
func (d *Directory) NumShards() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.shards)
}

// ShardFor maps a key to its shard by consistent hashing: the first virtual
// node clockwise from the key's hash.
func (d *Directory) ShardFor(key []byte) ShardID {
	h := fnv.New64a()
	h.Write(key)
	kh := h.Sum64()
	d.mu.RLock()
	defer d.mu.RUnlock()
	i := sort.Search(len(d.ring), func(i int) bool { return d.ring[i].hash >= kh })
	if i == len(d.ring) {
		i = 0
	}
	return d.ring[i].shard
}

// Shard returns the replica set of a shard.
func (d *Directory) Shard(id ShardID) (ReplicaSet, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(id) < 0 || int(id) >= len(d.shards) {
		return ReplicaSet{}, fmt.Errorf("cluster: no shard %d", id)
	}
	return d.copyLocked(id), nil
}

// Primary returns the current primary address of a shard, without copying
// its replica set.
func (d *Directory) Primary(id ShardID) (string, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(id) < 0 || int(id) >= len(d.shards) {
		return "", fmt.Errorf("cluster: no shard %d", id)
	}
	return d.shards[id].Primary, nil
}

func (d *Directory) copyLocked(id ShardID) ReplicaSet {
	s := d.shards[id]
	return ReplicaSet{Primary: s.Primary, Backups: append([]string(nil), s.Backups...), Full: s.Full, Epoch: s.Epoch}
}

// Epoch returns the configuration epoch; it increments on every failover.
func (d *Directory) Epoch() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.epoch
}

// Failover removes the failed primary of a shard and promotes the first
// backup. It returns the promoted address.
func (d *Directory) Failover(id ShardID) (string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(id) < 0 || int(id) >= len(d.shards) {
		return "", fmt.Errorf("cluster: no shard %d", id)
	}
	s := &d.shards[id]
	if len(s.Backups) == 0 {
		return "", fmt.Errorf("cluster: shard %d has no backup to promote", id)
	}
	s.Primary = s.Backups[0]
	s.Backups = append([]string(nil), s.Backups[1:]...)
	s.Epoch++
	d.epoch++
	return s.Primary, nil
}
