// Package retwis generates the Retwis benchmark workload of §5.2: a
// Twitter-clone transaction mix (Table 2) over a user population whose
// popularity follows a Zipf distribution with tunable exponent α — the
// paper's "Retwis Contention parameter". Higher α concentrates accesses on
// fewer users, increasing key sharing between concurrent transactions.
//
// Transactions are generated as key-level specifications so an aborted
// transaction can be retried "with the same set of keys and without any
// wait", exactly as in the paper's experiments.
package retwis

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Kind enumerates the Table 2 transaction types.
type Kind int

// The four Retwis transaction types.
const (
	AddUser Kind = iota
	FollowUser
	PostTweet
	GetTimeline
)

// String names the transaction type.
func (k Kind) String() string {
	switch k {
	case AddUser:
		return "AddUser"
	case FollowUser:
		return "FollowUser"
	case PostTweet:
		return "PostTweet"
	default:
		return "GetTimeline"
	}
}

// Mix is a workload composition in percent.
type Mix struct {
	AddUser     int
	FollowUser  int
	PostTweet   int
	GetTimeline int
}

// DefaultMix is Table 2: 5 / 10 / 35 / 50.
var DefaultMix = Mix{AddUser: 5, FollowUser: 10, PostTweet: 35, GetTimeline: 50}

// ReadHeavyMix is the 75%-read-only variant of §5.2's throughput/latency
// experiment: 5 / 10 / 10 / 75.
var ReadHeavyMix = Mix{AddUser: 5, FollowUser: 10, PostTweet: 10, GetTimeline: 75}

func (m Mix) total() int { return m.AddUser + m.FollowUser + m.PostTweet + m.GetTimeline }

// KV is one write of a transaction specification.
type KV struct {
	Key string
	Val []byte
}

// TxnSpec is a fully materialized transaction: the exact keys it reads and
// writes. Retries reuse the spec unchanged.
type TxnSpec struct {
	Kind   Kind
	Reads  []string
	Writes []KV
}

// ReadOnly reports whether the spec writes nothing.
func (s TxnSpec) ReadOnly() bool { return len(s.Writes) == 0 }

// zipf samples ranks 1..n with probability ∝ 1/rank^alpha. Unlike
// math/rand's Zipf it supports exponents ≤ 1, which the paper's contention
// sweep (α ∈ [0.4, 0.8]) requires.
type zipf struct {
	cum []float64
}

func newZipf(n int, alpha float64) *zipf {
	z := &zipf{cum: make([]float64, n)}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), alpha)
		z.cum[i] = sum
	}
	return z
}

// sample returns a rank in [0, n).
func (z *zipf) sample(r *rand.Rand) int {
	u := r.Float64() * z.cum[len(z.cum)-1]
	return sort.SearchFloat64s(z.cum, u)
}

// DefaultValueSize is the payload size, in bytes, of a value that Populate
// writes and that a Generator writes when Options.ValueSize is unset.
const DefaultValueSize = 64

// Options configures a Generator.
type Options struct {
	// Users is the pre-populated user count.
	Users int
	// Alpha is the Zipf contention exponent (0 = uniform).
	Alpha float64
	// Mix is the transaction mix; zero value means DefaultMix.
	Mix Mix
	// ValueSize is the payload size of written values (default
	// DefaultValueSize; the paper's device experiments use 512-byte
	// tuples).
	ValueSize int
	// Seed makes the stream reproducible.
	Seed int64
	// FreshUserBase is the first user id AddUser creates (default
	// Users). Concurrent benchmark instances must use disjoint bases so
	// their AddUser transactions do not collide.
	FreshUserBase int
}

// Generator produces TxnSpecs. It is not safe for concurrent use; create
// one per client (as the paper runs independent benchmark instances).
type Generator struct {
	opt  Options
	rng  *rand.Rand
	dist *zipf
	next int // next fresh user id for AddUser
}

// NewGenerator builds a generator over a population of opt.Users existing
// users.
func NewGenerator(opt Options) *Generator {
	if opt.Users <= 0 {
		opt.Users = 1000
	}
	if opt.Mix.total() == 0 {
		opt.Mix = DefaultMix
	}
	if opt.ValueSize <= 0 {
		opt.ValueSize = DefaultValueSize
	}
	if opt.FreshUserBase == 0 {
		opt.FreshUserBase = opt.Users
	}
	g := &Generator{opt: opt, rng: rand.New(rand.NewSource(opt.Seed)), next: opt.FreshUserBase}
	if opt.Alpha > 0 {
		g.dist = newZipf(opt.Users, opt.Alpha)
	}
	return g
}

// user samples an existing user id, Zipf-skewed when α > 0.
func (g *Generator) user() int {
	if g.dist != nil {
		return g.dist.sample(g.rng)
	}
	return g.rng.Intn(g.opt.Users)
}

func (g *Generator) val() []byte {
	b := make([]byte, g.opt.ValueSize)
	for i := range b {
		b[i] = byte('a' + g.rng.Intn(26))
	}
	return b
}

// Key names used by the workload; exported for pre-population.
func UserKey(u int) string      { return fmt.Sprintf("user:%d", u) }
func FollowersKey(u int) string { return fmt.Sprintf("followers:%d", u) }
func FollowingKey(u int) string { return fmt.Sprintf("following:%d", u) }
func TimelineKey(u int) string  { return fmt.Sprintf("timeline:%d", u) }
func PostKey(u, seq int) string { return fmt.Sprintf("post:%d:%d", u, seq) }

// Next generates one transaction specification following the mix.
func (g *Generator) Next() TxnSpec {
	p := g.rng.Intn(g.opt.Mix.total())
	switch {
	case p < g.opt.Mix.AddUser:
		return g.addUser()
	case p < g.opt.Mix.AddUser+g.opt.Mix.FollowUser:
		return g.followUser()
	case p < g.opt.Mix.AddUser+g.opt.Mix.FollowUser+g.opt.Mix.PostTweet:
		return g.postTweet()
	default:
		return g.getTimeline()
	}
}

// addUser is Table 2's Add User: 1 GET, 2 PUTs.
func (g *Generator) addUser() TxnSpec {
	u := g.next
	g.next++
	return TxnSpec{
		Kind:  AddUser,
		Reads: []string{UserKey(u)}, // existence check
		Writes: []KV{
			{Key: UserKey(u), Val: g.val()},
			{Key: FollowersKey(u), Val: g.val()},
		},
	}
}

// followUser is Table 2's Follow User: 2 GETs, 2 PUTs.
func (g *Generator) followUser() TxnSpec {
	a := g.user()
	b := g.user()
	for b == a {
		b = g.user()
	}
	return TxnSpec{
		Kind:  FollowUser,
		Reads: []string{UserKey(a), UserKey(b)},
		Writes: []KV{
			{Key: FollowingKey(a), Val: g.val()},
			{Key: FollowersKey(b), Val: g.val()},
		},
	}
}

// postTweet is Table 2's Post Tweet: 3 GETs, 5 PUTs — the post plus fan-out
// to follower timelines.
func (g *Generator) postTweet() TxnSpec {
	u := g.user()
	f1 := g.user()
	f2 := g.user()
	seq := g.rng.Intn(1 << 20)
	return TxnSpec{
		Kind:  PostTweet,
		Reads: []string{UserKey(u), FollowersKey(u), TimelineKey(u)},
		Writes: []KV{
			{Key: PostKey(u, seq), Val: g.val()},
			{Key: TimelineKey(u), Val: g.val()},
			{Key: TimelineKey(f1), Val: g.val()},
			{Key: TimelineKey(f2), Val: g.val()},
			{Key: FollowersKey(u), Val: g.val()},
		},
	}
}

// getTimeline is Table 2's Get Timeline: rand(1,10) GETs, 0 PUTs.
func (g *Generator) getTimeline() TxnSpec {
	u := g.user()
	n := 1 + g.rng.Intn(10)
	reads := make([]string, 0, n)
	reads = append(reads, TimelineKey(u))
	for i := 1; i < n; i++ {
		reads = append(reads, TimelineKey(g.user()))
	}
	return TxnSpec{Kind: GetTimeline, Reads: reads}
}

// Store is the transactional surface a spec executes against; both
// milana.Txn and the Centiman baseline transaction satisfy it.
type Store interface {
	Get(ctx context.Context, key []byte) (val []byte, found bool, err error)
	Put(key, val []byte) error
}

// Execute runs the spec's reads and buffered writes against a transaction.
func Execute(ctx context.Context, t Store, spec TxnSpec) error {
	for _, k := range spec.Reads {
		if _, _, err := t.Get(ctx, []byte(k)); err != nil {
			return err
		}
	}
	for _, kv := range spec.Writes {
		if err := t.Put([]byte(kv.Key), kv.Val); err != nil {
			return err
		}
	}
	return nil
}

// PopulationKeys enumerates the keys that should exist before the workload
// starts: user records, follower lists and timelines for every user.
func PopulationKeys(users int) []string {
	keys := make([]string, 0, users*4)
	for u := 0; u < users; u++ {
		keys = append(keys, UserKey(u), FollowersKey(u), FollowingKey(u), TimelineKey(u))
	}
	return keys
}
