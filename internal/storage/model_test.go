package storage

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/clock"
	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/kvlayer"
	"repro/internal/mvftl"
)

// refStore is an executable specification of the multi-version store
// semantics (§3 + §3.1's watermark retention rule), against which the real
// backends are differentially tested under random operation sequences.
type refStore struct {
	m  map[string][]memVersion // youngest first
	wm clock.Timestamp
}

func newRefStore() *refStore { return &refStore{m: make(map[string][]memVersion)} }

func (r *refStore) put(key string, val []byte, ver clock.Timestamp, tomb bool) {
	vs := r.m[key]
	pos := len(vs)
	for i, v := range vs {
		c := ver.Compare(v.ts)
		if c == 0 {
			return // idempotent duplicate
		}
		if c > 0 {
			pos = i
			break
		}
	}
	vs = append(vs, memVersion{})
	copy(vs[pos+1:], vs[pos:])
	vs[pos] = memVersion{ts: ver, val: append([]byte(nil), val...), tombstone: tomb}
	r.m[key] = vs
}

func (r *refStore) setWatermark(ts clock.Timestamp) {
	if r.wm.Before(ts) {
		r.wm = ts
	}
}

// get returns the youngest version ≤ at. Reads at or above the watermark
// are unaffected by pruning (the retention rule guarantees exactly that);
// reads below it are unspecified.
func (r *refStore) get(key string, at clock.Timestamp) (string, clock.Timestamp, bool) {
	for _, v := range r.m[key] {
		if v.ts.AtOrBefore(at) {
			if v.tombstone {
				return "", clock.Timestamp{}, false
			}
			return string(v.val), v.ts, true
		}
	}
	return "", clock.Timestamp{}, false
}

// TestBackendsMatchModel drives every multi-version backend with the same
// random operation stream as the reference model and checks that reads at
// or above the watermark always agree — under packing, garbage collection
// and compaction.
func TestBackendsMatchModel(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		for name, b := range newModelBackends(t) {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				runModel(t, b, seed)
			})
		}
	}
}

// newModelBackends sizes the flash devices for the random stream's
// retention needs (versions live until the watermark passes them).
func newModelBackends(t *testing.T) map[string]Backend {
	t.Helper()
	geo := flash.Geometry{Channels: 2, BlocksPerChannel: 32, PagesPerBlock: 4, PageSize: 256}
	dev, err := flash.NewDevice(flash.Options{Geometry: geo, Sleeper: flash.NopSleeper{}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := mvftl.New(dev, mvftl.Options{PackTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	devV, _ := flash.NewDevice(flash.Options{Geometry: geo, Sleeper: flash.NopSleeper{}})
	f, err := ftl.New(devV, ftl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := kvlayer.New(f, kvlayer.Options{PackTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Backend{"dram": NewDRAM(), "mftl": m, "vftl": v}
}

func runModel(t *testing.T, b Backend, seed int64) {
	r := rand.New(rand.NewSource(seed))
	ref := newRefStore()
	keys := []string{"a", "b", "c", "d", "e", "f"}
	tick := int64(0)
	nextTs := func() clock.Timestamp {
		tick += int64(r.Intn(5) + 1)
		return clock.Timestamp{Ticks: tick, Client: uint32(r.Intn(3) + 1)}
	}
	for i := 0; i < 600; i++ {
		if i%40 == 39 {
			// Steady watermark progress bounds retention, like the
			// periodic client broadcasts of §4.4.
			wm := clock.Timestamp{Ticks: tick - 60}
			if wm.Ticks > 0 {
				b.SetWatermark(wm)
				ref.setWatermark(wm)
			}
		}
		key := keys[r.Intn(len(keys))]
		switch op := r.Intn(10); {
		case op < 5: // put
			ver := nextTs()
			val := []byte(fmt.Sprintf("%s-%d", key, ver.Ticks))
			if err := b.Put([]byte(key), val, ver); err != nil {
				t.Fatalf("op %d put: %v", i, err)
			}
			ref.put(key, val, ver, false)
		case op < 6: // delete
			ver := nextTs()
			if err := b.Delete([]byte(key), ver); err != nil {
				t.Fatalf("op %d delete: %v", i, err)
			}
			ref.put(key, nil, ver, true)
		case op < 7: // out-of-order put (inconsistent replication delivery)
			ver := clock.Timestamp{Ticks: tick - int64(r.Intn(20)), Client: uint32(r.Intn(3) + 1)}
			if ver.Ticks <= ref.wm.Ticks || ver.Ticks <= 0 {
				continue // below the watermark: clients never do this
			}
			val := []byte(fmt.Sprintf("%s-o%d", key, ver.Ticks))
			if err := b.Put([]byte(key), val, ver); err != nil {
				t.Fatalf("op %d ooput: %v", i, err)
			}
			ref.put(key, val, ver, false)
		case op < 8: // advance watermark
			wm := clock.Timestamp{Ticks: tick - int64(r.Intn(30))}
			if wm.Ticks > 0 {
				b.SetWatermark(wm)
				ref.setWatermark(wm)
			}
		default: // read at a timestamp at/above the watermark
			at := clock.Timestamp{Ticks: ref.wm.Ticks + int64(r.Intn(int(tick-ref.wm.Ticks)+2)), Client: ^uint32(0)}
			wantVal, wantVer, wantFound := ref.get(key, at)
			val, ver, found, err := b.Get([]byte(key), at)
			if err != nil {
				t.Fatalf("op %d get: %v", i, err)
			}
			if found != wantFound || (found && (string(val) != wantVal || ver != wantVer)) {
				t.Fatalf("op %d: get(%s@%v) = %q,%v,%v; model says %q,%v,%v",
					i, key, at, val, ver, found, wantVal, wantVer, wantFound)
			}
		}
	}
	// Final sweep: latest of every key must agree.
	maxTs := clock.Timestamp{Ticks: 1<<62 - 1, Client: ^uint32(0)}
	for _, key := range keys {
		wantVal, wantVer, wantFound := ref.get(key, maxTs)
		val, ver, found, err := b.Latest([]byte(key))
		if err != nil {
			t.Fatal(err)
		}
		if found != wantFound || (found && (string(val) != wantVal || ver != wantVer)) {
			t.Fatalf("final %s: %q,%v,%v vs model %q,%v,%v", key, val, ver, found, wantVal, wantVer, wantFound)
		}
	}
}

// TestReadBelowWatermarkTable pins down the retention rule reads rely on, for
// every multi-version backend: a key holds versions 10 and 22, the watermark
// rises to 25, and "pruned" writes version 30, which prunes the key. At or
// above the watermark a read is exact either way. Below it a read is exact
// only until the key is pruned: then version 10 is gone and a read at 20
// finds the key absent — why a server answers every read below its watermark
// with a snapshot miss.
func TestReadBelowWatermarkTable(t *testing.T) {
	at := func(ticks int64) clock.Timestamp { return clock.Timestamp{Ticks: ticks, Client: 1} }
	key := []byte("k")
	for _, pruned := range []bool{false, true} {
		for _, read := range []struct {
			name  string
			at    int64
			found bool
			ver   int64
		}{
			{"below", 20, !pruned, 10},
			{"above", 26, true, 22},
		} {
			for name, b := range newModelBackends(t) {
				t.Run(fmt.Sprintf("%s/pruned=%v/%s", name, pruned, read.name), func(t *testing.T) {
					for _, ver := range []int64{10, 22} {
						if err := b.Put(key, []byte(fmt.Sprint(ver)), at(ver)); err != nil {
							t.Fatal(err)
						}
					}
					b.SetWatermark(at(25))
					if pruned {
						if err := b.Put(key, []byte("30"), at(30)); err != nil {
							t.Fatal(err)
						}
					}
					val, ver, found, err := b.Get(key, at(read.at))
					if err != nil {
						t.Fatal(err)
					}
					if found != read.found || found && (ver != at(read.ver) || string(val) != fmt.Sprint(read.ver)) {
						t.Fatalf("read at %d: %q@%v found=%v; want found=%v at %d", read.at, val, ver, found, read.found, read.ver)
					}
				})
			}
		}
	}
}
