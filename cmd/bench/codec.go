package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"testing"

	"repro/internal/clock"
	"repro/internal/wire"
)

// codecMicrobenchmarks measures message-level round trips (encode one
// message, decode it back) for the two hot-path messages the wire codec was
// built around, in two flavors:
//
//   - *-v1: wire.Codec Append into a reused buffer + Decode. This is the
//     per-frame work the transport does on the hot path.
//   - *-gob: a fresh gob encoder/decoder per message, i.e. the cost of gob
//     as a stateless message codec (type descriptors retransmitted every
//     time). Nothing outside this command speaks gob; the row is the
//     baseline the codec's numbers are read against.
//
// Results ride the same JSON trajectory as the scenario benchmarks, with
// ns/op, B/op and allocs/op from testing.Benchmark + ReportAllocs.
func codecMicrobenchmarks() []result {
	ts := clock.Timestamp{Ticks: 123456789, Client: 7}
	getReq := wire.GetRequest{Key: []byte("user:12345:profile"), At: ts}
	repl := wire.ReplicateData{Ops: make([]wire.DataOp, 16)}
	for i := range repl.Ops {
		repl.Ops[i] = wire.DataOp{
			Key:     []byte(fmt.Sprintf("user:%05d:profile", i)),
			Val:     bytes.Repeat([]byte{byte(i)}, 64),
			Version: clock.Timestamp{Ticks: ts.Ticks + int64(i), Client: ts.Client},
		}
	}
	msgs := []struct {
		name string
		msg  any
	}{
		{"codec/getrequest", getReq},
		{"codec/replicate16", repl},
	}
	var out []result
	for _, m := range msgs {
		gob.Register(m.msg)
		out = append(out,
			microResult(m.name+"-v1", "wire codec v1 Append+Decode, reused buffer", benchV1(m.msg)),
			microResult(m.name+"-gob", "fresh gob encoder/decoder per message (stateless baseline)", benchGobFresh(m.msg)),
		)
	}
	return out
}

func microResult(name, notes string, br testing.BenchmarkResult) result {
	return result{
		Name:        name,
		Concurrency: 1,
		Ops:         int64(br.N),
		OpsPerSec:   1e9 / float64(br.NsPerOp()),
		NsPerOp:     float64(br.NsPerOp()),
		BytesPerOp:  br.AllocedBytesPerOp(),
		AllocsPerOp: br.AllocsPerOp(),
		Notes:       notes,
	}
}

func benchV1(msg any) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			var err error
			buf, err = wire.Codec.Append(buf[:0], msg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := wire.Codec.Decode(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func benchGobFresh(msg any) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			holder := msg
			if err := gob.NewEncoder(&buf).Encode(&holder); err != nil {
				b.Fatal(err)
			}
			var out any
			if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
				b.Fatal(err)
			}
		}
	})
}
