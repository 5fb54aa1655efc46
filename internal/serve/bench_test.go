package serve

import (
	"bytes"
	"math/rand"
	"testing"

	"sage/internal/shard"
)

// benchServer builds a server over a freshly compressed container.
func benchServer(b *testing.B, cacheBytes int64) *Server {
	b.Helper()
	data, _, _ := testContainer(b, 2000, 250)
	c, err := shard.Open(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		b.Fatal(err)
	}
	s, err := newServer(c, Config{CacheBytes: cacheBytes})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkShardColdDecode measures the uncached decode path: every
// iteration rebuilds the server so the requested shard is always cold.
func BenchmarkShardColdDecode(b *testing.B) {
	data, _, _ := testContainer(b, 2000, 250)
	c, err := shard.Open(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := newServer(c, Config{})
		if err != nil {
			b.Fatal(err)
		}
		out, err := s.DecodedShardOf(defaultName, i%c.NumShards())
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(out)))
	}
}

// BenchmarkShardWarmCache measures the cache-hit path.
func BenchmarkShardWarmCache(b *testing.B) {
	s := benchServer(b, DefaultCacheBytes)
	out, err := s.DecodedShardOf(defaultName, 0) // warm it
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(out)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.DecodedShardOf(defaultName, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegistryWarmCache measures the cache-hit path through the
// registry: two containers behind one server, alternating reads, every
// request keyed {container, shard} in the shared cache.
func BenchmarkRegistryWarmCache(b *testing.B) {
	dataA, _, _ := testContainer(b, 2000, 250)
	dataB, _, _ := testContainer(b, 1000, 250)
	open := func(data []byte) *shard.Container {
		c, err := shard.Open(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			b.Fatal(err)
		}
		return c
	}
	s, err := NewMulti([]Named{
		{Name: "a", C: open(dataA)},
		{Name: "b", C: open(dataB)},
	}, Config{CacheBytes: DefaultCacheBytes})
	if err != nil {
		b.Fatal(err)
	}
	var warm int64
	for _, name := range []string{"a", "b"} {
		out, err := s.DecodedShardOf(name, 0)
		if err != nil {
			b.Fatal(err)
		}
		warm += int64(len(out))
	}
	b.SetBytes(warm)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.DecodedShardOf("a", 0); err != nil {
			b.Fatal(err)
		}
		if _, err := s.DecodedShardOf("b", 0); err != nil {
			b.Fatal(err)
		}
	}
	if st := s.Stats(); st.Decodes != 2 {
		b.Fatalf("warm registry reads cost %d decodes, want 2", st.Decodes)
	}
}

// BenchmarkShardConcurrentClients measures aggregate throughput with
// parallel clients spread over all shards, cache large enough to hold
// the working set.
func BenchmarkShardConcurrentClients(b *testing.B) {
	s := benchServer(b, DefaultCacheBytes)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := s.DecodedShardOf(defaultName, i%8); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
	if st := s.Stats(); st.Decodes > int64(8) {
		b.Fatalf("concurrent clients caused %d decodes for 8 shards", st.Decodes)
	}
	b.ReportMetric(s.Stats().HitRatio, "hit-ratio")
}

// BenchmarkZipfSteady measures the steady serving phase in process: one
// seeded Zipf(1.1) request stream over 120 shards through
// DecodedShardOf, the cache holding a quarter of their decoded size. The
// stream's first pass warms the cache untimed; each op is the next pass.
// It reports the hit ratio of the timed requests and the decodes one
// pass costs.
func BenchmarkZipfSteady(b *testing.B) {
	const shards, pass = 120, 5000
	data, _, _ := testContainer(b, shards*10, 10)
	c, err := shard.Open(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		b.Fatal(err)
	}
	var decoded int64
	for i := 0; i < c.NumShards(); i++ {
		rs, err := c.DecompressShard(i, nil)
		if err != nil {
			b.Fatal(err)
		}
		decoded += int64(rs.UncompressedSize())
	}
	s, err := newServer(c, Config{CacheBytes: decoded / 4})
	if err != nil {
		b.Fatal(err)
	}
	z := rand.NewZipf(rand.New(rand.NewSource(2)), 1.1, 1, uint64(c.NumShards()-1))
	run := func() {
		for j := 0; j < pass; j++ {
			if _, err := s.DecodedShardOf(defaultName, int(z.Uint64())); err != nil {
				b.Fatal(err)
			}
		}
	}
	run()
	before := s.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	after := s.Stats()
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	b.ReportMetric(float64(hits)/float64(hits+misses), "hit-ratio")
	b.ReportMetric(float64(after.Decodes-before.Decodes)/float64(b.N), "decodes/op")
}
