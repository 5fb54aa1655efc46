package shard

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"sage/internal/fastq"
	"sage/internal/genome"
	"sage/internal/reorder"
	"sage/internal/simulate"
)

// Wall-clock worker-pool benchmarks. On a multi-core machine the
// compress/decompress throughput scales with the worker count; compare
// against the machine-independent scaling model in internal/bench
// (experiment "shard").

func benchSet(b *testing.B) (*fastq.ReadSet, Options) {
	rs, ref := testSet(b, 1024)
	opt := DefaultOptions(ref)
	opt.ShardReads = 128 // 8 shards
	return rs, opt
}

func BenchmarkCompress(b *testing.B) {
	rs, opt := benchSet(b)
	raw := int64(len(rs.Bytes()))
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opt.Workers = workers
			b.SetBytes(raw)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := Compress(rs, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDecompress(b *testing.B) {
	rs, opt := benchSet(b)
	data, _, err := Compress(rs, opt)
	if err != nil {
		b.Fatal(err)
	}
	raw := int64(len(rs.Bytes()))
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(raw)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Decompress(data, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecompressSmallShards is the repository benchmark's decode
// pass on the serve_zipf shape: 11 520 short reads over a 96 kb genome
// in 96-read shards (120 shards, a header past Open's first 64 KiB
// read), opened and streamed to FASTQ text. Per-shard costs — the pool's
// claim and emit, the block parse — weigh most at this shard size.
func BenchmarkDecompressSmallShards(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	ref := genome.Random(rng, 96_000)
	donor, _ := genome.Donor(rng, ref, genome.HumanLikeProfile())
	rs, err := simulate.New(rng, donor).ShortReads(11_520, simulate.DefaultShortProfile())
	if err != nil {
		b.Fatal(err)
	}
	opt := DefaultOptions(ref)
	opt.ShardReads = 96
	data, _, err := Compress(rs, opt)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(rs.UncompressedSize()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c, err := Open(bytes.NewReader(data), int64(len(data)))
				if err != nil {
					b.Fatal(err)
				}
				if err := c.DecompressTo(io.Discard, nil, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecompressOriginal restores a clump-reordered container to
// input order on one worker, in memory and spilled under a quarter of
// the input — what the repository benchmark's 1 MiB is to the reads of
// its paired_gz_reorder workload.
func BenchmarkDecompressOriginal(b *testing.B) {
	rs, ref := testSet(b, 4096)
	input := rs.Bytes()
	opt := DefaultOptions(ref)
	opt.ShardReads = 256
	data, _, _ := reorderCompress(b, input, opt, false, reorder.SortConfig{})
	c, err := Parse(data)
	if err != nil {
		b.Fatal(err)
	}
	for _, budget := range []int64{0, int64(len(input) / 4)} {
		b.Run(fmt.Sprintf("budget=%d", budget), func(b *testing.B) {
			sc := reorder.SortConfig{MemBudget: budget, TmpDir: b.TempDir()}
			b.SetBytes(int64(len(input)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.DecompressOriginalTo(io.Discard, nil, 1, sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecompressLong decodes long reads of the simulator's default
// nanopore profile in 8-read shards on one worker, the shape of the
// repository benchmark's long_plain workload: long reads are the other
// half of what the quality stream and the base reconstruction see.
func BenchmarkDecompressLong(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	ref := genome.Random(rng, 100_000)
	donor, _ := genome.Donor(rng, ref, genome.HumanLikeProfile())
	rs, err := simulate.New(rng, donor).LongReads(32, simulate.DefaultLongProfile())
	if err != nil {
		b.Fatal(err)
	}
	opt := DefaultOptions(ref)
	opt.ShardReads = 8 // 4 shards
	data, _, err := Compress(rs, opt)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(rs.Bytes())))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompress(data, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseIndex(b *testing.B) {
	rs, opt := benchSet(b)
	data, _, err := Compress(rs, opt)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(data); err != nil {
			b.Fatal(err)
		}
	}
}

// benchHeader marshals a 20 000-entry v4 header (two sources, zone maps,
// 64-byte sketches) — the size at which per-field costs of the header
// codec stop hiding behind the fixed ones.
func benchHeader(b *testing.B) (*Index, []byte) {
	const n = 20000
	ix := &Index{ShardReads: 100, SketchBytes: 64,
		Sources: []SourceFile{{Name: "lane1_R1.fq", Mate: "lane1_R2.fq"}, {Name: "lane2.fq"}},
		Entries: make([]Entry, n)}
	sketch := make([]byte, ix.SketchBytes)
	var off int64
	for i := range ix.Entries {
		e := &ix.Entries[i]
		*e = Entry{ReadCount: 100, Offset: off, Length: int64(9000 + i%500), Source: i * 2 / n,
			Zone: ZoneMap{MinLen: 90, MaxLen: 151, QualReads: 100, LowQualReads: i % 7, MinPhred: 2,
				AvgPhredMilli: 30500, MinAvgPhredMilli: 12000, MaxAvgPhredMilli: 38000,
				MinEEMilli: 20, MaxEEMilli: 2500, MinGCMilli: 400, MaxGCMilli: 600, Sketch: sketch},
			Checksum: uint32(i) * 2654435761}
		off += e.Length
		ix.TotalReads += e.ReadCount
		ix.Sources[e.Source].Reads += e.ReadCount
	}
	hdr, err := marshalHeader(ix, nil)
	if err != nil {
		b.Fatal(err)
	}
	return ix, hdr
}

func BenchmarkMarshalHeader(b *testing.B) {
	ix, hdr := benchHeader(b)
	b.SetBytes(int64(len(hdr)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := marshalHeader(ix, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseHeader(b *testing.B) {
	ix, hdr := benchHeader(b)
	total := int64(len(hdr)) + ix.BlockBytes()
	b.SetBytes(int64(len(hdr)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := parseHeader(hdr, total); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComputeZoneMap summarizes one shard of each shape the
// repository benchmark cuts, at the sketch size each auto-sizes to: 2048
// bytes is a power of two and takes the mask, 768 bytes divides.
func BenchmarkComputeZoneMap(b *testing.B) {
	short, _ := testSet(b, 256)
	rng := rand.New(rand.NewSource(7))
	long, err := simulate.New(rng, genome.Random(rng, 100_000)).LongReads(8, simulate.DefaultLongProfile())
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name        string
		recs        []fastq.Record
		sketchBytes int
	}{
		{"256x150bp/2048B", short.Records, 2048},
		{"96x150bp/768B", short.Records[:96], 768},
		{"8long/64B", long.Records, 64},
	} {
		b.Run(bc.name, func(b *testing.B) {
			bases := 0
			for i := range bc.recs {
				bases += len(bc.recs[i].Seq)
			}
			b.SetBytes(int64(bases))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ComputeZoneMap(bc.recs, bc.sketchBytes, true)
			}
		})
	}
}
