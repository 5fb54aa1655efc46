package mapper

import (
	"math/rand"
	"testing"

	"sage/internal/genome"
)

func benchMapper(b *testing.B, genomeLen int) (*Mapper, genome.Seq) {
	b.Helper()
	rng := rand.New(rand.NewSource(4))
	cons := genome.Random(rng, genomeLen)
	m, err := New(cons, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	return m, cons
}

func BenchmarkMapShortRead(b *testing.B) {
	m, cons := benchMapper(b, 200000)
	rng := rand.New(rand.NewSource(5))
	reads := make([]genome.Seq, 64)
	for i := range reads {
		start := rng.Intn(len(cons) - 150)
		r := cons[start : start+150].Clone()
		r[rng.Intn(len(r))] = byte(rng.Intn(4))
		reads[i] = r
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := m.Map(reads[i%len(reads)])
		if !a.Mapped {
			b.Fatal("read failed to map")
		}
	}
}

func BenchmarkMapLongRead(b *testing.B) {
	m, cons := benchMapper(b, 400000)
	rng := rand.New(rand.NewSource(6))
	reads := make([]genome.Seq, 8)
	for i := range reads {
		start := rng.Intn(len(cons) - 5000)
		r := cons[start : start+5000].Clone()
		for j := 0; j < len(r); j++ {
			if rng.Float64() < 0.05 {
				r[j] = byte(rng.Intn(4))
			}
		}
		reads[i] = r
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := m.Map(reads[i%len(reads)])
		if !a.Mapped {
			b.Fatal("read failed to map")
		}
	}
}

// BenchmarkMapWorkload maps what ingest maps: the repository benchmark's
// short_plain and long_plain read sets (the same simulator settings,
// genome length and depth) against their consensus, one read per op.
// Unlike the two benchmarks above, these reads carry indels, N, clips and
// chimeras, and reach every tier of the mapper. words/base is the
// second tier's kernel work: 64-cell word updates per read base mapped.
func BenchmarkMapWorkload(b *testing.B) {
	for _, w := range []struct {
		name string
		long bool
		glen int
	}{{"short", false, 96000}, {"long", true, 160000}} {
		b.Run(w.name, func(b *testing.B) {
			ref, reads := workloadReads(b, w.long, w.glen, 2)
			m, err := New(ref, DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				m.Map(reads[i%len(reads)])
			}
			// The kernel work comes from one untimed pass over the set,
			// with a scratch of its own to count in.
			sc, bases := new(mapScratch), 0
			for _, r := range reads {
				m.mapWith(sc, r, m.alignAnchored)
				bases += len(r)
			}
			b.ReportMetric(float64(sc.words)/float64(bases), "words/base")
		})
	}
}

// BenchmarkAlignKernel times the tier-2 kernel alone on a 1.6 kb piece
// with 3 % substitutions, over the window and band a pinned cluster
// gives it.
func BenchmarkAlignKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	cons := genome.Random(rng, 2000)
	read := cons[200:1800].Clone()
	for j := 0; j < len(read); j++ {
		if rng.Float64() < 0.03 {
			read[j] = byte(rng.Intn(4))
		}
	}
	pad := DefaultConfig().BandPad
	sc := new(mapScratch)
	b.SetBytes(int64(len(read)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, ok := bandAlign(sc, read, cons[200-pad:], 0, 2*pad, 0); !ok {
			b.Fatal("no alignment")
		}
	}
}

// BenchmarkNewIndex builds the default index over the repository
// benchmark's 96 kb consensus.
func BenchmarkNewIndex(b *testing.B) {
	cons := genome.Random(rand.New(rand.NewSource(8)), 96000)
	b.SetBytes(int64(len(cons)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewIndex(cons, DefaultIndexConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexLookup probes that index with k-mers it holds, with
// k-mers it does not, and with what seeding sends it: the SeedStep-th
// k-mers of 150-base reads with one substitution, on both strands, so
// half of the probes find nothing.
func BenchmarkIndexLookup(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	cons := genome.Random(rng, 96000)
	cfg := DefaultConfig()
	idx, err := NewIndex(cons, cfg.Index)
	if err != nil {
		b.Fatal(err)
	}
	var present, absent, mix []uint64
	for len(present) < 1<<17 {
		p := rng.Intn(len(cons) - idx.k)
		code, _ := encodeKmer(cons[p : p+idx.k])
		present = append(present, code)
	}
	for len(absent) < 1<<17 {
		if code := rng.Uint64() >> (64 - 2*idx.k); idx.Lookup(code) == nil {
			absent = append(absent, code)
		}
	}
	for len(mix) < 1<<17 {
		p := rng.Intn(len(cons) - 150)
		read := cons[p : p+150].Clone()
		read[rng.Intn(len(read))] = byte(rng.Intn(4))
		for _, oriented := range []genome.Seq{read, read.ReverseComplement()} {
			ForEachKmer(oriented, idx.k, cfg.SeedStep, func(_ int, code uint64) { mix = append(mix, code) })
		}
	}
	for _, probes := range []struct {
		name  string
		codes []uint64
	}{{"present", present}, {"absent", absent}, {"seeds", mix}} {
		b.Run(probes.name, func(b *testing.B) {
			hits := 0
			for i := 0; i < b.N; i++ {
				hits += len(idx.Lookup(probes.codes[i%len(probes.codes)]))
			}
			b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
		})
	}
}
