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
		if _, _, _, ok := alignBand(sc, read, cons[200-pad:], 0, 2*pad); !ok {
			b.Fatal("no alignment")
		}
	}
}
