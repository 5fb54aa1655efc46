package qual

import (
	"math/rand"
	"testing"
)

// benchFixtures are 500 reads of 150 scores each: a clamped random walk
// (strongly correlated neighbours), the repository benchmark's regime of
// iid N(36,4) scores, and constant scores, where nothing mispredicts and
// what is left is the coder's own arithmetic.
var benchFixtures = []struct {
	name string
	fill scoreFill
}{
	{"walk", func(rng *rand.Rand, q []byte) {
		level := 36.0
		for j := range q {
			level = min(max(level+rng.NormFloat64()*1.5, 2), 41)
			q[j] = byte(level)
		}
	}},
	{"normal", fillNormal},
	{"constant", fillConstant},
}

// benchCodec runs op over each fixture's reads and coded stream and
// reports the stream's bits per score beside the throughput.
func benchCodec(b *testing.B, op func(b *testing.B, quals [][]byte, data []byte, lengths []int)) {
	for _, fx := range benchFixtures {
		b.Run(fx.name, func(b *testing.B) {
			quals, lengths := randomReads(rand.New(rand.NewSource(9)), fx.fill, 500, func() int { return 150 })
			data, err := Compress(quals)
			if err != nil {
				b.Fatal(err)
			}
			total := len(quals) * 150
			b.SetBytes(int64(total))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op(b, quals, data, lengths)
			}
			b.ReportMetric(float64(8*len(data))/float64(total), "bits/score")
		})
	}
}

func BenchmarkQualCompress(b *testing.B) {
	benchCodec(b, func(b *testing.B, quals [][]byte, _ []byte, _ []int) {
		if _, err := Compress(quals); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkQualDecompress(b *testing.B) {
	benchCodec(b, func(b *testing.B, _ [][]byte, data []byte, lengths []int) {
		if _, err := Decompress(data, lengths); err != nil {
			b.Fatal(err)
		}
	})
}
