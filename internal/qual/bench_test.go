package qual

import (
	"math/rand"
	"testing"
)

// benchFixtures are the read sets the codec benchmarks run over: 500
// reads of 150 scores from the walk (strongly correlated neighbours),
// the iid N(36,4) and the constant generators — constant scores never
// mispredict, so what is left there is the coder's own arithmetic — and
// one block of each of the repository benchmark's shapes: a 256-read
// short-read shard of N(36,4) scores, and 8 reads of its long-read
// simulator.
var benchFixtures = []struct {
	name  string
	reads func(b *testing.B) [][]byte
}{
	{"walk", fixedReads(fillWalk, 500)},
	{"normal", fixedReads(fillNormal, 500)},
	{"constant", fixedReads(fillConstant, 500)},
	{"shard", fixedReads(fillNormal, 256)},
	{"long", func(b *testing.B) [][]byte { return longReads(b, 9, 8) }},
}

func fixedReads(fill scoreFill, n int) func(b *testing.B) [][]byte {
	return func(*testing.B) [][]byte {
		quals, _ := randomReads(rand.New(rand.NewSource(9)), fill, n, func() int { return 150 })
		return quals
	}
}

// benchCodec runs op over each fixture's reads and coded stream and
// reports the stream's bits per score beside the throughput.
func benchCodec(b *testing.B, op func(b *testing.B, quals [][]byte, data []byte, lengths []int)) {
	for _, fx := range benchFixtures {
		b.Run(fx.name, func(b *testing.B) {
			quals := fx.reads(b)
			lengths := lengthsOf(quals)
			data, err := Compress(quals)
			if err != nil {
				b.Fatal(err)
			}
			total := 0
			for _, l := range lengths {
				total += l
			}
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
