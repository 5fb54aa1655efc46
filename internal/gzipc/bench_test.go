package gzipc

import (
	"math/rand"
	"testing"
)

func benchData() []byte {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 2<<20)
	for i := range data {
		data[i] = "ACGT"[rng.Intn(4)]
	}
	return data
}

func BenchmarkCompress(b *testing.B) {
	data := benchData()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compress(data)
	}
}

func BenchmarkDecompress(b *testing.B) {
	data := benchData()
	comp := Compress(data)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompress(comp); err != nil {
			b.Fatal(err)
		}
	}
}
