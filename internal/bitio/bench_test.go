package bitio

import (
	"math/rand"
	"testing"
)

func BenchmarkWriteBits(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]uint64, 4096)
	widths := make([]uint, 4096)
	for i := range vals {
		widths[i] = uint(rng.Intn(16) + 1)
		vals[i] = rng.Uint64() & (1<<widths[i] - 1)
	}
	w := NewWriter(1 << 14)
	b.SetBytes(int64(len(vals)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.buf, w.cur, w.nCur, w.bits = w.buf[:0], 0, 0, 0
		for j := range vals {
			w.WriteBits(vals[j], widths[j])
		}
	}
}

func BenchmarkReadBits(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	vals := make([]uint64, 4096)
	widths := make([]uint, 4096)
	w := NewWriter(1 << 14)
	for i := range vals {
		widths[i] = uint(rng.Intn(16) + 1)
		vals[i] = rng.Uint64() & (1<<widths[i] - 1)
		w.WriteBits(vals[i], widths[i])
	}
	buf := w.Bytes()
	b.SetBytes(int64(len(vals)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewReader(buf, w.Len())
		for j := range vals {
			if _, err := r.ReadBits(widths[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkUnary(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	vals := make([]uint, 4096)
	w := NewWriter(1 << 14)
	for i := range vals {
		vals[i] = uint(rng.Intn(6))
		w.WriteUnary(vals[i])
	}
	buf := w.Bytes()
	b.SetBytes(int64(len(vals)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewReader(buf, w.Len())
		for range vals {
			if _, err := r.ReadUnary(8); err != nil {
				b.Fatal(err)
			}
		}
	}
}
