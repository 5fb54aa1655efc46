package ssd

import (
	"math/rand"
	"testing"
)

func BenchmarkWriteShards(b *testing.B) {
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := New(DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := s.WriteShards("x", data, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadShard(b *testing.B) {
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(2)).Read(data)
	s, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := s.WriteShards("x", data, []Extent{{0, int64(len(data))}}); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.ReadShard("x", 0); err != nil {
			b.Fatal(err)
		}
	}
}
