package reorder

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"sage/internal/fastq"
	"sage/internal/genome"
)

// BenchmarkRestore puts the FASTQ text of 11 520 shuffled 150-base
// records — the read count of the repository benchmark's
// paired_gz_reorder workload — back in order, in memory and spilled
// under that workload's 1 MiB budget.
func BenchmarkRestore(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	recs := make([]fastq.Record, 11520)
	for i := range recs {
		seq := make(genome.Seq, 150)
		qual := make([]byte, 150)
		for j := range seq {
			seq[j] = byte(rng.Intn(4))
			qual[j] = byte(2 + rng.Intn(40))
		}
		recs[i] = fastq.Record{Header: fmt.Sprintf("p.%d/%d", i/2, 1+i%2), Seq: seq, Qual: qual}
	}
	texts, _ := render(recs)
	perm := rng.Perm(len(recs))
	for _, budget := range []int64{0, 1 << 20} {
		b.Run(fmt.Sprintf("budget=%d", budget), func(b *testing.B) {
			b.SetBytes(int64(len(bytes.Join(texts, nil))))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := NewRestorer(SortConfig{MemBudget: budget, TmpDir: b.TempDir()})
				for _, p := range perm {
					if err := r.AddText(int64(p), texts[p]); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := r.WriteTo(io.Discard); err != nil {
					b.Fatal(err)
				}
				r.Close()
			}
		})
	}
}

var keySink uint64

// BenchmarkClumpKey keys 11 520 random 150-base reads, the read count of
// the repository benchmark's paired_gz_reorder workload, with clumpKey
// and with the branching loop it replaced.
func BenchmarkClumpKey(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	seqs := make([]genome.Seq, 11520)
	for i := range seqs {
		seqs[i] = make(genome.Seq, 150)
		for j := range seqs[i] {
			seqs[i][j] = byte(rng.Intn(4))
		}
	}
	for _, impl := range []struct {
		name string
		key  func(genome.Seq, int) uint64
	}{{"branch-free", clumpKey}, {"oracle", clumpKeyOracle}} {
		b.Run(impl.name, func(b *testing.B) {
			for b.Loop() {
				for _, s := range seqs {
					keySink += impl.key(s, DefaultK)
				}
			}
		})
	}
}
