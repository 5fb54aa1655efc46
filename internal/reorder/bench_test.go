package reorder

import (
	"fmt"
	"math/rand"
	"testing"

	"sage/internal/fastq"
	"sage/internal/genome"
)

// BenchmarkRestore puts 11 520 shuffled 150-base records — the read
// count of the repository benchmark's paired_gz_reorder workload — back
// in order, in memory and spilled under that workload's 1 MiB budget.
func BenchmarkRestore(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	recs := make([]fastq.Record, 11520)
	var raw int64
	for i := range recs {
		seq := make(genome.Seq, 150)
		qual := make([]byte, 150)
		for j := range seq {
			seq[j] = byte(rng.Intn(4))
			qual[j] = byte(2 + rng.Intn(40))
		}
		recs[i] = fastq.Record{Header: fmt.Sprintf("p.%d/%d", i/2, 1+i%2), Seq: seq, Qual: qual}
		raw += int64(len(recs[i].Header) + 2*len(seq) + 6)
	}
	perm := rng.Perm(len(recs))
	for _, budget := range []int64{0, 1 << 20} {
		b.Run(fmt.Sprintf("budget=%d", budget), func(b *testing.B) {
			b.SetBytes(raw)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := NewRestorer(SortConfig{MemBudget: budget, TmpDir: b.TempDir()})
				for _, p := range perm {
					if err := r.Add(int64(p), recs[p]); err != nil {
						b.Fatal(err)
					}
				}
				n := 0
				if err := r.Emit(func(*fastq.Record) error { n++; return nil }); err != nil {
					b.Fatal(err)
				}
				if n != len(recs) {
					b.Fatalf("emitted %d of %d", n, len(recs))
				}
				r.Close()
			}
		})
	}
}
