// Package sage_test exposes every table and figure of the paper's
// evaluation as a testing.B benchmark. Each benchmark runs the
// corresponding experiment from internal/bench and prints the resulting
// table once, so `go test -bench=. -benchmem` regenerates the modeled
// evaluation plus the instorage, query and reorder experiments.
// Measured wall-clock throughput (ingest, decode, serving, gzip
// ingest, worker scaling) comes only from the repository benchmark:
// `bash benchmark/run.sh --workload <name>`.
//
// Dataset generation and compressor measurement are shared across
// benchmarks through a lazily-initialized suite; the timed region is the
// experiment computation itself.
package sage_test

import (
	"fmt"
	"sync"
	"testing"

	"sage/internal/bench"
	"sage/internal/core"
)

var (
	benchOnce  sync.Once
	benchSuite *bench.Suite
	printed    sync.Map
)

func sharedSuite(b *testing.B) *bench.Suite {
	b.Helper()
	benchOnce.Do(func() {
		benchSuite = bench.NewSuite(0.25)
	})
	return benchSuite
}

func runExperiment(b *testing.B, id string) {
	s := sharedSuite(b)
	// Warm the measurement cache outside the timed region.
	if _, err := s.Run(id); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var tb *bench.Table
	for i := 0; i < b.N; i++ {
		var err error
		tb, err = s.Run(id)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if _, dup := printed.LoadOrStore(id, true); !dup {
		fmt.Printf("\n%s\n", tb.Render())
	}
}

func BenchmarkFig01_Timeline(b *testing.B)          { runExperiment(b, "fig1") }
func BenchmarkFig04_PrepBottleneck(b *testing.B)    { runExperiment(b, "fig4") }
func BenchmarkFig07_DataProperties(b *testing.B)    { runExperiment(b, "fig7") }
func BenchmarkFig10_MatchingPosBits(b *testing.B)   { runExperiment(b, "fig10") }
func BenchmarkFig13_EndToEnd(b *testing.B)          { runExperiment(b, "fig13") }
func BenchmarkFig14_PrepSpeedup(b *testing.B)       { runExperiment(b, "fig14") }
func BenchmarkFig15_MultiSSD(b *testing.B)          { runExperiment(b, "fig15") }
func BenchmarkTable1_AreaPower(b *testing.B)        { runExperiment(b, "tab1") }
func BenchmarkFig16_Energy(b *testing.B)            { runExperiment(b, "fig16") }
func BenchmarkTable2_CompressionRatio(b *testing.B) { runExperiment(b, "tab2") }
func BenchmarkFig17_OptBreakdown(b *testing.B)      { runExperiment(b, "fig17") }
func BenchmarkTable3_ToolComparison(b *testing.B)   { runExperiment(b, "tab3") }
func BenchmarkFig18_CompressionTime(b *testing.B)   { runExperiment(b, "fig18") }

// BenchmarkInstorage reports the in-storage scan-unit dispatch table:
// a sharded container placed shard-aligned on the modeled SSD, per-shard
// flash-read + decode service times scheduled onto 1..8 per-channel
// scan units (see internal/bench/instorage.go and internal/instorage).
func BenchmarkInstorage(b *testing.B) { runExperiment(b, "instorage") }

// BenchmarkQuery reports compressed-domain query push-down: zone-map
// shard pruning and the in-storage filter vs decode-everything host
// baseline across predicate selectivities (see internal/bench/query.go).
func BenchmarkQuery(b *testing.B) { runExperiment(b, "query") }

// BenchmarkReorder reports the similarity-reorder mode: clump-sorted
// vs identity compressed size on a clustered dataset, with the
// out-of-core external sort forced and byte-exact original-order
// recovery verified (see internal/bench/reorder.go).
func BenchmarkReorder(b *testing.B) { runExperiment(b, "reorder") }

// BenchmarkCodecCompress and BenchmarkCodecDecompress time the SAGe codec
// itself (microbenchmarks complementing the system-level experiments).
func BenchmarkCodecCompress(b *testing.B) {
	s := sharedSuite(b)
	m, err := s.Measurement("RS2")
	if err != nil {
		b.Fatal(err)
	}
	opt := core.DefaultOptions(m.Gen.Ref)
	b.SetBytes(int64(len(m.Gen.FASTQ)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Compress(m.Gen.Reads, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecDecompress(b *testing.B) {
	s := sharedSuite(b)
	m, err := s.Measurement("RS2")
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(m.Gen.FASTQ)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Decompress(m.SAGe.Payload, nil); err != nil {
			b.Fatal(err)
		}
	}
}
