package bench

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"sage/internal/core"
	"sage/internal/fastq"
	"sage/internal/genome"
)

// This file models the sharded compression pipeline the same way the
// rest of the suite models hardware (DESIGN.md hybrid calibration):
// per-shard compression latencies are *measured* on the host, and the
// worker-pool completion time is *computed* from the pool's scheduling
// discipline. That separates the algorithmic speedup of sharding from
// whatever core count the measuring machine happens to have — a 1-core
// CI box and a 64-core server report the same scaling curve for the
// same measured shard times. internal/shard's own bench_test.go holds
// the complementary wall-clock benchmarks.

// ShardMakespan computes the completion time of a pool of `workers`
// executing jobs with the given durations. Jobs are handed in order to
// the first free worker — the same discipline shard.CompressPipeline's
// channel pool follows.
func ShardMakespan(durations []time.Duration, workers int) time.Duration {
	if workers < 1 {
		workers = 1
	}
	if workers > len(durations) {
		workers = len(durations)
	}
	if workers == 0 {
		return 0
	}
	busy := make([]time.Duration, workers)
	for _, d := range durations {
		min := 0
		for w := 1; w < workers; w++ {
			if busy[w] < busy[min] {
				min = w
			}
		}
		busy[min] += d
	}
	makespan := busy[0]
	for _, b := range busy[1:] {
		if b > makespan {
			makespan = b
		}
	}
	return makespan
}

// ShardSpeedup returns makespan(1 worker) / makespan(workers).
func ShardSpeedup(durations []time.Duration, workers int) float64 {
	base := ShardMakespan(durations, 1)
	par := ShardMakespan(durations, workers)
	if par <= 0 {
		return 1
	}
	return float64(base) / float64(par)
}

// MeasureShardTimes drains src and compresses each batch once,
// single-threaded (exactly as one pool worker would), returning the
// per-shard wall times. The shard layout is the source's — a
// MultiReader's includes the short tail shard each input file ends
// with — so feeding the result to ShardMakespan models that ingest
// pipeline. Reading and parsing happen outside the timed region.
func MeasureShardTimes(src fastq.BatchSource, cons genome.Seq) ([]time.Duration, error) {
	opt := core.DefaultOptions(cons)
	opt.EmbedConsensus = false
	opt.Workers = 1
	var out []time.Duration
	for {
		b, err := src.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("bench: reading batch: %w", err)
		}
		start := time.Now()
		if _, err := core.Compress(&fastq.ReadSet{Records: b.Records}, opt); err != nil {
			return nil, fmt.Errorf("bench: shard %d: %w", b.Index, err)
		}
		out = append(out, time.Since(start))
	}
}

// shardWorkerCounts is the sweep reported by the shard experiment.
var shardWorkerCounts = []int{1, 2, 4, 8, 16}

// ShardScaling builds the shard-pipeline scaling table on the suite's
// RS2 dataset (deep human short reads, the heaviest standard set): the
// compress throughput and speedup of the sharded codec at increasing
// worker counts.
func (s *Suite) ShardScaling() (*Table, error) {
	m, err := s.Measurement("RS2")
	if err != nil {
		return nil, err
	}
	n := len(m.Gen.Reads.Records)
	shardReads := (n + 15) / 16 // ~16 shards
	times, err := MeasureShardTimes(fastq.NewBatchReader(bytes.NewReader(m.Gen.FASTQ), shardReads), m.Gen.Ref)
	if err != nil {
		return nil, err
	}
	raw := float64(len(m.Gen.FASTQ))
	t := &Table{
		ID:     "shard",
		Title:  "Sharded compression scaling (RS2)",
		Header: []string{"workers", "makespan (ms)", "MB/s", "speedup"},
		Notes: []string{
			fmt.Sprintf("%d reads in %d shards of %d; per-shard times measured, pool schedule computed", n, len(times), shardReads),
			"wall-clock pool benchmarks: go test -bench=. ./internal/shard/",
		},
	}
	for _, w := range shardWorkerCounts {
		mk := ShardMakespan(times, w)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", w),
			fmt.Sprintf("%.1f", float64(mk)/float64(time.Millisecond)),
			fmt.Sprintf("%.1f", raw/mk.Seconds()/1e6),
			f2(ShardSpeedup(times, w)),
		})
		t.Metric(fmt.Sprintf("makespan_%dw_ms", w), float64(mk)/float64(time.Millisecond))
		t.Metric(fmt.Sprintf("speedup_%dw", w), ShardSpeedup(times, w))
	}
	return t, nil
}
