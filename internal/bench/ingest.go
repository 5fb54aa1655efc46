package bench

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"sage/internal/fastq"
	"sage/internal/shard"
)

// This file benchmarks multi-file ingest (a fastq.MultiReader through
// shard.CompressPipeline): real
// sequencing runs arrive as many FASTQ files — lane splits and R1/R2
// paired-end mates — and file-aware sharding cuts a shard boundary at
// every file boundary. That buys per-file attribution (the v3 source
// manifest) at the cost of short tail shards, so the experiment
// measures compression throughput vs. input file count the same way
// the shard experiment does: per-shard times measured on the host,
// the worker-pool schedule computed by ShardMakespan — which here
// sees the file-aware shard layout, tail shards included.

// splitRecords cuts a read set into n nearly-equal lane files,
// serialized as FASTQ bytes.
func splitRecords(rs *fastq.ReadSet, n int) []fastq.NamedReader {
	out := make([]fastq.NamedReader, 0, n)
	per := (len(rs.Records) + n - 1) / n
	for i := 0; i < n; i++ {
		lo := i * per
		hi := lo + per
		if hi > len(rs.Records) {
			hi = len(rs.Records)
		}
		sub := fastq.ReadSet{Records: rs.Records[lo:hi]}
		out = append(out, fastq.NamedReader{
			Name: fmt.Sprintf("lane%d.fq", i+1),
			R:    bytes.NewReader(sub.Bytes()),
		})
	}
	return out
}

// pairRecords rewrites a read set as one R1/R2 mate pair: consecutive
// records become mates named p.N/1 and p.N/2.
func pairRecords(rs *fastq.ReadSet) [2]fastq.NamedReader {
	var r1, r2 fastq.ReadSet
	for i := 0; i+1 < len(rs.Records); i += 2 {
		a, b := rs.Records[i].Clone(), rs.Records[i+1].Clone()
		a.Header = fmt.Sprintf("p.%d/1", i/2)
		b.Header = fmt.Sprintf("p.%d/2", i/2)
		r1.Records = append(r1.Records, a)
		r2.Records = append(r2.Records, b)
	}
	return [2]fastq.NamedReader{
		{Name: "run_R1.fq", R: bytes.NewReader(r1.Bytes())},
		{Name: "run_R2.fq", R: bytes.NewReader(r2.Bytes())},
	}
}

// ingestWorkers is the fixed pool size the ingest experiment models,
// matching the mid-point of the shard experiment's sweep.
const ingestWorkers = 8

// ingestFileCounts is the lane-split sweep.
var ingestFileCounts = []int{1, 2, 4, 8}

// IngestExperiment builds the "ingest" table on the suite's RS2
// dataset: multi-file compression throughput vs. input file count,
// with file-aware shard boundaries, plus a paired-end R1/R2 row.
func (s *Suite) IngestExperiment() (*Table, error) {
	m, err := s.Measurement("RS2")
	if err != nil {
		return nil, err
	}
	n := len(m.Gen.Reads.Records)
	// ~10 shards at one file, offset so per-file read counts don't
	// divide evenly: every extra file then really costs a short tail
	// shard, which is the file-aware overhead this table measures.
	shardReads := n/10 - 7
	if shardReads < 1 {
		shardReads = 1
	}
	raw := float64(len(m.Gen.FASTQ))

	t := &Table{
		ID:     "ingest",
		Title:  "Multi-file ingest: throughput vs file count (RS2)",
		Header: []string{"inputs", "shards", fmt.Sprintf("makespan@%dw (ms)", ingestWorkers), "MB/s", "vs 1 file"},
		Notes: []string{
			fmt.Sprintf("%d reads, %d reads/shard target; shard boundaries are file-aware (no shard spans two files)", n, shardReads),
			"per-shard times measured, pool schedule computed (ShardMakespan); paired row interleaves R1/R2 mates",
		},
	}
	var base time.Duration
	row := func(label string, mr *fastq.MultiReader) error {
		times, err := MeasureShardTimes(mr, m.Gen.Ref)
		if err != nil {
			return err
		}
		mk := ShardMakespan(times, ingestWorkers)
		if base == 0 {
			base = mk
		}
		rel := "1.00x"
		if mk > 0 && base != mk {
			rel = fmt.Sprintf("%.2fx", float64(base)/float64(mk))
		}
		t.Rows = append(t.Rows, []string{
			label,
			fmt.Sprintf("%d", len(times)),
			fmt.Sprintf("%.1f", float64(mk)/float64(time.Millisecond)),
			fmt.Sprintf("%.1f", raw/mk.Seconds()/1e6),
			rel,
		})
		key := strings.ReplaceAll(strings.ReplaceAll(label, " ", "_"), "/", "_")
		t.Metric("files_"+key+"_makespan_ms", float64(mk)/float64(time.Millisecond))
		t.Metric("files_"+key+"_mbps", raw/mk.Seconds()/1e6)
		return nil
	}
	for _, files := range ingestFileCounts {
		mr, err := fastq.NewMultiReader(splitRecords(m.Gen.Reads, files), shardReads)
		if err != nil {
			return nil, err
		}
		if err := row(fmt.Sprintf("%d", files), mr); err != nil {
			return nil, err
		}
	}
	mr, err := fastq.NewPairedReader([][2]fastq.NamedReader{pairRecords(m.Gen.Reads)}, shardReads)
	if err != nil {
		return nil, err
	}
	if err := row("2 (paired R1/R2)", mr); err != nil {
		return nil, err
	}

	// Sanity-anchor the model with one real end-to-end ingest run: all
	// lanes of the widest split streamed through CompressPipeline.
	mr, err = fastq.NewMultiReader(splitRecords(m.Gen.Reads, ingestFileCounts[len(ingestFileCounts)-1]), shardReads)
	if err != nil {
		return nil, err
	}
	opt := shard.DefaultOptions(m.Gen.Ref)
	opt.ShardReads = shardReads
	var buf bytes.Buffer
	start := time.Now()
	st, err := shard.CompressPipeline(mr, &buf, opt)
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)
	t.Notes = append(t.Notes, fmt.Sprintf(
		"wall-clock anchor: %d files -> 1 container, %d shards, %d sources, %.1f MB/s on this host",
		ingestFileCounts[len(ingestFileCounts)-1], st.Shards, st.Sources, raw/wall.Seconds()/1e6))
	return t, nil
}
