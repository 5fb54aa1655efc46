package bench

import (
	"bytes"
	"fmt"
	"math/rand"

	"sage/internal/fastq"
	"sage/internal/genome"
	"sage/internal/reorder"
	"sage/internal/shard"
	"sage/internal/simulate"
)

// This file benchmarks the similarity-reorder compression mode (format
// v5): clump-sorting reads by minimizer before sharding puts reads from
// the same genomic neighborhood — and the same quality regime — into
// the same shards, so the per-shard machinery (tuned tables, quality
// tables, position-delta encoding) sees homogeneous data. The
// experiment measures the compressed-size win on a clustered synthetic
// dataset whose input order maximally scatters the clusters, forces the
// out-of-core external sort path, and proves exact original-order
// recovery.

// reorderClusters is the number of interleaved clusters in the
// synthetic dataset. Each cluster deep-samples one SHORT genome window
// — barely longer than the cluster's read length, so nearly every read
// contains the window's minimizing k-mer and the whole cluster shares
// one clump key — with its own quality profile and read length.
const reorderClusters = 16

// reorderSlack is how much longer a cluster window is than its read
// length. Zero makes each cluster an amplicon-style deep stack: every
// read covers the whole window, so every read in the cluster shares the
// window's minimizer (unless a sequencing error perturbs it) and the
// cluster survives the hash-order sort as one contiguous block.
const reorderSlack = 0

// reorderShardReads is the shard size the experiment compresses with.
// Per-cluster read counts are a multiple of it, so once the clump sort
// has grouped a cluster contiguously, shard boundaries fall on cluster
// boundaries and each shard holds reads from a single regime.
const reorderShardReads = 128

// clusteredReads builds the reorder experiment's input: reads drawn
// from reorderClusters short, disjoint, widely-spaced windows of one
// donor genome, interleaved round-robin so consecutive input reads
// almost never share a cluster. Returns the FASTQ text and the
// reference (the compression consensus).
func clusteredReads(scale float64) ([]byte, genome.Seq, error) {
	rng := rand.New(rand.NewSource(29))
	n := int(8000 * scale)
	if n < 2000 {
		n = 2000
	}
	// Windows are spread across a genome much larger than their sum, so
	// a shard mixing clusters pays large position deltas while a shard
	// holding whole clusters pays tiny ones.
	spacing := 800
	ref := genome.Random(rng, reorderClusters*spacing)
	donor, _ := genome.Donor(rng, ref, genome.HumanLikeProfile())

	// Round the per-cluster count up to whole shards (see
	// reorderShardReads).
	per := (n/reorderClusters + reorderShardReads - 1) / reorderShardReads * reorderShardReads
	sets := make([]*fastq.ReadSet, reorderClusters)
	for c := range sets {
		prof := simulate.DefaultShortProfile()
		prof.ReadLen = 120 + 2*c
		// High-accuracy short reads: a substitution that rewrites a
		// cluster's minimizer scatters that read out of its clump, so the
		// dataset models a modern low-error instrument.
		prof.SubRate = 0.0002
		// Quality means are chosen in pairs that share a prev-score
		// context bucket of the quality coder but sit 2 apart: a shard
		// that mixes a pair codes a bimodal conditional distribution,
		// while a shard holding one cluster codes a tight unimodal one.
		prof.QualMean = float64(17 + 4*(c/2) + 2*(c%2))
		prof.QualSpread = 0.5
		lo := c * spacing
		rs, err := simulate.New(rng, donor[lo:lo+prof.ReadLen+reorderSlack]).ShortReads(per, prof)
		if err != nil {
			return nil, nil, err
		}
		// Re-key headers so record identity survives the interleave.
		for i := range rs.Records {
			rs.Records[i].Header = fmt.Sprintf("c%d.%d", c, i)
		}
		sets[c] = rs
	}
	var mixed fastq.ReadSet
	for i := 0; i < per; i++ {
		for _, rs := range sets {
			if i < len(rs.Records) {
				mixed.Records = append(mixed.Records, rs.Records[i])
			}
		}
	}
	return mixed.Bytes(), ref, nil
}

// ReorderExperiment builds the "reorder" table: identity vs
// clump-reordered compressed size on the clustered dataset, with the
// external-sort path forced and original-order recovery verified.
func (s *Suite) ReorderExperiment() (*Table, error) {
	input, ref, err := clusteredReads(s.Scale)
	if err != nil {
		return nil, err
	}
	opt := shard.DefaultOptions(ref)
	opt.ShardReads = reorderShardReads

	var identBuf bytes.Buffer
	if _, err := shard.CompressPipeline(fastq.NewBatchReader(bytes.NewReader(input), opt.ShardReads), &identBuf, opt); err != nil {
		return nil, err
	}

	// Clump-reordered, with a memory budget far below the dataset so
	// the out-of-core external sort (spill + k-way merge) is what runs.
	var src fastq.BatchSource = fastq.NewBatchReader(bytes.NewReader(input), opt.ShardReads)
	st, err := reorder.NewStage(src, reorder.Config{
		Mode: reorder.ModeClump, BatchSize: opt.ShardReads,
		Sort: reorder.SortConfig{MemBudget: int64(len(input)) / 8}})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	var reordBuf bytes.Buffer
	if _, err := shard.CompressPipeline(st, &reordBuf, opt); err != nil {
		return nil, err
	}
	spilled := st.SpilledRuns()

	// Exact original-order recovery: the acceptance bar is
	// byte-identity with the input FASTQ.
	c, err := shard.Parse(reordBuf.Bytes())
	if err != nil {
		return nil, err
	}
	var restored bytes.Buffer
	if err := c.DecompressOriginalTo(&restored, nil, 0, reorder.SortConfig{}); err != nil {
		return nil, err
	}
	if !bytes.Equal(restored.Bytes(), input) {
		return nil, fmt.Errorf("bench: original-order restore is not byte-identical to the input")
	}

	raw := float64(len(input))
	identRatio := raw / float64(identBuf.Len())
	reordRatio := raw / float64(reordBuf.Len())
	gain := 100 * (1 - float64(reordBuf.Len())/float64(identBuf.Len()))

	t := &Table{
		ID:     "reorder",
		Title:  "Similarity reorder: clump-sorted vs identity compression (clustered dataset)",
		Header: []string{"pipeline", "bytes", "ratio", "vs identity"},
		Rows: [][]string{
			{"identity", fmt.Sprintf("%d", identBuf.Len()), fmt.Sprintf("%.2fx", identRatio), "—"},
			{"clump reorder", fmt.Sprintf("%d", reordBuf.Len()), fmt.Sprintf("%.2fx", reordRatio),
				fmt.Sprintf("-%.1f%% bytes", gain)},
		},
		Notes: []string{
			fmt.Sprintf("%d clusters interleaved round-robin; %d B FASTQ; %d reads/shard",
				reorderClusters, len(input), opt.ShardReads),
			fmt.Sprintf("external sort spilled %d runs (budget %d B); original-order restore verified byte-identical",
				spilled, len(input)/8),
		},
	}
	t.Metric("reorder_identity_bytes", float64(identBuf.Len()))
	t.Metric("reorder_clump_bytes", float64(reordBuf.Len()))
	t.Metric("reorder_identity_ratio", identRatio)
	t.Metric("reorder_clump_ratio", reordRatio)
	t.Metric("reorder_gain_pct", gain)
	t.Metric("reorder_spilled_runs", float64(spilled))
	return t, nil
}
