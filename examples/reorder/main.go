// Reorder walkthrough: compress a read set whose input order scatters
// similar reads everywhere, first as-is (identity pipeline, format v4)
// and then through the similarity-reorder stage (clump sort, format
// v5), compare the sizes, and recover the original input order
// byte-exactly from the reordered container.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"sage/internal/fastq"
	"sage/internal/genome"
	"sage/internal/reorder"
	"sage/internal/shard"
	"sage/internal/simulate"
)

func main() {
	// 1. Build an adversarially ordered read set: 16 clusters, each
	// deep-sampling one short window of a donor genome with its own
	// quality regime, interleaved round-robin so consecutive input
	// reads almost never come from the same cluster. This is the
	// shape of real pooled runs — similar reads exist, but input
	// order hides them from every per-shard model.
	const (
		clusters   = 16
		perCluster = 256
		shardReads = 128
	)
	rng := rand.New(rand.NewSource(7))
	ref := genome.Random(rng, clusters*800)
	donor, _ := genome.Donor(rng, ref, genome.HumanLikeProfile())
	sets := make([]*fastq.ReadSet, clusters)
	for c := range sets {
		prof := simulate.DefaultShortProfile()
		prof.ReadLen = 120 + 2*c
		prof.SubRate = 0.0002
		prof.QualMean = float64(18 + 4*(c/2) + 2*(c%2))
		prof.QualSpread = 0.5
		lo := c * 800
		rs, err := simulate.New(rng, donor[lo:lo+prof.ReadLen]).ShortReads(perCluster, prof)
		if err != nil {
			log.Fatal(err)
		}
		for i := range rs.Records {
			rs.Records[i].Header = fmt.Sprintf("c%d.%d", c, i)
		}
		sets[c] = rs
	}
	var mixed fastq.ReadSet
	for i := 0; i < perCluster; i++ {
		for _, rs := range sets {
			mixed.Records = append(mixed.Records, rs.Records[i])
		}
	}
	raw := mixed.Bytes()
	fmt.Printf("input: %d reads from %d interleaved clusters, %d bytes of FASTQ\n",
		len(mixed.Records), clusters, len(raw))

	// 2. Identity compression: the staged pipeline without a reorder
	// stage writes a format-v4 container, byte-identical to the plain
	// streaming writer.
	opt := shard.DefaultOptions(ref)
	opt.ShardReads = shardReads
	var identity bytes.Buffer
	src := fastq.NewBatchReader(bytes.NewReader(raw), opt.ShardReads)
	if _, err := shard.CompressPipeline(src, &identity, opt); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("identity:  %d bytes (%.2fx)\n",
		identity.Len(), float64(len(raw))/float64(identity.Len()))

	// 3. Reordered compression: interpose the clump-sort stage. A tiny
	// memory budget forces the out-of-core path — sorted runs spill to
	// temp files and are k-way merged — to show that reordering never
	// needs the read set in memory.
	st, err := reorder.NewStage(
		fastq.NewBatchReader(bytes.NewReader(raw), opt.ShardReads),
		reorder.Config{
			Mode:      reorder.ModeClump,
			BatchSize: opt.ShardReads,
			Sort:      reorder.SortConfig{MemBudget: int64(len(raw)) / 8},
		})
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()
	var reordered bytes.Buffer
	if _, err := shard.CompressPipeline(st, &reordered, opt); err != nil {
		log.Fatal(err)
	}
	gain := 100 * (1 - float64(reordered.Len())/float64(identity.Len()))
	fmt.Printf("reordered: %d bytes (%.2fx) — %.1f%% smaller; external sort spilled %d runs\n",
		reordered.Len(), float64(len(raw))/float64(reordered.Len()), gain, st.SpilledRuns())

	// 4. The container remembers what happened: the v5 header records
	// the reorder mode and the inverse permutation (Inspect prints the
	// mode; the CLI equivalent is `sage inspect`).
	c, err := shard.Parse(reordered.Bytes())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("container: format v%d, reorder mode %d, %d-entry permutation\n",
		c.Version, c.Index.ReorderMode, len(c.Index.Perm))

	// 5. Stored order is clumped order — decompressing normally yields
	// the same records, but not the input sequence.
	stored, err := shard.Decompress(reordered.Bytes(), nil, 0)
	if err != nil {
		log.Fatal(err)
	}
	if !fastq.Equivalent(&mixed, stored) {
		log.Fatal("reordered container lost or changed records")
	}
	fmt.Printf("stored order: same records (first header %q vs input %q)\n",
		stored.Records[0].Header, mixed.Records[0].Header)

	// 6. Original-order recovery: DecompressOriginalTo puts each record
	// back at the index the stored permutation gives it, in bounded
	// memory, and the result is byte-identical to the input FASTQ — order,
	// headers, everything (the CLI equivalent is
	// `sage decompress -original-order`).
	var restored bytes.Buffer
	if err := c.DecompressOriginalTo(&restored, nil, 0, reorder.SortConfig{}); err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(restored.Bytes(), raw) {
		log.Fatal("original-order restore is not byte-identical to the input")
	}
	fmt.Println("original order restored byte-identically")
}
