// Ingest walkthrough: a sequencing run that arrives as many FASTQ
// files — two lanes of paired-end R1/R2 mates — streamed through
// fastq.NewPairedReader and shard.CompressPipeline into ONE sharded
// container with file-aware shard boundaries and a source manifest
// (container format v3, docs/FORMAT.md). The manifest is then used the
// way an analysis client would: to decode exactly one lane's reads
// without touching the rest.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"sage/internal/fastq"
	"sage/internal/genome"
	"sage/internal/shard"
	"sage/internal/simulate"
)

func main() {
	// 1. Simulate a read set and dress it up as a real run: two lanes,
	// each delivered as an R1 file and an R2 file of mate pairs.
	rng := rand.New(rand.NewSource(42))
	ref := genome.Random(rng, 100_000)
	donor, _ := genome.Donor(rng, ref, genome.HumanLikeProfile())
	reads, err := simulate.New(rng, donor).ShortReads(4000, simulate.DefaultShortProfile())
	if err != nil {
		log.Fatal(err)
	}
	lanes := [2][2]*fastq.ReadSet{}
	for i := 0; i+1 < len(reads.Records); i += 2 {
		lane := (i / 2) % 2
		r1, r2 := reads.Records[i].Clone(), reads.Records[i+1].Clone()
		r1.Header = fmt.Sprintf("run1.%d/1", i/2)
		r2.Header = fmt.Sprintf("run1.%d/2", i/2)
		if lanes[lane][0] == nil {
			lanes[lane][0], lanes[lane][1] = &fastq.ReadSet{}, &fastq.ReadSet{}
		}
		lanes[lane][0].Records = append(lanes[lane][0].Records, r1)
		lanes[lane][1].Records = append(lanes[lane][1].Records, r2)
	}
	fmt.Printf("run: %d reads as 2 lanes x R1/R2 (%d mate pairs per lane)\n",
		len(reads.Records), len(lanes[0][0].Records))

	// 2. Build the paired ingest reader: each R1/R2 pair is one logical
	// source; records interleave mate by mate, mate names are validated
	// as they stream, and no batch — hence no shard — spans two sources.
	pairs := [][2]fastq.NamedReader{}
	for l, lane := range lanes {
		pairs = append(pairs, [2]fastq.NamedReader{
			{Name: fmt.Sprintf("lane%d_R1.fq", l+1), R: bytes.NewReader(lane[0].Bytes())},
			{Name: fmt.Sprintf("lane%d_R2.fq", l+1), R: bytes.NewReader(lane[1].Bytes())},
		})
	}
	opt := shard.DefaultOptions(ref)
	opt.ShardReads = 512
	opt.Workers = 4
	mr, err := fastq.NewPairedReader(pairs, opt.ShardReads)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Compress all four files into ONE container.
	var buf bytes.Buffer
	st, err := shard.CompressPipeline(mr, &buf, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compressed: %d bytes in %d shards from %d sources\n",
		st.CompressedBytes, st.Shards, st.Sources)

	// 4. The header now carries a source manifest; inspect shows the
	// per-shard source column and per-file totals.
	info, err := shard.Inspect(buf.Bytes(), nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(info)

	// 5. File-aware access: decode ONLY lane 2's shards, using nothing
	// but the index — the file-aware invariant (no shard spans two
	// sources) makes the per-shard source field sufficient.
	c, err := shard.Parse(buf.Bytes())
	if err != nil {
		log.Fatal(err)
	}
	laneSrc := -1
	for i, s := range c.Index.Sources {
		if s.Name == "lane2_R1.fq" {
			laneSrc = i
		}
	}
	var lane2 fastq.ReadSet
	shardsRead := 0
	for i, e := range c.Index.Entries {
		if e.Source != laneSrc {
			continue
		}
		rs, err := c.DecompressShard(i, nil)
		if err != nil {
			log.Fatal(err)
		}
		lane2.Records = append(lane2.Records, rs.Records...)
		shardsRead++
	}
	want := &fastq.ReadSet{}
	want.Records = append(want.Records, lanes[1][0].Records...)
	want.Records = append(want.Records, lanes[1][1].Records...)
	if !fastq.Equivalent(want, &lane2) {
		log.Fatal("lane 2's shards do not decode to lane 2's reads")
	}
	fmt.Printf("file-aware access: lane2 recovered from %d of %d shards (%d reads)\n",
		shardsRead, c.NumShards(), len(lane2.Records))

	// 6. And the whole run still round-trips as one read set.
	got, err := shard.Decompress(buf.Bytes(), nil, 4)
	if err != nil {
		log.Fatal(err)
	}
	all := &fastq.ReadSet{}
	for _, lane := range lanes {
		all.Records = append(all.Records, lane[0].Records...)
		all.Records = append(all.Records, lane[1].Records...)
	}
	if !fastq.Equivalent(all, got) {
		log.Fatal("round trip failed")
	}
	fmt.Println("round trip verified: one container holds the whole multi-file run")
}
