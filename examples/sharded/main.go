// Sharded walkthrough: split a read set into shards, compress them on a
// worker pool into a seekable container, inspect the shard index, pull a
// single shard out by seek, and decompress the whole set in parallel —
// the batched, pipelined execution model of §3.1 applied to the codec.
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
	// 1. Simulate a donor genome and a read set, as in quickstart.
	rng := rand.New(rand.NewSource(42))
	ref := genome.Random(rng, 100_000)
	donor, _ := genome.Donor(rng, ref, genome.HumanLikeProfile())
	reads, err := simulate.New(rng, donor).ShortReads(4000, simulate.DefaultShortProfile())
	if err != nil {
		log.Fatal(err)
	}
	raw := reads.Bytes()
	fmt.Printf("read set: %d reads, %d bytes of FASTQ\n", len(reads.Records), len(raw))

	// 2. Compress on a 4-worker pool, 512 reads per shard. The worker
	// count changes wall time only — the output bytes are identical for
	// any pool size.
	opt := shard.DefaultOptions(ref)
	opt.ShardReads = 512
	opt.Workers = 4
	data, st, err := shard.Compress(reads, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compressed: %d bytes (%.2fx) in %d shards; header+index is %d bytes\n",
		len(data), float64(len(raw))/float64(len(data)), st.Shards, st.HeaderBytes)

	// 3. The container is seekable: the index alone locates any shard.
	info, err := shard.Inspect(data, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(info)

	// 4. Random access: decode only shard 3 — reads 1536..2047 — without
	// touching the other blocks. This is the unit a future serving layer
	// hands to concurrent clients, and the scan unit an in-storage
	// accelerator would stream.
	c, err := shard.Parse(data)
	if err != nil {
		log.Fatal(err)
	}
	one, err := c.DecompressShard(3, nil)
	if err != nil {
		log.Fatal(err)
	}
	sub := &fastq.ReadSet{Records: reads.Records[3*512 : 4*512]}
	if !fastq.Equivalent(sub, one) {
		log.Fatal("shard 3 does not decode to its source batch")
	}
	fmt.Printf("random access: shard 3 alone decoded to its %d source reads\n", len(one.Records))

	// 5. Streaming compression: shard.CompressPipeline — the writer
	// behind Compress — produces the same container from an io.Reader
	// batch by batch, without the read set in memory.
	var buf bytes.Buffer
	br := fastq.NewBatchReader(bytes.NewReader(raw), opt.ShardReads)
	if _, err := shard.CompressPipeline(br, &buf, opt); err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		log.Fatal("streamed container differs from in-memory container")
	}
	fmt.Println("streaming: CompressPipeline produced byte-identical output")

	// 6. Parallel decompression, reassembled in order.
	got, err := shard.Decompress(data, nil, 4)
	if err != nil {
		log.Fatal(err)
	}
	if !fastq.Equivalent(reads, got) {
		log.Fatal("round trip failed")
	}
	fmt.Println("round trip verified: parallel decode is equivalent to the input")
}
