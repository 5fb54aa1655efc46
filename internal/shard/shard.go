package shard

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"

	"sage/internal/core"
	"sage/internal/fastq"
	"sage/internal/freelist"
	"sage/internal/genome"
	"sage/internal/mapper"
	"sage/internal/pool"
	"sage/internal/reorder"
)

// DefaultShardReads is the default shard size: large enough that the
// per-block header and tuned-table overhead is amortized, small enough
// that a worker pool has work to balance.
const DefaultShardReads = 4096

// Options parameterizes sharded compression.
type Options struct {
	// ShardReads is the number of reads per shard (<= 0 uses
	// DefaultShardReads).
	ShardReads int
	// Workers bounds the compression worker pool (<= 0 uses
	// GOMAXPROCS). Worker count never changes the output bytes.
	Workers int
	// Core parameterizes the per-shard codec. Core.EmbedConsensus
	// selects container-level consensus embedding: the consensus is
	// stored once in the shard index header (never per block).
	Core core.Options
}

// DefaultOptions returns self-contained, fully lossless settings.
func DefaultOptions(cons genome.Seq) Options {
	return Options{ShardReads: DefaultShardReads, Core: core.DefaultOptions(cons)}
}

func (o *Options) shardReads() int {
	if o.ShardReads <= 0 {
		return DefaultShardReads
	}
	return o.ShardReads
}

func (o *Options) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// sketchBytes sizes the per-shard zone-map k-mer sketch from the shard
// size: SketchBytesPerRead per read, clamped.
func (o *Options) sketchBytes() int {
	n := o.shardReads() * SketchBytesPerRead
	if n < MinSketchBytes {
		n = MinSketchBytes
	}
	if n > MaxAutoSketchBytes {
		n = MaxAutoSketchBytes
	}
	return n
}

// blockOptions derives the per-shard core options: the consensus lives
// at the container level, and shard-level parallelism owns the cores.
func (o *Options) blockOptions() core.Options {
	bo := o.Core
	bo.EmbedConsensus = false
	bo.Workers = 1
	return bo
}

// Stats summarizes a sharded compression.
type Stats struct {
	Shards          int
	Reads           int
	CompressedBytes int
	// HeaderBytes counts magic + header + consensus + manifest + index.
	HeaderBytes int
	// BlockBytes counts the concatenated SAGe blocks.
	BlockBytes int
	// Sources is the number of manifest entries (input files or mate
	// pairs); 0 when the writer had no file attribution.
	Sources int
	// ReorderMode is the reorder mode the container recorded
	// (ReorderNone for identity-order containers).
	ReorderMode int
}

// Compress splits rs into shards and compresses them concurrently: the
// in-memory adapter over CompressPipeline.
func Compress(rs *fastq.ReadSet, opt Options) ([]byte, *Stats, error) {
	var buf bytes.Buffer
	st, err := CompressPipeline(fastq.SliceSource(rs.Batches(opt.shardReads())), &buf, opt)
	if err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), st, nil
}

// CompressPipeline is the one container writer: it compresses the
// batches of an ingest pipeline — a leaf reader (fastq.BatchReader for
// one stream; fastq.NewMultiReader / NewPairedReader for lane splits
// and R1/R2 mates), or stages wrapped around one (the similarity-
// reorder stage, internal/reorder.Stage) — on the ordered pool
// (pool.Drain) and assembles one container into w. The workers read the
// source themselves, one batch at a time, and at most workers+1 batches
// are claimed and not yet assembled; only the (much smaller) compressed
// blocks are buffered until the index can be written. The output is
// deterministic: any worker count produces identical bytes.
//
// The pipeline's capabilities are discovered structurally: a stage
// exposing BatchSize() defines the recorded shard cut point (paired
// readers round it down to even) instead of Options.ShardReads, a
// stage exposing Sources() contributes the source manifest — its
// batches never span two sources, so shard boundaries are file-aware —
// and a stage exposing ReorderMode()/Perm() promotes the container to
// format v5 with its inverse permutation.
func CompressPipeline(src fastq.BatchSource, w io.Writer, opt Options) (*Stats, error) {
	if bs, ok := src.(interface{ BatchSize() int }); ok {
		opt.ShardReads = bs.BatchSize()
	}
	if len(opt.Core.Consensus) == 0 {
		return nil, fmt.Errorf("shard: a consensus sequence is required")
	}
	blockOpt := opt.blockOptions()
	if blockOpt.SharedMapper == nil {
		// Build the consensus k-mer index once per container, not once
		// per shard: Mapper.Map is read-only, so every worker shares it.
		m, err := mapper.New(blockOpt.Consensus, blockOpt.Mapper)
		if err != nil {
			return nil, err
		}
		blockOpt.SharedMapper = m
	}

	// A reordering stage needs the exact storage order: the container's
	// permutation composes the stage's ingest permutation with the
	// order the codec stores each shard's records in (§5.1.3 position
	// sort), so it maps decoded positions — not ingest positions — back
	// to the original input. Identity pipelines skip the bookkeeping.
	rp, reordering := src.(interface {
		ReorderMode() int
		Perm() []int64
	})
	reordering = reordering && rp.ReorderMode() != ReorderNone

	// Batches are compressed on the ordered pool, so they reach emit in
	// batch order: each block's entry is appended as it arrives.
	type compressed struct {
		data  []byte
		order []int
		entry Entry
	}
	ix := &Index{ShardReads: opt.shardReads(), SketchBytes: opt.sketchBytes()}
	var (
		blocks [][]byte
		stored []int // ingest position of each stored record, when reordering
		off    int64
	)
	err := pool.Drain(func() (fastq.Batch, error) {
		b, err := src.Next()
		if err != nil && err != io.EOF {
			err = fmt.Errorf("shard: reading batch: %w", err)
		}
		return b, err
	}, opt.workers(), func(b fastq.Batch) (compressed, error) {
		enc, err := core.Compress(&fastq.ReadSet{Records: b.Records}, blockOpt)
		if err != nil {
			return compressed{}, fmt.Errorf("shard: compressing shard %d: %w", b.Index, err)
		}
		// Zone maps summarize the records the codec will decode back
		// out: when quality is discarded, the quality statistics must
		// report "unscored" too.
		return compressed{data: enc.Data, order: enc.Order, entry: Entry{
			ReadCount: len(b.Records),
			Length:    int64(len(enc.Data)),
			Source:    b.Source,
			Zone:      ComputeZoneMap(b.Records, opt.sketchBytes(), blockOpt.IncludeQuality),
			Checksum:  crc32.ChecksumIEEE(enc.Data),
		}}, nil
	}, func(c compressed) error {
		if reordering {
			if len(c.order) != c.entry.ReadCount {
				return fmt.Errorf("shard: shard %d storage order covers %d of %d records",
					len(blocks), len(c.order), c.entry.ReadCount)
			}
			for _, o := range c.order {
				stored = append(stored, ix.TotalReads+o)
			}
		}
		c.entry.Offset = off
		off += c.entry.Length
		ix.TotalReads += c.entry.ReadCount
		ix.Entries = append(ix.Entries, c.entry)
		blocks = append(blocks, c.data)
		return nil
	})
	if err != nil {
		return nil, err
	}

	if ms, ok := src.(interface{ Sources() []fastq.Source }); ok {
		for _, s := range ms.Sources() {
			ix.Sources = append(ix.Sources, SourceFile{Name: s.Name, Mate: s.Mate})
		}
	}
	if len(ix.Sources) > 0 {
		for _, e := range ix.Entries {
			ix.Sources[e.Source].Reads += e.ReadCount
		}
	}
	if reordering {
		// The stage permutation maps ingest positions to original input
		// positions, and is complete only after the pool above returned.
		// Composed with the storage order, Perm[decoded position] =
		// original position, validated against TotalReads by the
		// marshaller.
		stagePerm := rp.Perm()
		ix.Perm = make([]int64, len(stored))
		for i, o := range stored {
			if o >= len(stagePerm) {
				return nil, fmt.Errorf("shard: stage permutation holds %d entries, stored record %d reaches %d",
					len(stagePerm), i, o)
			}
			ix.Perm[i] = stagePerm[o]
		}
		ix.ReorderMode = rp.ReorderMode()
	}
	var cons genome.Seq
	if opt.Core.EmbedConsensus {
		cons = opt.Core.Consensus
	}
	hdr, err := marshalHeader(ix, cons)
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(hdr); err != nil {
		return nil, err
	}
	for _, blk := range blocks {
		if _, err := w.Write(blk); err != nil {
			return nil, err
		}
	}
	return &Stats{
		Shards:          len(blocks),
		Reads:           ix.TotalReads,
		CompressedBytes: len(hdr) + int(off),
		HeaderBytes:     len(hdr),
		BlockBytes:      int(off),
		Sources:         len(ix.Sources),
		ReorderMode:     ix.ReorderMode,
	}, nil
}

// DecompressShard is the one fetch + verify + decode + count-check of
// shard i to records, behind Decompress. Like
// core.Decompress, an embedded consensus always wins; cons is the
// fallback for containers written without one.
func (c *Container) DecompressShard(i int, cons genome.Seq) (*fastq.ReadSet, error) {
	blk, err := c.fetch(i)
	if err != nil {
		return nil, err
	}
	if err := c.verify(i, blk); err != nil {
		return nil, err
	}
	if c.Consensus != nil {
		cons = c.Consensus
	}
	rs, err := core.Decompress(blk, cons)
	if err != nil {
		return nil, fmt.Errorf("shard: decoding shard %d: %w", i, err)
	}
	return rs, c.checkCount(i, len(rs.Records))
}

// AppendFASTQ is DecompressShard to FASTQ text: it appends shard i's
// reads to dst, byte for byte what ReadSet.Write writes for the records
// DecompressShard returns, straight from the decoder (core.AppendFASTQ).
// letters is the fallback consensus as text (genome.AppendASCII), built
// once by the caller; like DecompressShard's cons, it is used only when
// the container embeds no consensus.
func (c *Container) AppendFASTQ(dst []byte, i int, letters []byte) ([]byte, error) {
	blk := blocks.Get()
	defer freelist.PutBuf(blocks, blk)
	var err error
	if *blk, err = c.fetchInto((*blk)[:0], i); err != nil {
		return dst, err
	}
	return c.AppendBlockFASTQ(dst, i, *blk, letters)
}

// AppendBlockFASTQ is AppendFASTQ for a caller that fetched shard i's
// bytes itself (the in-storage engine reads them back from its device
// model): blk is verified against the index checksum, rendered, and the
// read count checked against the index.
func (c *Container) AppendBlockFASTQ(dst []byte, i int, blk, letters []byte) ([]byte, error) {
	if err := c.verify(i, blk); err != nil {
		return dst, err
	}
	if c.letters != nil {
		letters = c.letters
	}
	out, n, err := core.AppendFASTQ(dst, blk, letters)
	if err != nil {
		return dst, fmt.Errorf("shard: decoding shard %d: %w", i, err)
	}
	if err := c.checkCount(i, n); err != nil {
		return dst, err
	}
	return out, nil
}

// fallbackLetters is cons as text, what AppendFASTQ takes, or nil when
// the container embeds its own consensus: built once per call of a
// whole-container reader.
func (c *Container) fallbackLetters(cons genome.Seq) []byte {
	if c.letters != nil {
		return nil
	}
	return genome.AppendASCII(make([]byte, 0, len(cons)), cons)
}

// checkCount checks the number of reads shard i decoded to against the
// index.
func (c *Container) checkCount(i, n int) error {
	if want := c.Index.Entries[i].ReadCount; n != want {
		return fmt.Errorf("shard: shard %d decoded %d reads, index says %d", i, n, want)
	}
	return nil
}

// testDecodeStarted, when non-nil, observes every shard decode the
// renderer of DecompressTo and DecompressOriginalTo starts. Test-only:
// the bounded-memory test uses it to prove the claim bound keeps
// decoding from running ahead of a slow writer.
var testDecodeStarted func(shard int)

// DecompressTo decodes the container shard by shard on up to workers
// goroutines (<= 0 uses GOMAXPROCS) and streams the reads to w in shard
// order, one write per shard: each worker renders its shard's FASTQ text
// straight from the decoder (AppendFASTQ), and writes go to w one at a
// time, in order, from whichever worker holds the next shard. Unlike
// Decompress, the whole read set is never materialized: at most
// workers+1 decoded shards are resident at once — a shard is claimed
// for decoding only as earlier ones are written — so peak memory is
// O(workers × shard), not O(container). cons is the fallback consensus
// for containers written without an embedded one. This is the streaming
// path behind `sage decompress`.
func (c *Container) DecompressTo(w io.Writer, cons genome.Seq, workers int) error {
	return stream(c.allShards(), workers, c.renderer(cons), func(buf *[]byte) error {
		_, err := w.Write(*buf)
		freelist.PutBuf(texts, buf)
		return err
	})
}

// renderer is the decode step of DecompressTo and DecompressOriginalTo:
// it renders shard i's FASTQ text into a buffer from texts, which emit
// puts back.
func (c *Container) renderer(cons genome.Seq) func(i int) (*[]byte, error) {
	letters := c.fallbackLetters(cons)
	return func(i int) (*[]byte, error) {
		if testDecodeStarted != nil {
			testDecodeStarted(i)
		}
		buf := texts.Get()
		var err error
		*buf, err = c.AppendFASTQ((*buf)[:0], i, letters)
		return buf, err
	}
}

// Buffers kept between shard decodes (package freelist says why not a
// sync.Pool, and why none past freelist.MaxKeep): the text a worker
// renders a shard into, until emit has written it or handed it to the
// restorer, and the block AppendFASTQ fetches, until core has parsed
// it. A decode pool of the default width holds GOMAXPROCS+1 texts at
// once and GOMAXPROCS blocks, and the lists keep that many: a shorter
// text list would drop a buffer each time the pool drains, and a later
// shard would grow a fresh one.
var (
	texts  = freelist.NewN[[]byte](runtime.GOMAXPROCS(0) + 1)
	blocks = freelist.New[[]byte]()
)

// DecompressOriginalTo streams the container to w in the exact
// original input order. For identity-order containers it is
// DecompressTo; for a reordered container (format v5) the workers
// render each shard's FASTQ text as DecompressTo's do, emit hands each
// record's bytes (fastq.NextRecord), shard by shard in stored order, to
// reorder.Restorer under its original index from the stored inverse
// permutation, and the restorer
// writes them back in that order — from memory within sc's budget,
// else range by range out of one spill file — so original-order
// recovery of a container far larger than RAM costs O(window + budget),
// not O(container). This is the engine behind `sage decompress
// -original-order`.
func (c *Container) DecompressOriginalTo(w io.Writer, cons genome.Seq, workers int, sc reorder.SortConfig) error {
	if c.Index.ReorderMode == ReorderNone {
		return c.DecompressTo(w, cons, workers)
	}
	perm := c.Index.Perm
	r := reorder.NewRestorer(sc)
	defer r.Close()
	pos := 0
	err := stream(c.allShards(), workers, c.renderer(cons), func(buf *[]byte) error {
		defer freelist.PutBuf(texts, buf)
		for text := *buf; len(text) > 0; pos++ {
			rec, rest, err := fastq.NextRecord(text)
			if err != nil {
				return fmt.Errorf("shard: splitting decoded text: %w", err)
			}
			if pos >= len(perm) {
				return fmt.Errorf("shard: container holds more records than its %d-entry permutation", len(perm))
			}
			if err := r.AddText(perm[pos], rec.Bytes); err != nil {
				return err
			}
			text = rest
		}
		return nil
	})
	if err != nil {
		return err
	}
	_, err = r.WriteTo(w)
	return err
}

// allShards lists every shard in index order.
func (c *Container) allShards() []int {
	list := make([]int, c.NumShards())
	for i := range list {
		list[i] = i
	}
	return list
}

// stream runs pool.Each over the shards of list, in list order, on up
// to workers goroutines (<= 0 uses GOMAXPROCS, and never more than there
// are shards): decode runs for each shard, and emit receives the results
// in list order. Every whole-container reader runs on it.
func stream[T any](list []int, workers int, decode func(shard int) (T, error), emit func(T) error) error {
	return pool.Each(len(list), workers, func(k int) (T, error) { return decode(list[k]) }, emit)
}
