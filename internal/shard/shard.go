package shard

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"sage/internal/core"
	"sage/internal/fastq"
	"sage/internal/freelist"
	"sage/internal/genome"
	"sage/internal/mapper"
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
// reorder stage, internal/reorder.Stage) — on a worker pool and
// assembles one container into w. Raw reads are bounded to one
// in-flight batch per worker; only the (much smaller) compressed
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

	var (
		mu       sync.Mutex
		blocks   [][]byte
		counts   []int
		sources  []int
		zones    []ZoneMap
		orders   [][]int
		firstErr error
	)
	var stop atomic.Bool
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		stop.Store(true)
	}

	workers := opt.workers()
	jobs := make(chan fastq.Batch, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range jobs {
				if stop.Load() {
					continue
				}
				enc, err := core.Compress(&fastq.ReadSet{Records: b.Records}, blockOpt)
				if err != nil {
					fail(fmt.Errorf("shard: compressing shard %d: %w", b.Index, err))
					continue
				}
				// Zone maps summarize the records the codec will decode
				// back out: when quality is discarded, the quality
				// statistics must report "unscored" too.
				zm := ComputeZoneMap(b.Records, opt.sketchBytes(), blockOpt.IncludeQuality)
				mu.Lock()
				for len(blocks) <= b.Index {
					blocks = append(blocks, nil)
					counts = append(counts, 0)
					sources = append(sources, 0)
					zones = append(zones, ZoneMap{})
					orders = append(orders, nil)
				}
				blocks[b.Index] = enc.Data
				counts[b.Index] = len(b.Records)
				sources[b.Index] = b.Source
				zones[b.Index] = zm
				if reordering {
					orders[b.Index] = enc.Order
				}
				mu.Unlock()
			}
		}()
	}
	for !stop.Load() {
		b, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			fail(fmt.Errorf("shard: reading batch: %w", err))
			break
		}
		jobs <- b
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	ix := &Index{ShardReads: opt.shardReads(), SketchBytes: opt.sketchBytes(),
		Entries: make([]Entry, len(blocks))}
	if ms, ok := src.(interface{ Sources() []fastq.Source }); ok {
		for _, s := range ms.Sources() {
			ix.Sources = append(ix.Sources, SourceFile{Name: s.Name, Mate: s.Mate})
		}
	}
	if reordering {
		// The stage permutation maps ingest positions to original input
		// positions; the codec then stores each shard position-sorted.
		// Compose the two so Perm[decoded position] = original position
		// — complete only after the drain above, and validated against
		// TotalReads by the marshaller.
		stagePerm := rp.Perm()
		perm := make([]int64, 0, len(stagePerm))
		start := 0
		for i := range blocks {
			if len(orders[i]) != counts[i] {
				return nil, fmt.Errorf("shard: shard %d storage order covers %d of %d records",
					i, len(orders[i]), counts[i])
			}
			for _, o := range orders[i] {
				if start+o >= len(stagePerm) {
					return nil, fmt.Errorf("shard: stage permutation holds %d entries, shard %d reaches %d",
						len(stagePerm), i, start+o)
				}
				perm = append(perm, stagePerm[start+o])
			}
			start += counts[i]
		}
		ix.ReorderMode = rp.ReorderMode()
		ix.Perm = perm
	}
	var off int64
	for i, blk := range blocks {
		if blk == nil {
			return nil, fmt.Errorf("shard: shard %d was never compressed", i)
		}
		ix.TotalReads += counts[i]
		ix.Entries[i] = Entry{
			ReadCount: counts[i],
			Offset:    off,
			Length:    int64(len(blk)),
			Source:    sources[i],
			Zone:      zones[i],
			Checksum:  crc32.ChecksumIEEE(blk),
		}
		off += int64(len(blk))
		if len(ix.Sources) > 0 {
			ix.Sources[sources[i]].Reads += counts[i]
		}
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

// testDecodeStarted, when non-nil, observes every shard decode
// DecompressTo admits, before the decode runs. Test-only: the
// bounded-memory test uses it to prove the write-order window keeps
// decoding from running ahead of a slow writer.
var testDecodeStarted func(shard int)

// DecompressTo decodes the container shard by shard on up to workers
// goroutines (<= 0 uses GOMAXPROCS) and streams the reads to w in shard
// order, one write per shard: each worker renders its shard's FASTQ text
// straight from the decoder (AppendFASTQ), and the writer only writes.
// Unlike Decompress, the whole read set is never materialized: at most
// workers+1 decoded shards are resident at once — shards are admitted
// into the decode pool only as the writer drains earlier ones — so peak
// memory is O(workers × shard), not O(container). cons is the fallback
// consensus for containers written without an embedded one. This is the
// streaming path behind `sage decompress`.
func (c *Container) DecompressTo(w io.Writer, cons genome.Seq, workers int) error {
	return stream(c.allShards(), workers, c.renderer(cons), func(buf *[]byte) error {
		_, err := w.Write(*buf)
		freelist.PutBuf(texts, buf)
		return err
	})
}

// renderer is the decode step of DecompressTo and DecompressOriginalTo:
// it renders shard i's FASTQ text into a buffer from texts, which the
// writer puts back.
func (c *Container) renderer(cons genome.Seq) func(i int) (*[]byte, error) {
	letters := c.fallbackLetters(cons)
	return func(i int) (*[]byte, error) {
		buf := texts.Get()
		var err error
		*buf, err = c.AppendFASTQ((*buf)[:0], i, letters)
		return buf, err
	}
}

// Buffers kept between shard decodes (package freelist says why not a
// sync.Pool, and why none past freelist.MaxKeep): the text a worker
// renders a shard into, until the writer has written it or handed it to
// the restorer, and the block AppendFASTQ fetches, until core has parsed
// it.
var (
	texts  = freelist.New[[]byte]()
	blocks = freelist.New[[]byte]()
)

// DecompressOriginalTo streams the container to w in the exact
// original input order. For identity-order containers it is
// DecompressTo; for a reordered container (format v5) the workers
// render each shard's FASTQ text as DecompressTo's do, the writer hands
// each record's bytes (fastq.NextRecord) to reorder.Restorer under its
// original index from the stored inverse permutation, and the restorer
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

// stream is the one ordered decode pool, behind every whole-container
// reader: decode runs for each shard of list on up to workers
// goroutines (<= 0 uses GOMAXPROCS), and emit receives the results in
// list order, on the calling goroutine.
func stream[T any](list []int, workers int, decode func(shard int) (T, error), emit func(T) error) error {
	n := len(list)
	if n == 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	// window tokens bound the shards admitted but not yet written:
	// workers decoding plus one decoded shard waiting its turn. The
	// feeder takes a token BEFORE dispatching a job — admission happens
	// strictly in shard order, so the lowest unwritten shard is always
	// among the admitted set and the writer can always make progress
	// (acquiring tokens worker-side would let shards i+1..i+workers
	// exhaust the window while shard i's worker still waits for one).
	// Only the writer returns tokens, one per shard written.
	window := make(chan struct{}, workers+1)
	jobs := make(chan int)

	var (
		mu       sync.Mutex
		cond     = sync.NewCond(&mu)
		ready    = make(map[int]T, workers+1)
		firstErr error
	)
	var stop atomic.Bool
	var pipeline sync.WaitGroup // feeder + workers
	pipeline.Add(1)
	go func() { // feeder: admits shards in index order
		defer pipeline.Done()
		defer close(jobs)
		for i := 0; i < n; i++ {
			window <- struct{}{}
			if stop.Load() {
				return
			}
			jobs <- i
		}
	}()
	for wkr := 0; wkr < workers; wkr++ {
		pipeline.Add(1)
		go func() {
			defer pipeline.Done()
			for i := range jobs {
				if stop.Load() {
					continue
				}
				shardID := list[i]
				if testDecodeStarted != nil {
					testDecodeStarted(shardID)
				}
				v, err := decode(shardID)
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					stop.Store(true)
				} else {
					ready[i] = v
				}
				cond.Broadcast()
				mu.Unlock()
			}
		}()
	}

	var writeErr error
	for i := 0; i < n && writeErr == nil; i++ {
		mu.Lock()
		v, ok := ready[i]
		for !ok && firstErr == nil {
			cond.Wait()
			v, ok = ready[i]
		}
		if firstErr != nil {
			mu.Unlock()
			break
		}
		delete(ready, i)
		mu.Unlock()
		writeErr = emit(v)
		<-window // the shard left memory: admit the next decode
	}
	if writeErr != nil {
		mu.Lock()
		if firstErr == nil {
			firstErr = writeErr
		}
		mu.Unlock()
	}
	if firstErr != nil {
		// Unwedge the feeder parked on a full window, then wait the
		// pipeline out (workers drain remaining jobs as no-ops).
		stop.Store(true)
		done := make(chan struct{})
		go func() { pipeline.Wait(); close(done) }()
		for {
			select {
			case <-window:
			case <-done:
				return firstErr
			}
		}
	}
	pipeline.Wait()
	return nil
}

// Decompress parses a sharded container and decodes it whole: Parse
// plus a collecting sink over the stream pool (up to workers
// goroutines, <= 0 uses GOMAXPROCS), reads in shard order. Output is
// identical for any worker count. cons is used only when the
// container has no embedded consensus; pass nil for self-contained
// containers.
func Decompress(data []byte, cons genome.Seq, workers int) (*fastq.ReadSet, error) {
	c, err := Parse(data)
	if err != nil {
		return nil, err
	}
	out := &fastq.ReadSet{Records: make([]fastq.Record, 0, c.Index.TotalReads)}
	err = stream(c.allShards(), workers, func(i int) (*fastq.ReadSet, error) {
		return c.DecompressShard(i, cons)
	}, func(rs *fastq.ReadSet) error {
		out.Records = append(out.Records, rs.Records...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
