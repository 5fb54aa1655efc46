// Package shard implements SAGe's sharded container: a read set split
// into fixed-size batches, each compressed independently as one SAGe
// block, held together by a seekable per-shard index. Shards are the
// unit of parallel compression and decompression (both on the
// repository's one worker pool, internal/pool), of pipelined
// I/O→decompress→analyze execution (§3.1), of per-shard in-storage scan
// units (internal/instorage), and of multi-client serving
// (internal/serve).
//
// # Writing
//
// CompressPipeline is the one writer: it drains a fastq.BatchSource —
// a BatchReader over one stream, a MultiReader over lane splits or
// paired-end R1/R2 mates, or either wrapped in the similarity-reorder
// stage of internal/reorder — and assembles one container. What the
// source offers decides what the header carries: a MultiReader's
// batches never span two inputs, so shard boundaries are file-aware
// and the header gains a source manifest; a reorder stage adds the
// inverse permutation that makes the reordering reversible. Compress
// is the in-memory adapter over it. The batches are compressed on
// pool.Drain, the ordered pool described under Reading: its workers
// read the source themselves, one batch at a time, and the blocks reach
// the index in batch order. Output is deterministic: any worker count
// produces identical bytes.
//
// # Reading
//
// Open/OpenFile parse only the header behind an io.ReaderAt, so a
// served container costs its index in memory — never the file; Parse
// opens a container held in a byte slice the same way. Block is the one
// block accessor (checksum-verified raw bytes; Extent says where they
// sit in the file), AppendFASTQ the fetch + verify + decode +
// count-check of a shard to FASTQ text straight from the decoder
// (AppendBlockFASTQ for a caller that fetched the bytes itself), and
// DecompressShard the same to records. Whole-container reads run on the
// same ordered, bounded-memory pool as the writer: the caller and up to
// workers-1 goroutines claim shards in order, at most workers+1 ahead
// of the last one emitted, and whichever worker finishes the next shard
// in order emits it — one emit at a time, in shard order, with no
// writer goroutine between decode and output. DecompressTo streams
// FASTQ in stored order (workers render the text, emit writes it),
// Filter the records a Predicate matches in that text (MatchText) after
// zone-map pruning, DecompressOriginalTo the same text in original
// input order (emit hands each record's bytes to reorder.Restorer under
// its index from the stored permutation). Inspect renders the index,
// including per-source attribution and per-file totals when a manifest
// is present.
//
// Open parses the header fields from a prefix it reads and, when the
// header runs past it, grows the prefix to twice its length by reading
// only the bytes past it, so no byte is read twice; the two large
// fields, the permutation and the packed consensus, are unpacked once,
// after the parse succeeds.
//
// # Container format
//
// docs/FORMAT.md is the normative byte-level specification and the one
// place that describes the layout: the uvarint encoding, the consensus
// block, the source manifest, zone maps, the reorder permutation, and
// the version-history/compatibility table. What matters to callers:
// index offsets are relative to the start of the block section, so the
// index alone is enough to seek to, verify (CRC-32/IEEE), and decode
// any single shard without touching the others; and the consensus is
// stored once at the container level and shared by every block (each
// block is compressed with EmbedConsensus off), so sharding does not
// multiply the consensus cost.
package shard
