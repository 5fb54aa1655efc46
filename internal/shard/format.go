// On-disk container format: layout states the header once and drives
// both marshalHeader and parseHeader (docs/FORMAT.md is the normative
// byte-level specification).
package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"

	"sage/internal/fastq"
	"sage/internal/freelist"
	"sage/internal/genome"
	"sage/internal/wire"
)

// Magic identifies a sharded SAGe container ("SAGS", vs "SAGe" for a
// single-block container).
var Magic = [4]byte{'S', 'A', 'G', 'S'}

// FormatVersion is the newest container version the writer emits.
// Version 5 is written only when the container is similarity-reordered
// (the header then carries the inverse permutation); identity-order
// containers still marshal as version 4, byte for byte, so older
// readers keep reading them. Readers additionally accept every older
// version: 1 and 2 (one shared manifest-less wire layout), 3 (source
// manifest, no zone maps), and 4 (zone maps, no reorder block); see
// docs/FORMAT.md for the version history and compatibility rules.
const FormatVersion = 5

// manifestVersion is the first version whose header carries a source
// manifest and per-shard source fields.
const manifestVersion = 3

// zoneMapVersion is the first version whose header carries a sketch
// size and whose index entries carry zone maps (per-shard summary
// statistics plus a k-mer sketch, see zonemap.go).
const zoneMapVersion = 4

// reorderVersion is the first version whose header records a reorder
// mode and — when the mode is not ReorderNone — the inverse
// permutation that recovers original input order.
const reorderVersion = 5

// Reorder modes a container header may record (Index.ReorderMode).
// The values mirror internal/reorder's Mode.
const (
	// ReorderNone: records are in ingest order — every container
	// through v4. A v5 header never carries it: version 5 exists only
	// to hold a permutation, and readers reject a v5 header whose mode
	// is 0.
	ReorderNone = 0
	// ReorderClump: records were clump-sorted by minimizer at write
	// time; Index.Perm maps stored position → original position.
	ReorderClump = 1
)

// maxReorderMode caps the mode values a header may carry.
const maxReorderMode = ReorderClump

// maxSketchBytes caps the per-shard sketch size a header may carry: a
// corrupt sketch-size varint must not drive shardCount × sketch
// allocations. 1 MiB per shard is far beyond any useful sketch.
const maxSketchBytes = 1 << 20

// maxZoneLen caps the read lengths a zone map may claim. Mapped reads
// compress far below 1 byte per base, so the container size cannot
// bound a read length; 2^40 bases is absurd but safe.
const maxZoneLen = 1 << 40

// Flag bits.
const (
	flagConsensus = 1 << iota
	flagConsensusHasN
)

// Entry describes one shard in the index.
type Entry struct {
	// ReadCount is the number of records in the shard.
	ReadCount int
	// Offset is the shard block's byte offset from the start of the
	// block section.
	Offset int64
	// Length is the block's byte length.
	Length int64
	// Source indexes the container's source manifest (Index.Sources):
	// the file, or mate pair, every record of the shard came from.
	// Shard boundaries are file-aware, so one index is always enough.
	// 0 when the container carries no manifest.
	Source int
	// Zone holds the shard's summary statistics (v4+). The zero value
	// means "unknown" for containers read from older versions; queries
	// then scan the shard instead of pruning it.
	Zone ZoneMap
	// Checksum is the CRC-32 (IEEE) of the block bytes.
	Checksum uint32
}

// SourceFile is one entry of the container's source manifest: an input
// file (or R1/R2 mate pair, ingested interleaved) and the number of
// records it contributed.
type SourceFile struct {
	// Name is the source file name (the R1 file of a pair).
	Name string
	// Mate is the R2 file name; empty for single-file sources.
	Mate string
	// Reads is the total record count attributed to this source.
	Reads int
}

// Display renders the source for humans: "name" or "name+mate".
func (s SourceFile) Display() string {
	if s.Mate == "" {
		return s.Name
	}
	return s.Name + "+" + s.Mate
}

// Index is the container's table of contents.
type Index struct {
	// TotalReads is the record count across all shards.
	TotalReads int
	// ShardReads is the target shard size the writer used (0 if the
	// writer streamed with an unknown total).
	ShardReads int
	// SketchBytes is the per-shard k-mer sketch size (v4+). Every
	// entry's Zone.Sketch has exactly this many bytes; 0 disables
	// sketching (and is what re-marshaled legacy indexes carry).
	SketchBytes int
	// ReorderMode records how the writer permuted the records
	// (ReorderNone, ReorderClump). Non-zero only in v5+ containers.
	ReorderMode int
	// Perm is the inverse permutation of a reordered container:
	// Perm[i] is the original input position of the record stored at
	// position i. len(Perm) == TotalReads when ReorderMode != 0, nil
	// otherwise.
	Perm []int64
	// Sources is the source-file manifest (v3+). Empty when the writer
	// had no file attribution (in-memory or single-stream compression);
	// otherwise Entry.Source indexes into it.
	Sources []SourceFile
	// Entries lists the shards in read order. Shards from the same
	// source are contiguous: Entry.Source never decreases.
	Entries []Entry
}

// SourceShards counts the shards attributed to each source.
func (ix *Index) SourceShards() []int {
	if len(ix.Sources) == 0 {
		return nil
	}
	out := make([]int, len(ix.Sources))
	for _, e := range ix.Entries {
		out[e.Source]++
	}
	return out
}

// SourceBytes sums the compressed block bytes attributed to each source.
func (ix *Index) SourceBytes() []int64 {
	if len(ix.Sources) == 0 {
		return nil
	}
	out := make([]int64, len(ix.Sources))
	for _, e := range ix.Entries {
		out[e.Source] += e.Length
	}
	return out
}

// BlockBytes sums the block lengths.
func (ix *Index) BlockBytes() int64 {
	var n int64
	for _, e := range ix.Entries {
		n += e.Length
	}
	return n
}

// Container is a parsed sharded container: header, index, and the block
// section. Blocks are decoded lazily, one shard at a time. The block
// section stays behind an io.ReaderAt (Open; Parse opens a byte slice),
// so a served container never has to be resident as a whole.
type Container struct {
	Index Index
	// Version is the wire format version the container was written
	// with (1..FormatVersion); versions below 3 carry no source
	// manifest.
	Version int
	// Consensus is the embedded shared consensus, nil if the container
	// was written without one.
	Consensus genome.Seq
	// src is the container's backing source: Block reads it at
	// blockBase+Offset on demand. blockBase is the header length — the
	// block section's offset within the container file — so per-shard
	// handles can report container-absolute block offsets.
	src       io.ReaderAt
	blockBase int64
	// letters is the embedded consensus as text (genome.AppendASCII),
	// built once when the header is parsed: AppendFASTQ renders every
	// block against it. Nil without an embedded consensus.
	letters []byte
}

// NumShards returns the shard count.
func (c *Container) NumShards() int { return len(c.Index.Entries) }

// HasZoneMaps reports whether the container's wire version carries
// zone maps; QueryPlan only prunes when it does.
func (c *Container) HasZoneMaps() bool { return c.Version >= zoneMapVersion }

// marshalHeader encodes the header of an index through layout; the
// block section follows it verbatim. The version byte is the lowest
// that can carry the index: identity-order containers stay version 4
// (bit-identical to the pre-reorder writer), and only a reordered index
// promotes the container to version 5. Every rule a reader enforces is
// enforced here too, so nothing is written that would not parse back.
func marshalHeader(ix *Index, cons genome.Seq) ([]byte, error) {
	c := &Container{Index: *ix, Consensus: cons, Version: zoneMapVersion}
	if ix.ReorderMode != ReorderNone {
		c.Version = reorderVersion
	}
	w := wire.NewWriter("shard")
	layout(w, c, &packed{})
	if err := w.Err(); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

// parseHeader decodes magic through headerCRC from a container prefix.
// totalSize is the full container size, bounding the plausibility
// checks. On success it returns the container (index and consensus
// populated, no block source attached) and the header length in bytes.
// A header that runs past the prefix of a container large enough to
// hold it fails with wire.ErrShort, which Open answers by retrying with
// a longer prefix; the permutation and the consensus are unpacked only
// once the whole header has parsed, so a retry parses again but never
// unpacks twice.
func parseHeader(prefix []byte, totalSize int64) (*Container, int, error) {
	c := &Container{}
	var p packed
	r := wire.NewReader("shard", prefix, totalSize)
	layout(r, c, &p)
	if err := r.Err(); err != nil {
		return nil, 0, err
	}
	if err := c.unpack(&p); err != nil {
		return nil, 0, err
	}
	return c, len(r.Bytes()), nil
}

// packed holds the two header fields a reader moves as bytes and
// unpacks after the parse: the permutation block and the packed
// consensus. Both alias the parsed prefix.
type packed struct {
	perm       []byte
	hasCons    bool
	cons       []byte
	consLen    int
	consFormat genome.Format
}

// unpack decodes p's fields into c: the inverse permutation (v5), and
// the embedded consensus with its text.
func (c *Container) unpack(p *packed) error {
	var err error
	if c.Index.ReorderMode != ReorderNone {
		if c.Index.Perm, err = decodePerm(p.perm, c.Index.TotalReads); err != nil {
			return err
		}
	}
	if p.hasCons {
		if c.Consensus, err = genome.Decode(p.cons, p.consLen, p.consFormat); err != nil {
			return fmt.Errorf("shard: unpacking consensus: %w", err)
		}
		c.letters = genome.AppendASCII(make([]byte, 0, len(c.Consensus)), c.Consensus)
	}
	return nil
}

// layout is the SAGS header, stated once: every field, flag and version
// gate in wire order (docs/FORMAT.md is the prose form), with the rules
// that tie fields together checked where the fields are moved. Over a
// writing codec it marshals c, over a reading one it fills c in — all
// but the permutation and the consensus, which it leaves in p for
// unpack — and a rule broken in either direction fails the codec.
func layout(w *wire.Codec, c *Container, p *packed) {
	ix := &c.Index
	count := w.Fit(1) // a count of things that each cost at least one bit

	w.Magic(Magic[:])
	ver := uint8(c.Version)
	w.U8("version", &ver)
	// Versions 1 and 2 share the legacy manifest-less layout.
	if ver < 1 || ver > FormatVersion {
		w.Failf("unsupported version %d (this reader handles 1..%d)", ver, FormatVersion)
	}
	c.Version = int(ver)
	var flags uint8
	if c.Consensus != nil {
		flags |= flagConsensus
		if c.Consensus.HasN() {
			flags |= flagConsensusHasN
		}
	}
	w.U8("flags", &flags)
	if reserved := flags &^ (flagConsensus | flagConsensusHasN); reserved != 0 {
		w.Failf("reserved flag bits %#02x are set", reserved)
	}
	w.Int("total read count", &ix.TotalReads, count)
	w.Int("shard size", &ix.ShardReads, count)
	if ver >= zoneMapVersion {
		w.Int("sketch size", &ix.SketchBytes, maxSketchBytes)
	}

	// Reorder block: version 5 exists only to carry a permutation, so a
	// v5 header with mode none is as broken as an unknown mode.
	if ver >= reorderVersion {
		w.Int("reorder mode", &ix.ReorderMode, maxReorderMode)
		if ix.ReorderMode == ReorderNone {
			w.Failf("version %d header with reorder mode none", ver)
		}
		var enc []byte
		var err error
		if w.Storing() {
			if len(ix.Perm) != ix.TotalReads {
				w.Failf("permutation has %d entries for %d reads", len(ix.Perm), ix.TotalReads)
			}
			enc, err = encodePerm(ix.Perm)
			w.Fail(err)
		}
		encLen := len(enc)
		w.Int("permutation block size", &encLen, count)
		// Every permutation entry costs at least one varint byte; checked
		// before the block is allocated, so a corrupt TotalReads cannot
		// drive a giant make in decodePerm either.
		if encLen < ix.TotalReads {
			w.Failf("permutation block (%d bytes) cannot hold %d entries", encLen, ix.TotalReads)
		}
		w.Raw("permutation block", &enc, encLen)
		sum := crc32.ChecksumIEEE(enc)
		stored := sum
		w.U32("permutation checksum", &stored)
		if stored != sum {
			w.Failf("permutation checksum mismatch: got %08x, container says %08x", sum, stored)
		}
		p.perm = enc
	} else if ix.ReorderMode != ReorderNone || len(ix.Perm) != 0 {
		w.Failf("version %d header cannot carry reorder mode %d or a permutation", ver, ix.ReorderMode)
	}

	if flags&flagConsensus != 0 {
		n := len(c.Consensus)
		w.Int("consensus length", &n, count)
		f := genome.Format2Bit
		if flags&flagConsensusHasN != 0 {
			f = genome.Format3Bit
		}
		var cons []byte
		if w.Storing() {
			var err error
			if cons, err = genome.Encode(c.Consensus, f); err != nil {
				w.Failf("packing consensus: %w", err)
			}
		}
		w.Raw("consensus", &cons, (n*f.BitsPerBase()+7)/8)
		p.hasCons, p.cons, p.consLen, p.consFormat = true, cons, n, f
	}

	if ver >= manifestVersion {
		// A manifest entry is at least three one-byte varints.
		nSources := len(ix.Sources)
		w.Int("source count", &nSources, w.Fit(3*8))
		if w.Loading() && nSources > 0 {
			ix.Sources = make([]SourceFile, nSources)
		}
		for i := range ix.Sources {
			s := &ix.Sources[i]
			w.Scope("source", i)
			w.String("name", &s.Name)
			w.String("mate name", &s.Mate)
			w.Int("read count", &s.Reads, count)
		}
		w.Scope("", 0)
	}

	// An index entry is three varints and a u32 checksum, plus a source
	// varint, 12 zone-map varints and the sketch from version 4 on.
	minEntry := int64(7)
	if ver >= zoneMapVersion {
		minEntry = 8 + 12 + int64(ix.SketchBytes)
	}
	nShards := len(ix.Entries)
	w.Int("shard count", &nShards, w.Fit(minEntry*8))
	if w.Loading() {
		ix.Entries = make([]Entry, nShards)
	}
	maxSource := uint64(0)
	if len(ix.Sources) > 0 {
		maxSource = uint64(len(ix.Sources) - 1)
	}
	var emptySketch []byte
	if w.Storing() {
		emptySketch = make([]byte, ix.SketchBytes)
	}
	perSrc := make([]int, len(ix.Sources))
	reads, next, prevSource := 0, int64(0), 0
	for i := range ix.Entries {
		e := &ix.Entries[i]
		w.Scope("shard", i)
		w.Int("read count", &e.ReadCount, count)
		w.Int64("offset", &e.Offset, count)
		w.Int64("length", &e.Length, count)
		if e.Offset != next {
			w.Failf("shard %d offset %d is not contiguous (want %d)", i, e.Offset, next)
		}
		next += e.Length
		reads += e.ReadCount
		if ver >= manifestVersion {
			// Without a manifest every source is 0; with one, shards are
			// written in ingest order and never span sources, so the
			// indices never decrease.
			w.Int("source", &e.Source, maxSource)
			if e.Source < prevSource {
				w.Failf("shard %d source %d precedes shard %d's source %d", i, e.Source, i-1, prevSource)
			}
			prevSource = e.Source
		}
		if len(perSrc) > 0 && w.Err() == nil {
			perSrc[e.Source] += e.ReadCount
		}
		if ver >= zoneMapVersion {
			// Zone map: caps are semantic — Phred values by the quality
			// alphabet, GC by 1000, expected error by the shard's own
			// longest read — and every min/max pair is ordered.
			const maxPhredMilli = fastq.MaxQuality * 1000
			z := &e.Zone
			w.Int("min length", &z.MinLen, maxZoneLen)
			w.Int("max length", &z.MaxLen, maxZoneLen)
			w.Int("scored read count", &z.QualReads, uint64(e.ReadCount))
			w.Int("low-quality read count", &z.LowQualReads, uint64(e.ReadCount))
			w.Int("min Phred", &z.MinPhred, fastq.MaxQuality)
			w.Int("avg Phred", &z.AvgPhredMilli, maxPhredMilli)
			w.Int("min avg Phred", &z.MinAvgPhredMilli, maxPhredMilli)
			w.Int("max avg Phred", &z.MaxAvgPhredMilli, maxPhredMilli)
			maxEE := uint64(z.MaxLen+1) * 1000
			w.Int("min expected error", &z.MinEEMilli, maxEE)
			w.Int("max expected error", &z.MaxEEMilli, maxEE)
			w.Int("min GC", &z.MinGCMilli, 1000)
			w.Int("max GC", &z.MaxGCMilli, 1000)
			ordered(w, i, "lengths", z.MinLen, z.MaxLen)
			ordered(w, i, "avg Phred", z.MinAvgPhredMilli, z.MaxAvgPhredMilli)
			ordered(w, i, "expected error", z.MinEEMilli, z.MaxEEMilli)
			ordered(w, i, "GC", z.MinGCMilli, z.MaxGCMilli)
			if w.Storing() && z.Sketch == nil {
				// A zone-less entry (legacy index re-marshaled) still owes
				// the index its fixed-size sketch slot.
				w.Raw("sketch", &emptySketch, ix.SketchBytes)
			} else {
				w.Raw("sketch", &z.Sketch, ix.SketchBytes)
				if w.Loading() {
					// Kept for the container's life: a copy, so the
					// parsed prefix is not.
					z.Sketch = bytes.Clone(z.Sketch)
				}
			}
		}
		w.U32("checksum", &e.Checksum)
	}
	w.Scope("", 0)
	if reads != ix.TotalReads {
		w.Failf("index lists %d reads but header claims %d", reads, ix.TotalReads)
	}
	for i, s := range ix.Sources {
		if perSrc[i] != s.Reads {
			w.Failf("source %q: index attributes %d reads but manifest claims %d", s.Display(), perSrc[i], s.Reads)
		}
	}

	sum := crc32.ChecksumIEEE(w.Bytes())
	stored := sum
	w.U32("header checksum", &stored)
	if stored != sum {
		w.Failf("header checksum mismatch: got %08x, container says %08x", sum, stored)
	}
}

// ordered fails w when a zone-map envelope of the given shard has its
// minimum above its maximum.
func ordered(w *wire.Codec, shard int, what string, lo, hi int) {
	if lo > hi {
		w.Failf("shard %d zone %s inverted: %d > %d", shard, what, lo, hi)
	}
}

// encodePerm serializes an inverse permutation as zigzag-delta varints
// (binary.PutVarint of perm[i]-perm[i-1]): a clump sort keeps runs of
// nearby original indices together, so deltas are small and the block
// stays a fraction of a fixed-width encoding. It holds perm to the
// rules decodePerm enforces — every value in range, none repeated — so
// a reorder-stage bug fails the write instead of the first read.
func encodePerm(perm []int64) ([]byte, error) {
	out := make([]byte, 0, len(perm)*2)
	seen := make([]uint64, (len(perm)+63)/64)
	var tmp [binary.MaxVarintLen64]byte
	prev := int64(0)
	for i, v := range perm {
		if v < 0 || v >= int64(len(perm)) {
			return nil, fmt.Errorf("shard: permutation entry %d is %d, outside [0,%d)", i, v, len(perm))
		}
		if seen[v>>6]&(1<<(uint(v)&63)) != 0 {
			return nil, fmt.Errorf("shard: permutation repeats original index %d (entry %d)", v, i)
		}
		seen[v>>6] |= 1 << (uint(v) & 63)
		n := binary.PutVarint(tmp[:], v-prev)
		out = append(out, tmp[:n]...)
		prev = v
	}
	return out, nil
}

// decodePerm reverses encodePerm and fully validates the result: total
// entries must decode to exactly the encoded bytes, every value must
// lie in [0,total), and no value may repeat — anything else is
// corruption, since a stored block that is not a permutation of
// [0,total) could silently drop or duplicate reads on original-order
// recovery.
func decodePerm(enc []byte, total int) ([]int64, error) {
	perm := make([]int64, total)
	seen := make([]uint64, (total+63)/64)
	prev := int64(0)
	for i := range perm {
		d, k := binary.Varint(enc)
		if k <= 0 {
			return nil, fmt.Errorf("shard: permutation block truncated at entry %d of %d", i, total)
		}
		enc = enc[k:]
		v := prev + d
		if v < 0 || v >= int64(total) {
			return nil, fmt.Errorf("shard: permutation entry %d is %d, outside [0,%d)", i, v, total)
		}
		if seen[v>>6]&(1<<(uint(v)&63)) != 0 {
			return nil, fmt.Errorf("shard: permutation repeats original index %d (entry %d)", v, i)
		}
		seen[v>>6] |= 1 << (uint(v) & 63)
		perm[i] = v
		prev = v
	}
	if len(enc) != 0 {
		return nil, fmt.Errorf("shard: permutation block has %d trailing bytes after %d entries", len(enc), total)
	}
	return perm, nil
}

// IsContainer reports whether data starts with the sharded-container
// magic. Callers use it to dispatch between this package's readers and
// the single-block decoder in internal/core.
func IsContainer(data []byte) bool {
	return len(data) >= len(Magic) && bytes.Equal(data[:len(Magic)], Magic[:])
}

// Parse is Open over a container held in memory.
func Parse(data []byte) (*Container, error) {
	return Open(bytes.NewReader(data), int64(len(data)))
}

// openChunk is the initial prefix Open reads while hunting for the end
// of the header; it doubles until the header (consensus included) fits.
const openChunk = 64 << 10

// maxHeaderBytes caps the prefix Open is willing to grow to. A real
// header is the index plus one packed consensus (a 3 Gbase genome packs
// to ~750 MB), so 1 GiB covers legitimate containers while a corrupted
// consensus-length varint in a huge container cannot drive Open into
// reading — and holding — the whole file.
const maxHeaderBytes = 1 << 30

// Open parses the header and index of a container held behind r without
// reading the block section: only a header-sized prefix is fetched, and
// Block/DecompressShard later read single shards on demand. This is the
// serving-layer entry point — a multi-terabyte container costs only its
// index in memory. The prefix starts at openChunk bytes and doubles
// while the header runs past it; each growth reads only the bytes past
// what is held, so no byte is read twice.
func Open(r io.ReaderAt, size int64) (*Container, error) {
	chunk := min(int64(openChunk), size)
	var prefix []byte
	for {
		have := int64(len(prefix))
		prefix = slices.Grow(prefix, int(chunk-have))[:chunk]
		if _, err := io.ReadFull(io.NewSectionReader(r, have, chunk-have), prefix[have:]); err != nil {
			return nil, fmt.Errorf("shard: reading container prefix: %w", err)
		}
		c, hdrLen, err := parseHeader(prefix, size)
		if errors.Is(err, wire.ErrShort) && chunk < size {
			if chunk >= maxHeaderBytes {
				return nil, fmt.Errorf("shard: header exceeds %d bytes (corrupt length field?): %w", maxHeaderBytes, err)
			}
			chunk = min(2*chunk, size)
			continue
		}
		if err != nil {
			if errors.Is(err, wire.ErrShort) {
				return nil, fmt.Errorf("shard: truncated container: %w", err)
			}
			return nil, err
		}
		if size-int64(hdrLen) != c.Index.BlockBytes() {
			return nil, fmt.Errorf("shard: block section is %d bytes, index describes %d",
				size-int64(hdrLen), c.Index.BlockBytes())
		}
		c.src = r
		c.blockBase = int64(hdrLen)
		return c, nil
	}
}

// OpenFile opens path as a lazy container. The caller owns the returned
// file and must keep it open for the container's lifetime.
func OpenFile(path string) (*Container, *os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	c, err := Open(f, fi.Size())
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return c, f, nil
}

// Block is the one block accessor: shard i's raw SAGe block, checksum-
// verified. This is the only read the shard costs: one ReadAt of
// exactly the block's bytes.
func (c *Container) Block(i int) ([]byte, error) {
	b, err := c.fetch(i)
	if err != nil {
		return nil, err
	}
	if err := c.verify(i, b); err != nil {
		return nil, err
	}
	return b, nil
}

// checkIndex range-checks a shard index.
func (c *Container) checkIndex(i int) error {
	if i < 0 || i >= len(c.Index.Entries) {
		return fmt.Errorf("shard: block %d out of range [0,%d)", i, len(c.Index.Entries))
	}
	return nil
}

// fetch reads shard i's block as stored, unverified.
func (c *Container) fetch(i int) ([]byte, error) { return c.fetchInto(nil, i) }

// fetchInto is fetch into buf's memory when it has room.
func (c *Container) fetchInto(buf []byte, i int) ([]byte, error) {
	if err := c.checkIndex(i); err != nil {
		return buf, err
	}
	e := c.Index.Entries[i]
	b := slices.Grow(buf[:0], int(e.Length))[:e.Length]
	if _, err := c.src.ReadAt(b, c.blockBase+e.Offset); err != nil {
		return b, fmt.Errorf("shard: reading block %d: %w", i, err)
	}
	return b, nil
}

// verify checks b against shard i's index checksum.
func (c *Container) verify(i int, b []byte) error {
	if err := c.checkIndex(i); err != nil {
		return err
	}
	if got, want := crc32.ChecksumIEEE(b), c.Index.Entries[i].Checksum; got != want {
		return fmt.Errorf("shard: block %d checksum mismatch: got %08x, index says %08x", i, got, want)
	}
	return nil
}

// Inspect renders a human-readable summary of a sharded container: the
// header, the shared consensus, and the full shard index with per-shard
// compressed-bytes-per-read and compression-ratio columns plus a totals
// row. Containers with a source manifest additionally get a per-shard
// source column and per-file totals. Computing a shard's ratio requires
// its uncompressed size, so Inspect renders the shards (on the one
// decode pool, all CPUs — the same work `sage decompress` does); cons is the
// fallback consensus for containers written without an embedded one.
// Shards that cannot be decoded — corrupt, or no consensus available —
// show "-" and are flagged instead of failing the whole summary.
func Inspect(data []byte, cons genome.Seq) (string, error) {
	c, err := Parse(data)
	if err != nil {
		return "", err
	}
	// Each shard's size is the length of its rendered text. A decode
	// error is carried as a value, so one undecodable shard stops
	// nothing: it shows "-" and is flagged below.
	type rendered struct {
		size int64
		err  error
	}
	sizes := make([]rendered, 0, c.NumShards())
	letters := c.fallbackLetters(cons)
	_ = stream(c.allShards(), 0, func(i int) (rendered, error) { // never fails: errors ride in the values
		buf := texts.Get()
		defer freelist.PutBuf(texts, buf)
		var err error
		*buf, err = c.AppendFASTQ((*buf)[:0], i, letters)
		return rendered{int64(len(*buf)), err}, nil
	}, func(r rendered) error {
		sizes = append(sizes, r)
		return nil
	})
	hasManifest := len(c.Index.Sources) > 0
	var b bytes.Buffer
	fmt.Fprintf(&b, "SAGe sharded container v%d, %d bytes (%d header+index, %d blocks)\n",
		c.Version, len(data), int64(len(data))-c.Index.BlockBytes(), c.Index.BlockBytes())
	fmt.Fprintf(&b, "reads: %d in %d shards (target %d reads/shard); consensus: %d bases (embedded: %v)\n",
		c.Index.TotalReads, c.NumShards(), c.Index.ShardReads, len(c.Consensus), c.Consensus != nil)
	fmt.Fprintf(&b, "reorder: %s\n", reorderModeName(&c.Index))
	fmt.Fprintf(&b, "%6s  %8s  %10s  %10s  %8s  %7s  %7s",
		"shard", "reads", "offset", "bytes", "crc32", "B/read", "ratio")
	if hasManifest {
		fmt.Fprintf(&b, "  %s", "source")
	}
	b.WriteByte('\n')
	perRead := func(n int64, reads int) string {
		if reads == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f", float64(n)/float64(reads))
	}
	var rawTotal int64
	rawKnown := true
	var bad []string
	for i, e := range c.Index.Entries {
		ratio := "-"
		if sizes[i].err != nil {
			rawKnown = false
			bad = append(bad, fmt.Sprintf("shard %d: %v", i, sizes[i].err))
		} else {
			rawTotal += sizes[i].size
			if e.Length > 0 {
				ratio = fmt.Sprintf("%.2fx", float64(sizes[i].size)/float64(e.Length))
			}
		}
		fmt.Fprintf(&b, "%6d  %8d  %10d  %10d  %08x  %7s  %7s",
			i, e.ReadCount, e.Offset, e.Length, e.Checksum,
			perRead(e.Length, e.ReadCount), ratio)
		if hasManifest {
			fmt.Fprintf(&b, "  %s", c.Index.Sources[e.Source].Display())
		}
		b.WriteByte('\n')
	}
	totalRatio := "-"
	if rawKnown && c.Index.BlockBytes() > 0 {
		totalRatio = fmt.Sprintf("%.2fx", float64(rawTotal)/float64(c.Index.BlockBytes()))
	}
	fmt.Fprintf(&b, "%6s  %8d  %10s  %10d  %8s  %7s  %7s\n",
		"total", c.Index.TotalReads, "", c.Index.BlockBytes(), "",
		perRead(c.Index.BlockBytes(), c.Index.TotalReads), totalRatio)
	if hasManifest {
		fmt.Fprintf(&b, "files: %d sources (shards are file-aware: no shard spans two sources)\n", len(c.Index.Sources))
		shards, bytesPer := c.Index.SourceShards(), c.Index.SourceBytes()
		for i, s := range c.Index.Sources {
			fmt.Fprintf(&b, "  file %-30s  %8d reads  %5d shards  %10d B\n",
				s.Display(), s.Reads, shards[i], bytesPer[i])
		}
	}
	for _, msg := range bad {
		fmt.Fprintf(&b, "! undecodable: %s\n", msg)
	}
	return b.String(), nil
}

// reorderModeName renders an index's reorder mode for Inspect.
func reorderModeName(ix *Index) string {
	switch ix.ReorderMode {
	case ReorderNone:
		return "none (records in ingest order)"
	case ReorderClump:
		return fmt.Sprintf("clump (minimizer-sorted; %d-entry inverse permutation recovers the input order)", len(ix.Perm))
	default:
		return fmt.Sprintf("mode %d", ix.ReorderMode)
	}
}
