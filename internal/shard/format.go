// On-disk container format: header marshalling/parsing with version
// dispatch (see doc.go for the layout outline and docs/FORMAT.md for
// the normative byte-level specification).
package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"sync"

	"sage/internal/fastq"
	"sage/internal/genome"
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
	// ReorderNone: records are in ingest order (every container
	// through v4, and v5 headers with a zero mode).
	ReorderNone = 0
	// ReorderClump: records were clump-sorted by minimizer at write
	// time; Index.Perm maps stored position → original position.
	ReorderClump = 1
)

// maxReorderMode caps the mode values a reader accepts.
const maxReorderMode = ReorderClump

// maxSketchBytes caps the per-shard sketch size a reader accepts: a
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
// section lives either in memory (Parse) or behind an io.ReaderAt
// (Open), so a served container never has to be resident as a whole.
type Container struct {
	Index Index
	// Version is the wire format version the container was written
	// with (1..FormatVersion); versions below 3 carry no source
	// manifest.
	Version int
	// Consensus is the embedded shared consensus, nil if the container
	// was written without one.
	Consensus genome.Seq
	// blocks holds the in-memory block section (Parse); nil when the
	// container was opened lazily.
	blocks []byte
	// src is the backing source of a lazily opened container: Block
	// reads it at blockBase+Offset on demand. blockBase is the header
	// length — the block section's offset within the container file —
	// and is set by Parse too, so per-shard handles can report
	// container-absolute block offsets either way.
	src       io.ReaderAt
	blockBase int64
}

// NumShards returns the shard count.
func (c *Container) NumShards() int { return len(c.Index.Entries) }

// HasZoneMaps reports whether the container's wire version carries
// zone maps; QueryPlan only prunes when it does.
func (c *Container) HasZoneMaps() bool { return c.Version >= zoneMapVersion }

// marshalHeader encodes magic, version, flags, counts, the optional
// reorder block, the optional consensus, the source manifest, and the
// index. The block section follows it verbatim. The version byte is
// the lowest that can carry the index: identity-order containers stay
// version 4 (bit-identical to the pre-reorder writer), and only a
// reordered index promotes the container to version 5.
func marshalHeader(ix *Index, cons genome.Seq) ([]byte, error) {
	var buf bytes.Buffer
	buf.Write(Magic[:])
	ver := byte(zoneMapVersion)
	if ix.ReorderMode != ReorderNone {
		ver = reorderVersion
	}
	buf.WriteByte(ver)
	var flags uint8
	if cons != nil {
		flags |= flagConsensus
		if cons.HasN() {
			flags |= flagConsensusHasN
		}
	}
	buf.WriteByte(flags)
	writeUvarint(&buf, uint64(ix.TotalReads))
	writeUvarint(&buf, uint64(ix.ShardReads))
	if ix.SketchBytes < 0 || ix.SketchBytes > maxSketchBytes {
		return nil, fmt.Errorf("shard: sketch size %d outside [0,%d]", ix.SketchBytes, maxSketchBytes)
	}
	writeUvarint(&buf, uint64(ix.SketchBytes))
	if ix.ReorderMode != ReorderNone {
		if ix.ReorderMode < 0 || ix.ReorderMode > maxReorderMode {
			return nil, fmt.Errorf("shard: unknown reorder mode %d", ix.ReorderMode)
		}
		if len(ix.Perm) != ix.TotalReads {
			return nil, fmt.Errorf("shard: permutation has %d entries for %d reads", len(ix.Perm), ix.TotalReads)
		}
		writeUvarint(&buf, uint64(ix.ReorderMode))
		enc, err := encodePerm(ix.Perm)
		if err != nil {
			return nil, err
		}
		writeUvarint(&buf, uint64(len(enc)))
		buf.Write(enc)
		var pc [4]byte
		binary.LittleEndian.PutUint32(pc[:], crc32.ChecksumIEEE(enc))
		buf.Write(pc[:])
	} else if len(ix.Perm) != 0 {
		return nil, fmt.Errorf("shard: permutation present but reorder mode is none")
	}
	if cons != nil {
		writeUvarint(&buf, uint64(len(cons)))
		f := genome.Format2Bit
		if flags&flagConsensusHasN != 0 {
			f = genome.Format3Bit
		}
		enc, err := genome.Encode(cons, f)
		if err != nil {
			return nil, fmt.Errorf("shard: packing consensus: %w", err)
		}
		buf.Write(enc)
	}
	writeUvarint(&buf, uint64(len(ix.Sources)))
	for _, s := range ix.Sources {
		writeUvarint(&buf, uint64(len(s.Name)))
		buf.WriteString(s.Name)
		writeUvarint(&buf, uint64(len(s.Mate)))
		buf.WriteString(s.Mate)
		writeUvarint(&buf, uint64(s.Reads))
	}
	for i, e := range ix.Entries {
		if e.Source < 0 || (e.Source >= len(ix.Sources) && e.Source != 0) {
			return nil, fmt.Errorf("shard: entry source %d outside the %d-entry manifest", e.Source, len(ix.Sources))
		}
		if e.Zone.Sketch != nil && len(e.Zone.Sketch) != ix.SketchBytes {
			return nil, fmt.Errorf("shard: shard %d sketch is %d bytes, index says %d",
				i, len(e.Zone.Sketch), ix.SketchBytes)
		}
	}
	writeUvarint(&buf, uint64(len(ix.Entries)))
	emptySketch := make([]byte, ix.SketchBytes)
	for _, e := range ix.Entries {
		writeUvarint(&buf, uint64(e.ReadCount))
		writeUvarint(&buf, uint64(e.Offset))
		writeUvarint(&buf, uint64(e.Length))
		writeUvarint(&buf, uint64(e.Source))
		z := &e.Zone
		for _, v := range [...]int{
			z.MinLen, z.MaxLen, z.QualReads, z.LowQualReads,
			z.MinPhred, z.AvgPhredMilli, z.MinAvgPhredMilli, z.MaxAvgPhredMilli,
			z.MinEEMilli, z.MaxEEMilli, z.MinGCMilli, z.MaxGCMilli,
		} {
			writeUvarint(&buf, uint64(v))
		}
		if z.Sketch != nil {
			buf.Write(z.Sketch)
		} else {
			// A zone-less entry (legacy index re-marshaled) still owes
			// the index its fixed-size sketch slot.
			buf.Write(emptySketch)
		}
		var cs [4]byte
		binary.LittleEndian.PutUint32(cs[:], e.Checksum)
		buf.Write(cs[:])
	}
	var hc [4]byte
	binary.LittleEndian.PutUint32(hc[:], crc32.ChecksumIEEE(buf.Bytes()))
	buf.Write(hc[:])
	return buf.Bytes(), nil
}

func writeUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	buf.Write(tmp[:n])
}

// encodePerm serializes an inverse permutation as zigzag-delta varints
// (binary.PutVarint of perm[i]-perm[i-1]): a clump sort keeps runs of
// nearby original indices together, so deltas are small and the block
// stays a fraction of a fixed-width encoding.
func encodePerm(perm []int64) ([]byte, error) {
	out := make([]byte, 0, len(perm)*2)
	var tmp [binary.MaxVarintLen64]byte
	prev := int64(0)
	for i, v := range perm {
		if v < 0 || v >= int64(len(perm)) {
			return nil, fmt.Errorf("shard: permutation entry %d is %d, outside [0,%d)", i, v, len(perm))
		}
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
	rd := bytes.NewReader(enc)
	prev := int64(0)
	for i := range perm {
		d, err := binary.ReadVarint(rd)
		if err != nil {
			return nil, fmt.Errorf("shard: permutation block truncated at entry %d of %d", i, total)
		}
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
	if rd.Len() != 0 {
		return nil, fmt.Errorf("shard: permutation block has %d trailing bytes after %d entries", rd.Len(), total)
	}
	return perm, nil
}

// IsContainer reports whether data starts with the sharded-container
// magic. Callers use it to dispatch between shard.Decompress and
// core.Decompress.
func IsContainer(data []byte) bool {
	return len(data) >= len(Magic) && bytes.Equal(data[:len(Magic)], Magic[:])
}

// errShortHeader marks a header parse that ran out of prefix bytes. For
// Parse (whole container in memory) it means truncation; Open retries
// with a larger prefix as long as the file has more to give.
var errShortHeader = errors.New("shard: header extends past available prefix")

// parseHeader decodes magic through headerCRC from a container prefix.
// totalSize is the full container size (== len(prefix) for Parse),
// bounding the plausibility checks. On success it returns the container
// (index and consensus populated, no block source attached) and the
// header length in bytes.
func parseHeader(prefix []byte, totalSize int64) (*Container, int, error) {
	rd := bytes.NewReader(prefix)
	short := func(what string, err error) error {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("%w (reading %s)", errShortHeader, what)
		}
		return fmt.Errorf("shard: reading %s: %w", what, err)
	}
	var m [4]byte
	if _, err := io.ReadFull(rd, m[:]); err != nil {
		return nil, 0, short("magic", err)
	}
	if m != Magic {
		return nil, 0, fmt.Errorf("shard: bad magic %q", m[:])
	}
	ver, err := rd.ReadByte()
	if err != nil {
		return nil, 0, short("version", err)
	}
	// Versions 1 and 2 share the legacy manifest-less layout; version 3
	// added the source manifest. docs/FORMAT.md is the normative
	// history.
	if ver < 1 || ver > FormatVersion {
		return nil, 0, fmt.Errorf("shard: unsupported version %d (this reader handles 1..%d)", ver, FormatVersion)
	}
	flags, err := rd.ReadByte()
	if err != nil {
		return nil, 0, short("flags", err)
	}
	ru := func(what string) (int, error) {
		v, err := binary.ReadUvarint(rd)
		if err != nil {
			return 0, short(what, err)
		}
		if v > uint64(totalSize)*8 {
			return 0, fmt.Errorf("shard: implausible %s %d for a %d-byte container", what, v, totalSize)
		}
		return int(v), nil
	}
	c := &Container{Version: int(ver)}
	if c.Index.TotalReads, err = ru("total read count"); err != nil {
		return nil, 0, err
	}
	if c.Index.ShardReads, err = ru("shard size"); err != nil {
		return nil, 0, err
	}
	// zu reads a zone-map field: same short-prefix protocol as ru, but
	// bounded by a semantic cap instead of the container size (zone
	// statistics like an average-Phred milli-value legitimately exceed
	// a tiny container's byte count).
	zu := func(what string, max uint64) (int, error) {
		v, err := binary.ReadUvarint(rd)
		if err != nil {
			return 0, short(what, err)
		}
		if v > max {
			return 0, fmt.Errorf("shard: implausible %s %d (cap %d)", what, v, max)
		}
		return int(v), nil
	}
	if ver >= zoneMapVersion {
		if c.Index.SketchBytes, err = zu("sketch size", maxSketchBytes); err != nil {
			return nil, 0, err
		}
	}
	if ver >= reorderVersion {
		if c.Index.ReorderMode, err = zu("reorder mode", maxReorderMode); err != nil {
			return nil, 0, err
		}
		if c.Index.ReorderMode != ReorderNone {
			encLen, err := ru("permutation block size")
			if err != nil {
				return nil, 0, err
			}
			// Every permutation entry costs at least one varint byte, so
			// a block that cannot hold TotalReads entries — or that
			// claims more bytes than the container — is corruption, not
			// a short prefix. Checking before the allocation keeps a
			// corrupt TotalReads from driving a giant make.
			if encLen < c.Index.TotalReads {
				return nil, 0, fmt.Errorf("shard: permutation block (%d bytes) cannot hold %d entries", encLen, c.Index.TotalReads)
			}
			if int64(encLen) > totalSize {
				return nil, 0, fmt.Errorf("shard: permutation block (%d bytes) exceeds the %d-byte container", encLen, totalSize)
			}
			if encLen+4 > rd.Len() {
				return nil, 0, short("permutation block", io.ErrUnexpectedEOF)
			}
			enc := make([]byte, encLen)
			if _, err := io.ReadFull(rd, enc); err != nil {
				return nil, 0, short("permutation block", err)
			}
			var pc [4]byte
			if _, err := io.ReadFull(rd, pc[:]); err != nil {
				return nil, 0, short("permutation checksum", err)
			}
			if got := crc32.ChecksumIEEE(enc); got != binary.LittleEndian.Uint32(pc[:]) {
				return nil, 0, fmt.Errorf("shard: permutation checksum mismatch: got %08x, container says %08x",
					got, binary.LittleEndian.Uint32(pc[:]))
			}
			if c.Index.Perm, err = decodePerm(enc, c.Index.TotalReads); err != nil {
				return nil, 0, err
			}
		}
	}
	if flags&flagConsensus != 0 {
		consLen, err := ru("consensus length")
		if err != nil {
			return nil, 0, err
		}
		f := genome.Format2Bit
		nBytes := (consLen + 3) / 4
		if flags&flagConsensusHasN != 0 {
			f = genome.Format3Bit
			nBytes = (consLen*3 + 7) / 8
		}
		// Bound the allocation by what can actually follow: first by the
		// container (a corrupt length varint must not drive a giant
		// make), then by the prefix (more prefix may exist — retry).
		if int64(nBytes) > totalSize {
			return nil, 0, fmt.Errorf("shard: consensus (%d bytes) exceeds the %d-byte container", nBytes, totalSize)
		}
		if nBytes > rd.Len() {
			return nil, 0, short("consensus", io.ErrUnexpectedEOF)
		}
		packed := make([]byte, nBytes)
		if _, err := io.ReadFull(rd, packed); err != nil {
			return nil, 0, short("consensus", err)
		}
		cons, err := genome.Decode(packed, consLen, f)
		if err != nil {
			return nil, 0, fmt.Errorf("shard: unpacking consensus: %w", err)
		}
		c.Consensus = cons
	}
	if ver >= manifestVersion {
		nSources, err := ru("source count")
		if err != nil {
			return nil, 0, err
		}
		// Each manifest entry occupies at least 3 bytes (three varints),
		// so a source count the header cannot physically hold is
		// corruption, not a short prefix.
		if int64(nSources) > totalSize/3 {
			return nil, 0, fmt.Errorf("shard: implausible source count %d for a %d-byte container", nSources, totalSize)
		}
		rstr := func(what string) (string, error) {
			n, err := ru(what + " length")
			if err != nil {
				return "", err
			}
			if int64(n) > totalSize {
				return "", fmt.Errorf("shard: %s (%d bytes) exceeds the %d-byte container", what, n, totalSize)
			}
			if n > rd.Len() {
				return "", short(what, io.ErrUnexpectedEOF)
			}
			b := make([]byte, n)
			if _, err := io.ReadFull(rd, b); err != nil {
				return "", short(what, err)
			}
			return string(b), nil
		}
		if nSources > 0 {
			c.Index.Sources = make([]SourceFile, nSources)
		}
		for i := range c.Index.Sources {
			s := &c.Index.Sources[i]
			if s.Name, err = rstr(fmt.Sprintf("source %d name", i)); err != nil {
				return nil, 0, err
			}
			if s.Mate, err = rstr(fmt.Sprintf("source %d mate name", i)); err != nil {
				return nil, 0, err
			}
			if s.Reads, err = ru(fmt.Sprintf("source %d read count", i)); err != nil {
				return nil, 0, err
			}
		}
	}
	nShards, err := ru("shard count")
	if err != nil {
		return nil, 0, err
	}
	// Each index entry occupies at least 7 bytes (three varints plus a
	// fixed u32 checksum); v4 entries additionally carry 12 zone-map
	// varints and the fixed-size sketch. A shard count the header
	// cannot physically hold is corruption, not a short prefix.
	minEntry := int64(7)
	if ver >= zoneMapVersion {
		minEntry = 8 + 12 + int64(c.Index.SketchBytes)
	}
	if int64(nShards) > totalSize/minEntry {
		return nil, 0, fmt.Errorf("shard: implausible shard count %d for a %d-byte container", nShards, totalSize)
	}
	c.Index.Entries = make([]Entry, nShards)
	reads := 0
	var next int64
	for i := range c.Index.Entries {
		e := &c.Index.Entries[i]
		if e.ReadCount, err = ru(fmt.Sprintf("shard %d read count", i)); err != nil {
			return nil, 0, err
		}
		off, err := ru(fmt.Sprintf("shard %d offset", i))
		if err != nil {
			return nil, 0, err
		}
		length, err := ru(fmt.Sprintf("shard %d length", i))
		if err != nil {
			return nil, 0, err
		}
		e.Offset, e.Length = int64(off), int64(length)
		if e.Offset != next {
			return nil, 0, fmt.Errorf("shard: shard %d offset %d is not contiguous (want %d)", i, e.Offset, next)
		}
		if ver >= manifestVersion {
			if e.Source, err = ru(fmt.Sprintf("shard %d source", i)); err != nil {
				return nil, 0, err
			}
			switch {
			case len(c.Index.Sources) == 0 && e.Source != 0:
				return nil, 0, fmt.Errorf("shard: shard %d names source %d but the container has no manifest", i, e.Source)
			case len(c.Index.Sources) > 0 && e.Source >= len(c.Index.Sources):
				return nil, 0, fmt.Errorf("shard: shard %d source %d out of range [0,%d)", i, e.Source, len(c.Index.Sources))
			case i > 0 && e.Source < c.Index.Entries[i-1].Source:
				// Shards are written in ingest order and never span
				// sources, so source indices are non-decreasing.
				return nil, 0, fmt.Errorf("shard: shard %d source %d precedes shard %d's source %d",
					i, e.Source, i-1, c.Index.Entries[i-1].Source)
			}
		}
		if ver >= zoneMapVersion {
			if err := parseZoneMap(rd, e, c.Index.SketchBytes, i, zu, short); err != nil {
				return nil, 0, err
			}
		}
		next += e.Length
		reads += e.ReadCount
		var cs [4]byte
		if _, err := io.ReadFull(rd, cs[:]); err != nil {
			return nil, 0, short(fmt.Sprintf("shard %d checksum", i), err)
		}
		e.Checksum = binary.LittleEndian.Uint32(cs[:])
	}
	if reads != c.Index.TotalReads {
		return nil, 0, fmt.Errorf("shard: index lists %d reads but header claims %d", reads, c.Index.TotalReads)
	}
	if len(c.Index.Sources) > 0 {
		perSrc := make([]int, len(c.Index.Sources))
		for _, e := range c.Index.Entries {
			perSrc[e.Source] += e.ReadCount
		}
		for i, s := range c.Index.Sources {
			if perSrc[i] != s.Reads {
				return nil, 0, fmt.Errorf("shard: source %q: index attributes %d reads but manifest claims %d",
					s.Display(), perSrc[i], s.Reads)
			}
		}
	}
	var hc [4]byte
	if _, err := io.ReadFull(rd, hc[:]); err != nil {
		return nil, 0, short("header checksum", err)
	}
	hdrLen := len(prefix) - rd.Len()
	if got := crc32.ChecksumIEEE(prefix[:hdrLen-len(hc)]); got != binary.LittleEndian.Uint32(hc[:]) {
		return nil, 0, fmt.Errorf("shard: header checksum mismatch: got %08x, container says %08x",
			got, binary.LittleEndian.Uint32(hc[:]))
	}
	return c, hdrLen, nil
}

// parseZoneMap decodes one entry's zone-map fields (v4+): 12 bounded
// varints in writer order plus the fixed-size sketch. Caps are
// semantic — Phred milli-values by the quality alphabet, GC by 1000,
// expected error by the shard's own maximum read length — and min/max
// pairs must be ordered, so a corrupt index cannot smuggle an envelope
// that re-marshals differently than it parsed.
func parseZoneMap(rd *bytes.Reader, e *Entry, sketchBytes, i int,
	zu func(string, uint64) (int, error), short func(string, error) error) error {
	const maxPhredMilli = fastq.MaxQuality * 1000
	z := &e.Zone
	var err error
	field := func(what string) string { return fmt.Sprintf("shard %d %s", i, what) }
	if z.MinLen, err = zu(field("min length"), maxZoneLen); err != nil {
		return err
	}
	if z.MaxLen, err = zu(field("max length"), maxZoneLen); err != nil {
		return err
	}
	if z.MinLen > z.MaxLen {
		return fmt.Errorf("shard: shard %d zone lengths inverted: %d > %d", i, z.MinLen, z.MaxLen)
	}
	if z.QualReads, err = zu(field("scored read count"), uint64(e.ReadCount)); err != nil {
		return err
	}
	if z.LowQualReads, err = zu(field("low-quality read count"), uint64(e.ReadCount)); err != nil {
		return err
	}
	if z.MinPhred, err = zu(field("min Phred"), fastq.MaxQuality); err != nil {
		return err
	}
	if z.AvgPhredMilli, err = zu(field("avg Phred"), maxPhredMilli); err != nil {
		return err
	}
	if z.MinAvgPhredMilli, err = zu(field("min avg Phred"), maxPhredMilli); err != nil {
		return err
	}
	if z.MaxAvgPhredMilli, err = zu(field("max avg Phred"), maxPhredMilli); err != nil {
		return err
	}
	if z.MinAvgPhredMilli > z.MaxAvgPhredMilli {
		return fmt.Errorf("shard: shard %d zone avg Phred inverted: %d > %d", i, z.MinAvgPhredMilli, z.MaxAvgPhredMilli)
	}
	maxEE := uint64(z.MaxLen+1) * 1000
	if z.MinEEMilli, err = zu(field("min expected error"), maxEE); err != nil {
		return err
	}
	if z.MaxEEMilli, err = zu(field("max expected error"), maxEE); err != nil {
		return err
	}
	if z.MinEEMilli > z.MaxEEMilli {
		return fmt.Errorf("shard: shard %d zone expected error inverted: %d > %d", i, z.MinEEMilli, z.MaxEEMilli)
	}
	if z.MinGCMilli, err = zu(field("min GC"), 1000); err != nil {
		return err
	}
	if z.MaxGCMilli, err = zu(field("max GC"), 1000); err != nil {
		return err
	}
	if z.MinGCMilli > z.MaxGCMilli {
		return fmt.Errorf("shard: shard %d zone GC inverted: %d > %d", i, z.MinGCMilli, z.MaxGCMilli)
	}
	if sketchBytes > 0 {
		if sketchBytes > rd.Len() {
			return short(field("sketch"), io.ErrUnexpectedEOF)
		}
		z.Sketch = make([]byte, sketchBytes)
		if _, err := io.ReadFull(rd, z.Sketch); err != nil {
			return short(field("sketch"), err)
		}
	}
	return nil
}

// Parse reads the header and index and validates the index against the
// block section, without decoding any shard. The returned container
// keeps the block section in memory; use Open to serve a container
// without loading it whole.
func Parse(data []byte) (*Container, error) {
	c, hdrLen, err := parseHeader(data, int64(len(data)))
	if err != nil {
		if errors.Is(err, errShortHeader) {
			return nil, fmt.Errorf("shard: truncated container: %w", err)
		}
		return nil, err
	}
	c.blocks = data[hdrLen:]
	c.blockBase = int64(hdrLen)
	if int64(len(c.blocks)) != c.Index.BlockBytes() {
		return nil, fmt.Errorf("shard: block section is %d bytes, index describes %d",
			len(c.blocks), c.Index.BlockBytes())
	}
	return c, nil
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
// index in memory.
func Open(r io.ReaderAt, size int64) (*Container, error) {
	chunk := int64(openChunk)
	for {
		if chunk > size {
			chunk = size
		}
		prefix := make([]byte, chunk)
		if _, err := io.ReadFull(io.NewSectionReader(r, 0, chunk), prefix); err != nil {
			return nil, fmt.Errorf("shard: reading container prefix: %w", err)
		}
		c, hdrLen, err := parseHeader(prefix, size)
		if errors.Is(err, errShortHeader) && chunk < size {
			if chunk >= maxHeaderBytes {
				return nil, fmt.Errorf("shard: header exceeds %d bytes (corrupt length field?): %w", maxHeaderBytes, err)
			}
			chunk *= 2
			continue
		}
		if err != nil {
			if errors.Is(err, errShortHeader) {
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
// verified. On a lazily opened container this is the only read the
// shard costs: one ReadAt of exactly the block's bytes.
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
func (c *Container) fetch(i int) ([]byte, error) {
	if err := c.checkIndex(i); err != nil {
		return nil, err
	}
	e := c.Index.Entries[i]
	if c.src == nil {
		return c.blocks[e.Offset : e.Offset+e.Length], nil
	}
	b := make([]byte, e.Length)
	if _, err := c.src.ReadAt(b, c.blockBase+e.Offset); err != nil {
		return nil, fmt.Errorf("shard: reading block %d: %w", i, err)
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
// its uncompressed size, so Inspect decodes the shards (concurrently,
// on all CPUs — the same work `sage decompress` would do); cons is the
// fallback consensus for containers written without an embedded one.
// Shards that cannot be decoded — corrupt, or no consensus available —
// show "-" and are flagged instead of failing the whole summary.
func Inspect(data []byte, cons genome.Seq) (string, error) {
	c, err := Parse(data)
	if err != nil {
		return "", err
	}
	rawSizes, decodeErrs := inspectSizes(c, cons)
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
		if decodeErrs[i] != nil {
			rawKnown = false
			bad = append(bad, fmt.Sprintf("shard %d: %v", i, decodeErrs[i]))
		} else {
			rawTotal += rawSizes[i]
			if e.Length > 0 {
				ratio = fmt.Sprintf("%.2fx", float64(rawSizes[i])/float64(e.Length))
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

// inspectSizes decodes every shard on a worker pool and returns the
// per-shard uncompressed FASTQ sizes (or errors). It is the one decode
// pool outside streamShards: a summary must tolerate per-shard failures
// and report "-" for them, which streamShards' first-error-stops
// contract cannot express.
func inspectSizes(c *Container, cons genome.Seq) ([]int64, []error) {
	n := c.NumShards()
	rawSizes := make([]int64, n)
	decodeErrs := make([]error, n)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	jobs := make(chan int, n)
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				rs, err := c.DecompressShard(i, cons)
				if err != nil {
					decodeErrs[i] = err
					continue
				}
				rawSizes[i] = int64(rs.UncompressedSize())
			}
		}()
	}
	wg.Wait()
	return rawSizes, decodeErrs
}
