package core

import (
	"bytes"
	"fmt"
	"math"

	"sage/internal/genome"
	"sage/internal/wire"
)

// Container layout (all multi-byte integers are unsigned varints). This
// comment is the SAGe block's specification; the function layout below
// is the same table in code and must match it field for field.
//
//	magic    "SAGe"
//	version  u8 (1)
//	flags    u8 (hasQuality | hasHeaders<<1 | embedConsensus<<2 |
//	             fixedReadLen<<3 | consensusHasN<<4; bits 5-7 reserved,
//	             rejected when set)
//	numReads
//	consensusLen
//	maxReadLen
//	fixedReadLen          (only when the fixedReadLen flag is set)
//	association tables    5 × (u8 count, count × u8 widths):
//	                      matchDelta, mismatchDelta, mismatchCount,
//	                      readLen, indelLen
//	consensus             (only when embedded) 2-bit packed, or 3-bit
//	                      packed when consensusHasN
//	streams               5 × (bitLen, byteLen, bytes):
//	                      MPGA, MPA, MMPGA, MMPA, MBTA
//	quality stream        (len, bytes) when hasQuality; the bytes are an
//	                      internal/qual stream, which names its own kind
//	header stream         (len, bytes) when hasHeaders
//
// The five stream sections are stored in full before decoding starts; the
// decoder then walks all five with strictly forward cursors, mirroring the
// hardware's streaming access pattern (§5.2.1: "the SU and the RCU do not
// rely on large buffers, and instead only require small registers").

var magic = [4]byte{'S', 'A', 'G', 'e'}

// IsContainer reports whether data starts with the single-block
// container magic ("SAGe", vs "SAGS" for a sharded container). Callers
// use it to give shape-specific errors when dispatching.
func IsContainer(data []byte) bool {
	return len(data) >= len(magic) && bytes.Equal(data[:len(magic)], magic[:])
}

const formatVersion = 1

// Flag bits.
const (
	flagQuality = 1 << iota
	flagHeaders
	flagEmbedConsensus
	flagFixedReadLen
	flagConsensusHasN

	flagsKnown = flagConsensusHasN<<1 - 1
)

// Table indices.
const (
	tabMatchDelta = iota
	tabMismatchDelta
	tabMismatchCount
	tabReadLen
	tabIndelLen
	numTables
)

// header is the decoded container header.
type header struct {
	flags        uint8
	numReads     int
	consensusLen int
	maxReadLen   int
	fixedReadLen int
	tables       [numTables]*AssociationTable
	consensus    genome.Seq // nil unless embedded
}

func (h *header) has(flag uint8) bool { return h.flags&flag != 0 }

// stream holds one serialized bit stream section.
type stream struct {
	bits uint64
	data []byte
}

// container is the fully parsed file.
type container struct {
	hdr     header
	streams [5]stream // MPGA, MPA, MMPGA, MMPA, MBTA
	quality []byte
	headers []byte
}

// Stream indices.
const (
	sMPGA = iota
	sMPA
	sMMPGA
	sMMPA
	sMBTA
)

var streamNames = [5]string{"MPGA", "MPA", "MMPGA", "MMPA", "MBTA"}

// maxField caps the size fields the container itself cannot bound: the
// consensus may live outside the block, and a mapped read can be as
// long as the consensus.
const maxField = 1 << 40

func (c *container) marshal() ([]byte, error) {
	w := wire.NewWriter("core")
	layout(w, c)
	if err := w.Err(); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

func parseContainer(data []byte) (*container, error) {
	c := &container{}
	r := wire.NewReader("core", data, int64(len(data)))
	layout(r, c)
	if err := r.Err(); err != nil {
		return nil, err
	}
	return c, nil
}

// layout is the SAGe block, stated once in wire order — the code form
// of the layout comment above, field for field. Over a writing codec it
// marshals c, over a reading one it fills c in; the rules between
// fields hold in both directions. Every byte count is bounded by the
// block before anything is allocated for it (wire.Codec.Raw), so a
// corrupt block cannot ask for more memory than it occupies.
func layout(w *wire.Codec, c *container) {
	h := &c.hdr
	w.Magic(magic[:])
	ver := uint8(formatVersion)
	w.U8("version", &ver)
	if ver != formatVersion {
		w.Failf("unsupported version %d", ver)
	}
	w.U8("flags", &h.flags)
	if reserved := h.flags &^ flagsKnown; reserved != 0 {
		w.Failf("reserved flag bits %#02x are set", reserved)
	}
	// Every read costs at least one encoded bit.
	w.Int("read count", &h.numReads, w.Fit(1))
	w.Int("consensus length", &h.consensusLen, maxField)
	w.Int("max read length", &h.maxReadLen, maxField)
	// Mapped reads can be at most consensus-sized (plus insertions paid
	// for in stream bits); unmapped reads are stored at >= 2 bits per
	// base. Anything beyond that is corruption, and rejecting it keeps
	// read-length claims from driving huge allocations in the decoder.
	if over := h.maxReadLen - h.consensusLen; over > 0 && uint64(over) > w.Fit(1) {
		w.Failf("implausible max read length %d (consensus %d)", h.maxReadLen, h.consensusLen)
	}
	if h.has(flagFixedReadLen) {
		w.Int("fixed read length", &h.fixedReadLen, maxField)
	}

	for i := range h.tables {
		w.Scope("table", i)
		var widths []uint8
		if t := h.tables[i]; t != nil {
			widths = t.Widths
		} else if w.Storing() {
			w.Failf("missing association table %d", i)
		}
		n := uint8(len(widths))
		w.U8("width count", &n)
		w.Raw("widths", &widths, int(n))
		if w.Loading() {
			tab, err := NewAssociationTable(widths)
			if err != nil {
				w.Failf("table %d: %w", i, err)
			}
			h.tables[i] = tab
		}
	}
	w.Scope("", 0)

	if h.has(flagEmbedConsensus) {
		w.Seq("consensus", &h.consensus, h.consensusLen, h.has(flagConsensusHasN))
	}

	for i := range c.streams {
		s := &c.streams[i]
		w.Scope("stream", i)
		w.Uvarint("bits", &s.bits, math.MaxUint64)
		w.Blob("bytes", &s.data)
		if s.bits > uint64(len(s.data))*8 {
			w.Failf("stream %s claims %d bits in %d bytes", streamNames[i], s.bits, len(s.data))
		}
	}
	w.Scope("", 0)
	if h.has(flagQuality) {
		w.Blob("quality stream", &c.quality)
	}
	if h.has(flagHeaders) {
		w.Blob("header stream", &c.headers)
	}
}

// Inspect renders a human-readable summary of a container: header fields,
// tuned association tables, and per-stream sizes. It does not decode read
// data.
func Inspect(data []byte) (string, error) {
	c, err := parseContainer(data)
	if err != nil {
		return "", err
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "SAGe container v%d, %d bytes\n", formatVersion, len(data))
	fmt.Fprintf(&b, "reads: %d, consensus: %d bases (embedded: %v), max read length: %d\n",
		c.hdr.numReads, c.hdr.consensusLen, c.hdr.has(flagEmbedConsensus), c.hdr.maxReadLen)
	if c.hdr.has(flagFixedReadLen) {
		fmt.Fprintf(&b, "fixed read length: %d\n", c.hdr.fixedReadLen)
	}
	fmt.Fprintf(&b, "quality: %v (%d bytes), headers: %v (%d bytes)\n",
		c.hdr.has(flagQuality), len(c.quality), c.hdr.has(flagHeaders), len(c.headers))
	names := []string{"matchDelta", "mismatchDelta", "mismatchCount", "readLen", "indelLen"}
	for i, t := range c.hdr.tables {
		fmt.Fprintf(&b, "table %-13s widths (by code rank): %v\n", names[i], t.Widths)
	}
	for i, s := range c.streams {
		fmt.Fprintf(&b, "stream %-6s %10d bits (%d bytes)\n", streamNames[i], s.bits, len(s.data))
	}
	return b.String(), nil
}
