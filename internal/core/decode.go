package core

import (
	"fmt"

	"sage/internal/bitio"
	"sage/internal/fastq"
	"sage/internal/genome"
	"sage/internal/headers"
	"sage/internal/mapper"
	"sage/internal/qual"
)

// The decoder is organized exactly like SAGe's hardware (§5.2, Fig. 11):
//
//   - ScanUnit walks the position guide arrays (MPGA, MMPGA) and position
//     arrays (MPA, MMPA) with strictly forward cursors, decoding matching
//     positions, mismatch counts, mismatch position deltas, and indel
//     lengths (it is signalled for the latter when the RCU detects an
//     indel, Fig. 11 ❽❾).
//   - ReadConstructionUnit walks the consensus and the MBTA, infers
//     mismatch types by comparing marker bases against the consensus
//     (§5.1.2), and plugs mismatches into the right positions.
//   - ControlUnit sequences the two per read and assembles segments
//     (including reverse-complement and chimeric reattachment).
//
// All accesses are sequential; no structure larger than a register is
// retained between reads, which is what makes the hardware lightweight.

// ScanUnit decodes position information from the guide/position streams.
type ScanUnit struct {
	tables [numTables]*AssociationTable
	mpga   *bitio.Reader
	mpa    *bitio.Reader
	mmpga  *bitio.Reader
	mmpa   *bitio.Reader
	// posWidth is the fixed bit width of absolute consensus positions.
	posWidth uint
}

// MatchDelta reads the next matching-position delta.
func (su *ScanUnit) MatchDelta() (uint64, error) {
	return su.tables[tabMatchDelta].DecodeValue(su.mpga, su.mpa)
}

// Rev reads a strand bit.
func (su *ScanUnit) Rev() (bool, error) { return su.mpga.ReadBool() }

// SegCount reads the unary segment-count code (1..MaxChimericSegments).
func (su *ScanUnit) SegCount() (int, error) {
	n, err := su.mpga.ReadUnary(uint(mapper.MaxChimericSegments - 1))
	return int(n) + 1, err
}

// ReadLen reads a read or segment length.
func (su *ScanUnit) ReadLen() (int, error) {
	v, err := su.tables[tabReadLen].DecodeValue(su.mpga, su.mpa)
	return int(v), err
}

// AbsPos reads an absolute consensus position (extra chimeric segments).
func (su *ScanUnit) AbsPos() (int, error) {
	v, err := su.mpa.ReadBits(su.posWidth)
	return int(v), err
}

// MismatchCount reads a segment's mismatch count (guide-array resident,
// Fig. 8 ❷).
func (su *ScanUnit) MismatchCount() (int, error) {
	v, err := su.tables[tabMismatchCount].DecodeValue(su.mmpga, su.mmpga)
	return int(v), err
}

// MismatchDelta reads the next delta-encoded mismatch position.
func (su *ScanUnit) MismatchDelta() (uint64, error) {
	return su.tables[tabMismatchDelta].DecodeValue(su.mmpga, su.mmpa)
}

// IndelLen reads an indel block length: a single MMPGA bit for 1-base
// blocks, otherwise the tuned length code (§5.1.1).
func (su *ScanUnit) IndelLen() (int, error) {
	single, err := su.mmpga.ReadBool()
	if err != nil {
		return 0, err
	}
	if single {
		return 1, nil
	}
	v, err := su.tables[tabIndelLen].DecodeValue(su.mmpga, su.mmpa)
	return int(v), err
}

// ReadConstructionUnit reconstructs read bases from the consensus + MBTA.
type ReadConstructionUnit struct {
	cons genome.Seq
	mbta *bitio.Reader
}

// Bit reads one MBTA control bit (corner disambiguation, payload flags,
// insertion/deletion type).
func (rcu *ReadConstructionUnit) Bit() (uint, error) { return rcu.mbta.ReadBit() }

// Base reads one base of the given width from the MBTA.
func (rcu *ReadConstructionUnit) Base(baseBits uint) (byte, error) {
	v, err := rcu.mbta.ReadBits(baseBits)
	if err != nil {
		return 0, err
	}
	if v > uint64(genome.BaseN) {
		return 0, fmt.Errorf("core: invalid base code %d in MBTA", v)
	}
	return byte(v), nil
}

// ConsBase reads the consensus with the same end-clamping as the encoder.
func (rcu *ReadConstructionUnit) ConsBase(cursor int) byte {
	if cursor >= len(rcu.cons) {
		cursor = len(rcu.cons) - 1
	}
	if cursor < 0 {
		cursor = 0
	}
	return rcu.cons[cursor]
}

// ControlUnit sequences SU and RCU per read (§5.2.1 ➂). It owns the
// decode scratch shared by all reads of a block: the segment plan (at
// most MaxChimericSegments entries), a reverse-segment staging buffer,
// and the arena that decoded sequences are carved from — one slab
// allocation per block, or per 256 KiB of bases, instead of one per
// read. Decoded Seqs therefore share backing arrays and must be treated
// as immutable and retained together (the rule serve's shard LRU
// already follows).
type ControlUnit struct {
	su      *ScanUnit
	rcu     *ReadConstructionUnit
	hdr     *header
	segs    [mapper.MaxChimericSegments]segPlan
	scratch genome.Seq
	arena   seqArena
}

// seqArena carves exact-size, capacity-clipped sequence buffers out of
// shared slabs (append past a read's end reallocates — a corrupt stream
// cannot overrun a neighboring read).
type seqArena struct {
	slab      genome.Seq
	slabBytes int
}

const seqArenaSlabBytes = 256 << 10

// newSeqArena sizes the slabs for a block of numReads reads of at most
// maxReadLen bases: a small shard takes one slab of what it can hold
// rather than a zeroed 256 KiB. Dividing keeps the product from
// overflowing on header fields only the block size bounds.
func newSeqArena(numReads, maxReadLen int) seqArena {
	a := seqArena{slabBytes: seqArenaSlabBytes}
	if maxReadLen == 0 || numReads <= a.slabBytes/maxReadLen {
		a.slabBytes = numReads * maxReadLen
	}
	return a
}

func (a *seqArena) take(n int) genome.Seq {
	if len(a.slab) < n {
		sz := a.slabBytes
		if sz < n {
			sz = n
		}
		a.slab = make(genome.Seq, sz)
	}
	b := a.slab[:n:n]
	a.slab = a.slab[n:]
	return b
}

// Decompress reconstructs the read set from a SAGe container. When the
// consensus is not embedded, externalCons must supply it.
func Decompress(data []byte, externalCons genome.Seq) (*fastq.ReadSet, error) {
	c, err := parseContainer(data)
	if err != nil {
		return nil, err
	}
	cons := c.hdr.consensus
	if cons == nil {
		cons = externalCons
	}
	if len(cons) != c.hdr.consensusLen {
		return nil, fmt.Errorf("core: consensus length %d does not match container (%d)", len(cons), c.hdr.consensusLen)
	}
	cu := &ControlUnit{
		su: &ScanUnit{
			tables:   c.hdr.tables,
			mpga:     bitio.NewReader(c.streams[sMPGA].data, c.streams[sMPGA].bits),
			mpa:      bitio.NewReader(c.streams[sMPA].data, c.streams[sMPA].bits),
			mmpga:    bitio.NewReader(c.streams[sMMPGA].data, c.streams[sMMPGA].bits),
			mmpa:     bitio.NewReader(c.streams[sMMPA].data, c.streams[sMMPA].bits),
			posWidth: uint(HistIndex(uint64(c.hdr.consensusLen))),
		},
		rcu: &ReadConstructionUnit{
			cons: cons,
			mbta: bitio.NewReader(c.streams[sMBTA].data, c.streams[sMBTA].bits),
		},
		hdr:   &c.hdr,
		arena: newSeqArena(c.hdr.numReads, c.hdr.maxReadLen),
	}
	rs := &fastq.ReadSet{Records: make([]fastq.Record, c.hdr.numReads)}
	lengths := make([]int, c.hdr.numReads)
	prevPos := 0
	for i := 0; i < c.hdr.numReads; i++ {
		seq, err := cu.decodeRead(&prevPos)
		if err != nil {
			return nil, fmt.Errorf("core: decoding read %d: %w", i, err)
		}
		rs.Records[i].Seq = seq
		lengths[i] = len(seq)
	}
	if c.hdr.has(flagQuality) {
		quals, err := qual.Decompress(c.quality, lengths)
		if err != nil {
			return nil, err
		}
		for i := range rs.Records {
			rs.Records[i].Qual = quals[i]
		}
	}
	if c.hdr.has(flagHeaders) {
		hs, err := headers.Decompress(c.headers)
		if err != nil {
			return nil, err
		}
		if len(hs) != c.hdr.numReads {
			return nil, fmt.Errorf("core: %d headers for %d reads", len(hs), c.hdr.numReads)
		}
		for i := range rs.Records {
			rs.Records[i].Header = hs[i]
		}
	}
	return rs, nil
}

// segPlan is the decoded placement of one segment.
type segPlan struct {
	consPos int
	rev     bool
	length  int
}

// decodeRead reconstructs one read, advancing all stream cursors.
func (cu *ControlUnit) decodeRead(prevPos *int) (genome.Seq, error) {
	su := cu.su
	delta, err := su.MatchDelta()
	if err != nil {
		return nil, err
	}
	pos := *prevPos + int(delta)
	*prevPos = pos

	rev0, err := su.Rev()
	if err != nil {
		return nil, err
	}
	nSegs, err := su.SegCount()
	if err != nil {
		return nil, err
	}
	readLen := cu.hdr.fixedReadLen
	if !cu.hdr.has(flagFixedReadLen) {
		if readLen, err = su.ReadLen(); err != nil {
			return nil, err
		}
	}
	if readLen > cu.hdr.maxReadLen {
		return nil, fmt.Errorf("core: read length %d exceeds header maximum %d", readLen, cu.hdr.maxReadLen)
	}
	segs := cu.segs[:nSegs]
	segs[0] = segPlan{consPos: pos, rev: rev0}
	extraLen := 0
	for s := 1; s < nSegs; s++ {
		rev, err := su.Rev()
		if err != nil {
			return nil, err
		}
		sl, err := su.ReadLen()
		if err != nil {
			return nil, err
		}
		ap, err := su.AbsPos()
		if err != nil {
			return nil, err
		}
		segs[s] = segPlan{consPos: ap, rev: rev, length: sl}
		extraLen += sl
	}
	segs[0].length = readLen - extraLen
	if segs[0].length < 0 {
		return nil, fmt.Errorf("core: segment lengths exceed read length %d", readLen)
	}

	// The read decodes straight into an exact-size arena buffer; only
	// reverse segments stage through scratch (they must be complemented
	// back-to-front, which in-place appending cannot do).
	out := cu.arena.take(readLen)[:0]
	baseBits := uint(2) // widened to 3 by a corner record with the N flag
	for s := range segs {
		if !segs[s].rev {
			var raw bool
			out, raw, err = cu.decodeSegment(out, s == 0, segs[s], readLen, &baseBits)
			if err != nil {
				return nil, err
			}
			if raw {
				// Unmapped read: the payload was the entire read.
				return out, nil
			}
			continue
		}
		scratch, raw, err := cu.decodeSegment(cu.scratch[:0], s == 0, segs[s], readLen, &baseBits)
		cu.scratch = scratch[:0]
		if err != nil {
			return nil, err
		}
		if raw {
			// Unmapped payloads bypass strand handling: stored forward.
			out = append(out, scratch...)
			return out, nil
		}
		out = genome.AppendReverseComplement(out, scratch)
	}
	if len(out) != readLen {
		return nil, fmt.Errorf("core: reconstructed %d bases, want %d", len(out), readLen)
	}
	return out, nil
}

// decodeSegment reconstructs one segment, appending its bases to dst
// and returning the extended slice. raw reports that the read was
// stored unmapped (the whole read was appended).
func (cu *ControlUnit) decodeSegment(dst genome.Seq, first bool, sp segPlan, readLen int, baseBits *uint) (out genome.Seq, raw bool, err error) {
	su, rcu := cu.su, cu.rcu
	count, err := su.MismatchCount()
	if err != nil {
		return dst, false, err
	}
	out = dst
	segStart := len(dst)
	cursor := sp.consPos
	prevMis := 0
	for j := 0; j < count; j++ {
		d, err := su.MismatchDelta()
		if err != nil {
			return out, false, err
		}
		if first && j == 0 && d == 0 {
			disamb, err := rcu.Bit()
			if err != nil {
				return out, false, err
			}
			if disamb == 0 {
				// Corner record (§5.1.4): payload = alphabet flag +
				// unmapped flag.
				hasN, err := rcu.Bit()
				if err != nil {
					return out, false, err
				}
				if hasN == 1 {
					*baseBits = 3
				}
				unmapped, err := rcu.Bit()
				if err != nil {
					return out, false, err
				}
				if unmapped == 1 {
					for i := 0; i < readLen; i++ {
						b, err := rcu.Base(*baseBits)
						if err != nil {
							return out, false, err
						}
						out = append(out, b)
					}
					return out, true, nil
				}
				continue // synthetic mismatch consumed; prevMis stays 0
			}
			// disamb == 1: a genuine mismatch at position 0 follows.
		}
		misPos := prevMis + int(d)
		prevMis = misPos
		if misPos > sp.length {
			return out, false, fmt.Errorf("core: mismatch position %d beyond segment length %d", misPos, sp.length)
		}
		if out, err = consCopy(out, rcu.cons, &cursor, segStart+misPos); err != nil {
			return out, false, err
		}
		marker, err := rcu.Base(*baseBits)
		if err != nil {
			return out, false, err
		}
		if marker != rcu.ConsBase(cursor) {
			// Substitution inferred (§5.1.2): the marker IS the base.
			out = append(out, marker)
			cursor++
			continue
		}
		// Indel: one explicit type bit, then the length from the SU
		// (Fig. 11 ❽❾: the RCU signals the SU to read the indel length).
		insBit, err := rcu.Bit()
		if err != nil {
			return out, false, err
		}
		l, err := su.IndelLen()
		if err != nil {
			return out, false, err
		}
		if insBit == 1 {
			for k := 0; k < l; k++ {
				b, err := rcu.Base(*baseBits)
				if err != nil {
					return out, false, err
				}
				out = append(out, b)
			}
		} else {
			cursor += l
		}
	}
	if out, err = consCopy(out, rcu.cons, &cursor, segStart+sp.length); err != nil {
		return out, false, err
	}
	if len(out)-segStart != sp.length {
		return out, false, fmt.Errorf("core: segment reconstructed %d bases, want %d", len(out)-segStart, sp.length)
	}
	return out, false, nil
}

// consCopy appends consensus bases at *cursor to out until it reaches
// target length, advancing the cursor. A cursor that leaves the
// consensus is an error once every base the consensus does hold has
// been appended.
func consCopy(out, cons genome.Seq, cursor *int, target int) (genome.Seq, error) {
	n := target - len(out)
	if n <= 0 {
		return out, nil
	}
	if c := *cursor; c >= 0 && c < len(cons) {
		k := min(n, len(cons)-c)
		out = append(out, cons[c:c+k]...)
		*cursor += k
		if k == n {
			return out, nil
		}
	}
	return out, fmt.Errorf("core: consensus cursor %d out of range", *cursor)
}

// FormatReads renders decompressed reads in the format requested via
// SAGe_Read (§5.4, §5.2.2 ⑫).
func FormatReads(rs *fastq.ReadSet, f genome.Format) ([][]byte, error) {
	out := make([][]byte, len(rs.Records))
	for i := range rs.Records {
		enc, err := genome.Encode(rs.Records[i].Seq, f)
		if err != nil {
			return nil, fmt.Errorf("core: formatting read %d: %w", i, err)
		}
		out[i] = enc
	}
	return out, nil
}
