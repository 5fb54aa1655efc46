package core

import (
	"fmt"
	"slices"

	"sage/internal/bitio"
	"sage/internal/fastq"
	"sage/internal/freelist"
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
//
// The Read Construction Unit emits reads in the form the consumer takes
// (§5.2.2 ⑫), and so does this decoder: one loop writes bases in an
// output alphabet. AppendFASTQ runs it with letters — consensus bases
// copied from a letter-form consensus, MBTA bases mapped to letters,
// reverse segments complemented with the letter table — and takes the
// quality lanes' scores already offset to characters, so a block goes to
// FASTQ text in one pass, with no record in between. Decompress runs the
// same loop with base codes and builds records. Either way a block's
// bases, scores and headers land in a decoder scratch kept between
// blocks (decoders), not in per-read allocations.

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

// ReadConstructionUnit reconstructs read bases from the consensus + MBTA,
// in the output alphabet: cons is the consensus in it, and Base maps
// each MBTA base code into it.
type ReadConstructionUnit struct {
	cons  []byte
	mbta  *bitio.Reader
	alpha *alphabet
}

// Bit reads one MBTA control bit (corner disambiguation, payload flags,
// insertion/deletion type).
func (rcu *ReadConstructionUnit) Bit() (uint, error) { return rcu.mbta.ReadBit() }

// Base reads one base of the given width from the MBTA and returns it
// in the output alphabet.
func (rcu *ReadConstructionUnit) Base(baseBits uint) (byte, error) {
	v, err := rcu.mbta.ReadBits(baseBits)
	if err != nil {
		return 0, err
	}
	if v > uint64(genome.BaseN) {
		return 0, fmt.Errorf("core: invalid base code %d in MBTA", v)
	}
	return rcu.alpha.of[v], nil
}

// AppendBases reads n bases of the given width from the MBTA and
// appends them to out in the output alphabet: Base n times, with one
// read of the stream per 56 bits of bases.
func (rcu *ReadConstructionUnit) AppendBases(out []byte, n int, baseBits uint) ([]byte, error) {
	per := int(56 / baseBits)
	mask := uint64(1)<<baseBits - 1
	for n > 0 {
		k := min(n, per)
		v, err := rcu.mbta.ReadBits(uint(k) * baseBits)
		if err != nil {
			// Short of k bases: Base fails where the stream does.
			break
		}
		for j := k - 1; j >= 0; j-- {
			code := v >> (uint(j) * baseBits) & mask
			if code > genome.BaseN {
				return out, fmt.Errorf("core: invalid base code %d in MBTA", code)
			}
			out = append(out, rcu.alpha.of[code])
		}
		n -= k
	}
	for ; n > 0; n-- {
		b, err := rcu.Base(baseBits)
		if err != nil {
			return out, err
		}
		out = append(out, b)
	}
	return out, nil
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

// alphabet is a form the decoder writes bases in: of maps a base code
// to its output byte, comp an output byte to its complement's.
type alphabet struct {
	of   [genome.BaseN + 1]byte
	comp [256]byte
}

func newAlphabet(of func(byte) byte) *alphabet {
	a := new(alphabet)
	for i := range a.comp {
		a.comp[i] = of(genome.BaseN)
	}
	for b := byte(0); b <= genome.BaseN; b++ {
		a.of[b] = of(b)
		a.comp[a.of[b]] = of(genome.Complement(b))
	}
	return a
}

var (
	// codes is the records' alphabet: the base codes themselves.
	codes = newAlphabet(func(b byte) byte { return b })
	// letters is the text's: A, C, G, T and N.
	letters = newAlphabet(genome.BaseToChar)
)

// ControlUnit sequences SU and RCU per read (§5.2.1 ➂). It owns the
// per-read scratch: the segment plan (at most MaxChimericSegments
// entries) and a staging buffer for reverse segments.
type ControlUnit struct {
	su      ScanUnit
	rcu     ReadConstructionUnit
	hdr     *header
	segs    [mapper.MaxChimericSegments]segPlan
	scratch []byte
}

// decoder is the scratch of one block decode, kept between blocks in a
// free list (package freelist says why not a sync.Pool): the control
// unit and its five stream readers, and the block's bases in the output
// alphabet end to end with each read's length, its quality characters
// and its headers with their end offsets, and the header decoder's slot
// table. Nothing a caller keeps points into it.
type decoder struct {
	cu      ControlUnit
	streams [len(container{}.streams)]bitio.Reader
	bases   []byte
	lengths []int
	quals   []byte
	names   []byte
	ends    []int
	hdrs    headers.Decoder
}

var decoders = freelist.New[decoder]()

// put drops d's references to the block and returns it to the list,
// unless its buffers together outgrew freelist.MaxKeep.
func (d *decoder) put() {
	if cap(d.bases)+cap(d.quals)+cap(d.names)+cap(d.cu.scratch)+
		8*(cap(d.lengths)+cap(d.ends)) > freelist.MaxKeep {
		return
	}
	d.cu = ControlUnit{scratch: d.cu.scratch[:0]}
	d.streams = [len(d.streams)]bitio.Reader{}
	decoders.Put(d)
}

// decodeBases runs the Scan and Read Construction Units over every read
// of c against cons, which must be in the alphabet a: it fills d.bases
// with the reads' bases in a and d.lengths with their lengths.
func (d *decoder) decodeBases(c *container, cons []byte, a *alphabet) error {
	if len(cons) != c.hdr.consensusLen {
		return fmt.Errorf("core: consensus length %d does not match container (%d)", len(cons), c.hdr.consensusLen)
	}
	for k, st := range c.streams {
		d.streams[k] = *bitio.NewReader(st.data, st.bits)
	}
	d.cu.su = ScanUnit{
		tables:   c.hdr.tables,
		mpga:     &d.streams[sMPGA],
		mpa:      &d.streams[sMPA],
		mmpga:    &d.streams[sMMPGA],
		mmpa:     &d.streams[sMMPA],
		posWidth: uint(HistIndex(uint64(c.hdr.consensusLen))),
	}
	d.cu.rcu = ReadConstructionUnit{cons: cons, mbta: &d.streams[sMBTA], alpha: a}
	d.cu.hdr = &c.hdr
	d.bases, d.lengths = d.bases[:0], d.lengths[:0]
	prevPos := 0
	for i := 0; i < c.hdr.numReads; i++ {
		start := len(d.bases)
		var err error
		if d.bases, err = d.cu.decodeRead(d.bases, &prevPos); err != nil {
			return fmt.Errorf("core: decoding read %d: %w", i, err)
		}
		d.lengths = append(d.lengths, len(d.bases)-start)
	}
	return nil
}

// Decompress reconstructs the read set from a SAGe container. When the
// consensus is not embedded, externalCons must supply it. It is the
// decode loop of AppendFASTQ in the code alphabet: the records' bases
// share one array, their scores another, and they are retained together.
func Decompress(data []byte, externalCons genome.Seq) (*fastq.ReadSet, error) {
	c, err := parseContainer(data)
	if err != nil {
		return nil, err
	}
	cons := c.hdr.consensus
	if cons == nil {
		cons = externalCons
	}
	d := decoders.Get()
	defer d.put()
	if err := d.decodeBases(c, cons, codes); err != nil {
		return nil, err
	}
	rs := &fastq.ReadSet{Records: make([]fastq.Record, c.hdr.numReads)}
	seqs := genome.Seq(slices.Clone(d.bases))
	for i, l := range d.lengths {
		rs.Records[i].Seq, seqs = seqs[:l:l], seqs[l:]
	}
	if c.hdr.has(flagQuality) {
		quals, err := qual.Decompress(c.quality, d.lengths)
		if err != nil {
			return nil, err
		}
		for i := range rs.Records {
			rs.Records[i].Qual = quals[i]
		}
	}
	if c.hdr.has(flagHeaders) {
		if d.names, d.ends, err = d.hdrs.Append(d.names[:0], d.ends[:0], c.headers, c.hdr.numReads); err != nil {
			return nil, err
		}
		hs, start := string(d.names), 0
		for i, end := range d.ends {
			rs.Records[i].Header, start = hs[start:end], end
		}
	}
	return rs, nil
}

// AppendFASTQ decodes a SAGe container and appends its reads to dst as
// FASTQ text, byte for byte what ReadSet.Write writes for the records
// Decompress returns; it returns the extended slice and the number of
// reads. letterCons is the consensus as text (genome.AppendASCII), used
// when the container embeds none. Bases come out of the decode loop as
// letters, and scores out of the quality lanes as characters, so no
// record is built and nothing is validated: each quality line is as
// long as its bases by construction.
func AppendFASTQ(dst, data, letterCons []byte) ([]byte, int, error) {
	c, err := parseContainer(data)
	if err != nil {
		return dst, 0, err
	}
	if c.hdr.consensus != nil {
		letterCons = genome.AppendASCII(nil, c.hdr.consensus)
	}
	d := decoders.Get()
	defer d.put()
	if err := d.decodeBases(c, letterCons, letters); err != nil {
		return dst, 0, err
	}
	n := c.hdr.numReads
	size := len(d.bases) + 6*n // '@', '\n', '\n', '+', '\n', '\n'
	hasQual, hasNames := c.hdr.has(flagQuality), c.hdr.has(flagHeaders)
	if hasQual {
		if d.quals, err = qual.Append(d.quals[:0], c.quality, d.lengths, fastq.QualityOffset); err != nil {
			return dst, 0, err
		}
		size += len(d.quals)
	}
	if hasNames {
		if d.names, d.ends, err = d.hdrs.Append(d.names[:0], d.ends[:0], c.headers, n); err != nil {
			return dst, 0, err
		}
		size += len(d.names)
	}
	dst = slices.Grow(dst, size)
	bases, quals, start := d.bases, d.quals, 0
	for i, l := range d.lengths {
		dst = append(dst, '@')
		if hasNames {
			dst = append(dst, d.names[start:d.ends[i]]...)
			start = d.ends[i]
		}
		dst = append(dst, '\n')
		dst = append(dst, bases[:l]...)
		dst = append(dst, '\n', '+', '\n')
		if hasQual {
			dst = append(dst, quals[:l]...)
			quals = quals[l:]
		}
		dst = append(dst, '\n')
		bases = bases[l:]
	}
	return dst, n, nil
}

// segPlan is the decoded placement of one segment.
type segPlan struct {
	consPos int
	rev     bool
	length  int
}

// decodeRead reconstructs one read, appending its bases to out and
// advancing all stream cursors.
func (cu *ControlUnit) decodeRead(out []byte, prevPos *int) ([]byte, error) {
	su := &cu.su
	delta, err := su.MatchDelta()
	if err != nil {
		return out, err
	}
	pos := *prevPos + int(delta)
	*prevPos = pos

	rev0, err := su.Rev()
	if err != nil {
		return out, err
	}
	nSegs, err := su.SegCount()
	if err != nil {
		return out, err
	}
	readLen := cu.hdr.fixedReadLen
	if !cu.hdr.has(flagFixedReadLen) {
		if readLen, err = su.ReadLen(); err != nil {
			return out, err
		}
	}
	if readLen > cu.hdr.maxReadLen {
		return out, fmt.Errorf("core: read length %d exceeds header maximum %d", readLen, cu.hdr.maxReadLen)
	}
	segs := cu.segs[:nSegs]
	segs[0] = segPlan{consPos: pos, rev: rev0}
	extraLen := 0
	for s := 1; s < nSegs; s++ {
		rev, err := su.Rev()
		if err != nil {
			return out, err
		}
		sl, err := su.ReadLen()
		if err != nil {
			return out, err
		}
		ap, err := su.AbsPos()
		if err != nil {
			return out, err
		}
		segs[s] = segPlan{consPos: ap, rev: rev, length: sl}
		extraLen += sl
	}
	segs[0].length = readLen - extraLen
	if segs[0].length < 0 {
		return out, fmt.Errorf("core: segment lengths exceed read length %d", readLen)
	}

	// Forward segments decode straight onto out; only reverse segments
	// stage through scratch (they must be complemented back-to-front,
	// which in-place appending cannot do).
	start := len(out)
	baseBits := uint(2) // widened to 3 by a corner record with the N flag
	for s := range segs {
		if !segs[s].rev {
			var raw bool
			out, raw, err = cu.decodeSegment(out, s == 0, segs[s], readLen, &baseBits)
			if err != nil {
				return out, err
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
			return out, err
		}
		if raw {
			// Unmapped payloads bypass strand handling: stored forward.
			return append(out, scratch...), nil
		}
		out = appendReverseComplement(out, scratch, &cu.rcu.alpha.comp)
	}
	if len(out)-start != readLen {
		return out, fmt.Errorf("core: reconstructed %d bases, want %d", len(out)-start, readLen)
	}
	return out, nil
}

// appendReverseComplement appends the reverse complement of src to dst
// under the complement table comp. dst and src must not overlap.
func appendReverseComplement(dst, src []byte, comp *[256]byte) []byte {
	n := len(dst)
	dst = slices.Grow(dst, len(src))[:n+len(src)]
	out := dst[n:]
	for i, b := range src {
		out[len(out)-1-i] = comp[b]
	}
	return dst
}

// decodeSegment reconstructs one segment, appending its bases to dst
// and returning the extended slice. raw reports that the read was
// stored unmapped (the whole read was appended).
func (cu *ControlUnit) decodeSegment(dst []byte, first bool, sp segPlan, readLen int, baseBits *uint) (out []byte, raw bool, err error) {
	su, rcu := &cu.su, &cu.rcu
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
					out, err = rcu.AppendBases(out, readLen, *baseBits)
					return out, err == nil, err
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
			if out, err = rcu.AppendBases(out, l, *baseBits); err != nil {
				return out, false, err
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
func consCopy(out, cons []byte, cursor *int, target int) ([]byte, error) {
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
