// Package springc is the Spring/NanoSpring-like baseline: a genomic-
// specific compressor with the same consensus + mismatch front end as
// SAGe, but a general-purpose (DEFLATE) backend over byte-oriented
// mismatch streams (§2.2, Fig. 3: mismatch information "is then more
// compressible using general-purpose compressors, which are then used by
// the state-of-the-art genomic compressors").
//
// The two properties the paper needs from this baseline are reproduced
// faithfully:
//
//  1. Compression ratios comparable to (slightly better than or equal to)
//     SAGe's, since the backend entropy coder squeezes the same mismatch
//     information harder than SAGe's width-tuned arrays (Table 2: SAGe
//     within 4.6% on average).
//  2. Monolithic, memory-hungry decompression: every stream is inflated
//     into memory before any read can be reconstructed, and the entropy
//     decode performs data-dependent pattern matching — the behaviour that
//     makes such tools unsuitable for in-storage integration (§3.2).
package springc

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"sage/internal/fastq"
	"sage/internal/genome"
	"sage/internal/headers"
	"sage/internal/mapper"
	"sage/internal/pool"
	"sage/internal/qual"
)

// Stats reports sizes of the compressed sections.
type Stats struct {
	CompressedBytes int
	DNABytes        int
	QualityBytes    int
	HeaderBytes     int
	ConsensusBytes  int
	NumMapped       int
	NumUnmapped     int
}

// Encoded is a compressed read set.
type Encoded struct {
	Data  []byte
	Stats Stats
}

var magic = [4]byte{'S', 'P', 'R', 'l'}

// Stream indices of the byte-oriented mismatch streams.
const (
	stFlags    = iota // per read: mapped | rev<<1 | hasN<<2 | (nSegs-1)<<3
	stMatchPos        // per read: uvarint matching-position delta
	stReadLen         // per read: uvarint length (+ per extra segment: len, abs pos)
	stCount           // per segment: uvarint mismatch count
	stMisPos          // per mismatch: uvarint delta (+ uvarint block len for indels)
	stType            // per mismatch: 1 byte type
	stBases           // substituted/inserted bases, 1 byte each
	stRaw             // unmapped reads, ASCII bases
	numStreams
)

// Compress encodes rs with the Spring-like scheme at Spring's defaults:
// lossless (qualities and headers kept), self-contained (cons embedded),
// the backend at flate.BestCompression, mapping on pool.Ranges over up
// to GOMAXPROCS workers.
func Compress(rs *fastq.ReadSet, cons genome.Seq) (*Encoded, error) {
	if len(cons) == 0 {
		return nil, fmt.Errorf("springc: a consensus sequence is required")
	}
	m, err := mapper.New(cons, mapper.DefaultConfig())
	if err != nil {
		return nil, err
	}
	type plan struct {
		idx     int
		aln     mapper.Alignment
		sortKey int
	}
	plans := make([]plan, len(rs.Records))
	pool.Ranges(len(plans), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			seq := rs.Records[i].Seq
			aln := m.Map(seq)
			if aln.Mapped {
				if got, err := mapper.ReconstructRead(cons, aln, len(seq)); err != nil || !got.Equal(seq) {
					aln = mapper.Alignment{}
				}
			}
			p := plan{idx: i, aln: aln}
			if aln.Mapped {
				p.sortKey = aln.Segments[0].ConsPos
			}
			plans[i] = p
		}
	})

	sort.SliceStable(plans, func(a, b int) bool {
		am, bm := plans[a].aln.Mapped, plans[b].aln.Mapped
		if am != bm {
			return am
		}
		if !am {
			return false
		}
		return plans[a].sortKey < plans[b].sortKey
	})

	var streams [numStreams]bytes.Buffer
	st := Stats{}
	prevPos := 0
	for _, p := range plans {
		seq := rs.Records[p.idx].Seq
		flags := byte(0)
		nSegs := 1
		if p.aln.Mapped {
			flags |= 1
			if p.aln.Segments[0].Rev {
				flags |= 2
			}
			nSegs = len(p.aln.Segments)
			st.NumMapped++
		} else {
			st.NumUnmapped++
		}
		if seq.HasN() {
			flags |= 4
		}
		flags |= byte(nSegs-1) << 3
		streams[stFlags].WriteByte(flags)
		putUvarint(&streams[stReadLen], uint64(len(seq)))
		if !p.aln.Mapped {
			streams[stRaw].WriteString(seq.String())
			putUvarint(&streams[stMatchPos], 0)
			continue
		}
		pos := p.aln.Segments[0].ConsPos
		putUvarint(&streams[stMatchPos], uint64(pos-prevPos))
		prevPos = pos
		for s := 1; s < nSegs; s++ {
			seg := p.aln.Segments[s]
			rb := byte(0)
			if seg.Rev {
				rb = 1
			}
			streams[stFlags].WriteByte(rb)
			putUvarint(&streams[stReadLen], uint64(seg.ReadLen))
			putUvarint(&streams[stReadLen], uint64(seg.ConsPos))
		}
		for _, seg := range p.aln.Segments {
			putUvarint(&streams[stCount], uint64(len(seg.Edits)))
			prevMis := 0
			for _, e := range seg.Edits {
				putUvarint(&streams[stMisPos], uint64(e.ReadPos-prevMis))
				prevMis = e.ReadPos
				switch e.Type {
				case genome.Substitution:
					streams[stType].WriteByte(0)
					streams[stBases].WriteByte(e.Bases[0])
				case genome.Insertion:
					streams[stType].WriteByte(1)
					putUvarint(&streams[stMisPos], uint64(len(e.Bases)))
					for _, b := range e.Bases {
						streams[stBases].WriteByte(b)
					}
				case genome.Deletion:
					streams[stType].WriteByte(2)
					putUvarint(&streams[stMisPos], uint64(e.DelLen))
				}
			}
		}
	}

	// Backend: DEFLATE every stream (the general-purpose compressor
	// stage of Fig. 3 ②).
	var out bytes.Buffer
	out.Write(magic[:])
	// The consensus is 2-bit packed, or 3-bit when it holds N.
	consFormat := genome.Format2Bit
	packed, err := genome.Encode(cons, consFormat)
	if err != nil {
		consFormat = genome.Format3Bit
		if packed, err = genome.Encode(cons, consFormat); err != nil {
			return nil, err
		}
	}
	out.WriteByte(byte(consFormat))
	putUvarint(&out, uint64(len(rs.Records)))
	putUvarint(&out, uint64(len(cons)))
	comp, err := deflate(packed)
	if err != nil {
		return nil, err
	}
	putUvarint(&out, uint64(len(comp)))
	out.Write(comp)
	st.ConsensusBytes = len(comp)
	for i := range streams {
		comp, err := deflate(streams[i].Bytes())
		if err != nil {
			return nil, err
		}
		putUvarint(&out, uint64(streams[i].Len()))
		putUvarint(&out, uint64(len(comp)))
		out.Write(comp)
	}
	dnaBytes := out.Len()
	quals := make([][]byte, len(plans))
	hs := make([]string, len(plans))
	for i, p := range plans {
		quals[i] = rs.Records[p.idx].Qual
		hs[i] = rs.Records[p.idx].Header
	}
	qs, err := qual.Compress(quals)
	if err != nil {
		return nil, err
	}
	putUvarint(&out, uint64(len(qs)))
	out.Write(qs)
	st.QualityBytes = len(qs)
	hb, err := headers.Compress(hs)
	if err != nil {
		return nil, err
	}
	putUvarint(&out, uint64(len(hb)))
	out.Write(hb)
	st.HeaderBytes = len(hb)
	st.CompressedBytes = out.Len()
	st.DNABytes = dnaBytes
	return &Encoded{Data: out.Bytes(), Stats: st}, nil
}

// Decompress reconstructs the read set. Unlike SAGe's streaming decoder,
// everything is inflated into memory first (the random-access,
// high-footprint pattern of §3.2).
func Decompress(data []byte) (*fastq.ReadSet, error) {
	rd := bytes.NewReader(data)
	var m [4]byte
	if _, err := io.ReadFull(rd, m[:]); err != nil {
		return nil, fmt.Errorf("springc: reading magic: %w", err)
	}
	if m != magic {
		return nil, fmt.Errorf("springc: bad magic %q", m)
	}
	consFormat, err := rd.ReadByte()
	if err != nil {
		return nil, err
	}
	if f := genome.Format(consFormat); f != genome.Format2Bit && f != genome.Format3Bit {
		return nil, fmt.Errorf("springc: bad consensus format %d", consFormat)
	}
	numReads, err := binary.ReadUvarint(rd)
	if err != nil {
		return nil, err
	}
	consLen, err := binary.ReadUvarint(rd)
	if err != nil {
		return nil, err
	}
	cl, err := binary.ReadUvarint(rd)
	if err != nil {
		return nil, err
	}
	comp := make([]byte, cl)
	if _, err := io.ReadFull(rd, comp); err != nil {
		return nil, err
	}
	packed, err := inflate(comp)
	if err != nil {
		return nil, err
	}
	cons, err := genome.Decode(packed, int(consLen), genome.Format(consFormat))
	if err != nil {
		return nil, err
	}
	var streams [numStreams]*bytes.Reader
	for i := range streams {
		rawLen, err := binary.ReadUvarint(rd)
		if err != nil {
			return nil, err
		}
		compLen, err := binary.ReadUvarint(rd)
		if err != nil {
			return nil, err
		}
		comp := make([]byte, compLen)
		if _, err := io.ReadFull(rd, comp); err != nil {
			return nil, err
		}
		raw, err := inflate(comp)
		if err != nil {
			return nil, err
		}
		if uint64(len(raw)) != rawLen {
			return nil, fmt.Errorf("springc: stream %d inflated to %d bytes, want %d", i, len(raw), rawLen)
		}
		streams[i] = bytes.NewReader(raw)
	}

	// Every read costs a byte of the flags stream.
	if numReads > uint64(streams[stFlags].Len()) {
		return nil, fmt.Errorf("springc: %d reads claimed, flags stream holds %d", numReads, streams[stFlags].Len())
	}
	rs := &fastq.ReadSet{Records: make([]fastq.Record, numReads)}
	lengths := make([]int, numReads)
	prevPos := 0
	for i := 0; i < int(numReads); i++ {
		seq, err := decodeRead(streams[:], cons, &prevPos)
		if err != nil {
			return nil, fmt.Errorf("springc: read %d: %w", i, err)
		}
		rs.Records[i].Seq = seq
		lengths[i] = len(seq)
	}
	ql, err := binary.ReadUvarint(rd)
	if err != nil {
		return nil, err
	}
	qb := make([]byte, ql)
	if _, err := io.ReadFull(rd, qb); err != nil {
		return nil, err
	}
	quals, err := qual.Decompress(qb, lengths)
	if err != nil {
		return nil, err
	}
	hl, err := binary.ReadUvarint(rd)
	if err != nil {
		return nil, err
	}
	hb := make([]byte, hl)
	if _, err := io.ReadFull(rd, hb); err != nil {
		return nil, err
	}
	// Only the read count bounds the header count a slotless template claims.
	names, ends, err := new(headers.Decoder).Append(nil, nil, hb, len(rs.Records))
	if err != nil {
		return nil, fmt.Errorf("springc: %w", err)
	}
	hs, start := string(names), 0
	for i, end := range ends {
		rs.Records[i].Qual = quals[i]
		rs.Records[i].Header, start = hs[start:end], end
	}
	return rs, nil
}

func decodeRead(streams []*bytes.Reader, cons genome.Seq, prevPos *int) (genome.Seq, error) {
	flags, err := streams[stFlags].ReadByte()
	if err != nil {
		return nil, err
	}
	mapped := flags&1 != 0
	rev0 := flags&2 != 0
	nSegs := int(flags>>3) + 1
	readLen, err := binary.ReadUvarint(streams[stReadLen])
	if err != nil {
		return nil, err
	}
	if !mapped {
		if _, err := binary.ReadUvarint(streams[stMatchPos]); err != nil {
			return nil, err
		}
		raw := make([]byte, readLen)
		if _, err := io.ReadFull(streams[stRaw], raw); err != nil {
			return nil, err
		}
		return genome.FromString(string(raw))
	}
	delta, err := binary.ReadUvarint(streams[stMatchPos])
	if err != nil {
		return nil, err
	}
	pos := *prevPos + int(delta)
	*prevPos = pos
	type segPlan struct {
		consPos, length int
		rev             bool
	}
	segs := make([]segPlan, nSegs)
	segs[0] = segPlan{consPos: pos, rev: rev0}
	extra := 0
	for s := 1; s < nSegs; s++ {
		rb, err := streams[stFlags].ReadByte()
		if err != nil {
			return nil, err
		}
		sl, err := binary.ReadUvarint(streams[stReadLen])
		if err != nil {
			return nil, err
		}
		ap, err := binary.ReadUvarint(streams[stReadLen])
		if err != nil {
			return nil, err
		}
		segs[s] = segPlan{consPos: int(ap), length: int(sl), rev: rb == 1}
		extra += int(sl)
	}
	segs[0].length = int(readLen) - extra
	if segs[0].length < 0 {
		return nil, fmt.Errorf("segment lengths exceed read length")
	}
	out := make(genome.Seq, 0, readLen)
	for _, sp := range segs {
		piece, err := decodeSegment(streams, cons, sp.consPos, sp.length)
		if err != nil {
			return nil, err
		}
		if sp.rev {
			piece = piece.ReverseComplement()
		}
		out = append(out, piece...)
	}
	if len(out) != int(readLen) {
		return nil, fmt.Errorf("reconstructed %d bases, want %d", len(out), readLen)
	}
	return out, nil
}

func decodeSegment(streams []*bytes.Reader, cons genome.Seq, consPos, segLen int) (genome.Seq, error) {
	count, err := binary.ReadUvarint(streams[stCount])
	if err != nil {
		return nil, err
	}
	out := make(genome.Seq, 0, segLen)
	cursor := consPos
	prevMis := 0
	copyTo := func(target int) error {
		for len(out) < target {
			if cursor < 0 || cursor >= len(cons) {
				return fmt.Errorf("consensus cursor %d out of range", cursor)
			}
			out = append(out, cons[cursor])
			cursor++
		}
		return nil
	}
	for j := uint64(0); j < count; j++ {
		d, err := binary.ReadUvarint(streams[stMisPos])
		if err != nil {
			return nil, err
		}
		misPos := prevMis + int(d)
		prevMis = misPos
		if err := copyTo(misPos); err != nil {
			return nil, err
		}
		ty, err := streams[stType].ReadByte()
		if err != nil {
			return nil, err
		}
		switch ty {
		case 0: // substitution
			b, err := streams[stBases].ReadByte()
			if err != nil {
				return nil, err
			}
			out = append(out, b)
			cursor++
		case 1: // insertion
			l, err := binary.ReadUvarint(streams[stMisPos])
			if err != nil {
				return nil, err
			}
			for k := uint64(0); k < l; k++ {
				b, err := streams[stBases].ReadByte()
				if err != nil {
					return nil, err
				}
				out = append(out, b)
			}
		case 2: // deletion
			l, err := binary.ReadUvarint(streams[stMisPos])
			if err != nil {
				return nil, err
			}
			cursor += int(l)
		default:
			return nil, fmt.Errorf("unknown mismatch type %d", ty)
		}
	}
	if err := copyTo(segLen); err != nil {
		return nil, err
	}
	return out, nil
}

func deflate(data []byte) ([]byte, error) {
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, flate.BestCompression)
	if err != nil {
		return nil, err
	}
	if _, err := fw.Write(data); err != nil {
		return nil, err
	}
	if err := fw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func inflate(data []byte) ([]byte, error) {
	fr := flate.NewReader(bytes.NewReader(data))
	defer fr.Close()
	return io.ReadAll(fr)
}

func putUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	buf.Write(tmp[:n])
}
