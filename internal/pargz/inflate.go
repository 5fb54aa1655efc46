package pargz

// This file is the member tier's DEFLATE kernel. The tier knows each
// member's compressed bytes (from the BC subfield) and its decoded size
// (from the ISIZE trailer) before it inflates it, so the kernel decodes
// the whole member in one call straight into a buffer of exactly ISIZE
// bytes: a 64-bit bit buffer refilled eight bytes at a time, table-driven
// Huffman decode, and matches copied within the output itself — no
// io.ByteReader call per byte, no 32 KiB window ring, no second copy.
//
// It accepts exactly the members compress/gzip accepts (one member, no
// bytes past its trailer): the same header flags, the same Huffman code
// shapes (complete codes, plus the empty and one-code-of-length-1 shapes
// zlib writes), the same length and distance checks. FuzzInflateMember
// holds it to compress/gzip.

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"sync"

	"sage/internal/freelist"
)

const (
	flgFHCRC    = 1 << 1
	flgFNAME    = 1 << 3
	flgFCOMMENT = 1 << 4

	// maxHeaderString is compress/gzip's limit on a header name or
	// comment, its terminating zero included.
	maxHeaderString = 512
	// maxExpansion bounds what one compressed byte can decode to: the
	// densest DEFLATE code spends two bits on a 258-byte match.
	maxExpansion = 1032
)

// Huffman table entries (uint32): bits 0–4 hold the code length (0 marks
// a bit pattern no symbol owns, or a symbol DEFLATE forbids), bits 8–11
// the extra-bit count of a length or distance (or a subtable's index
// width), bits 16–31 the payload: literal byte, length or distance base,
// code-length symbol, or subtable offset.
const (
	entLit  = 1 << 5 // literal byte
	entEOB  = 1 << 6 // end of block
	entLink = 1 << 7 // primary entry pointing at a subtable

	litBits  = 10 // primary index width of the literal/length table
	distBits = 8  // primary index width of the distance table
	clenBits = 7  // code-length codes are at most 7 bits: no subtables

	// A subtable holds the codes longer than the primary width that share
	// one primary prefix; a complete code has at least two such codes per
	// prefix, so at most 288/2 literal/length and 32/2 distance subtables,
	// each at most 2^(15-primary) entries.
	litTableSize  = 1<<litBits + 144<<(15-litBits)
	distTableSize = 1<<distBits + 16<<(15-distBits)

	// maxSymbolBits is the most one length-and-distance step reads: a
	// 15-bit length code, 5 extra bits, a 15-bit distance code and 13
	// extra bits. A refill leaves at least 56 bits.
	maxSymbolBits = 48
)

// errCorrupt marks DEFLATE data compress/flate would also reject.
var errCorrupt = errors.New("corrupt DEFLATE data")

// codeOrder is the order code-length code lengths arrive in (RFC 1951
// §3.2.7).
var codeOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// litInfo, distInfo and clenInfo are the symbol payloads the table
// builder ORs the code length into; a zero payload (length symbols 286
// and 287, distance symbols 30 and 31) leaves the entry invalid.
var litInfo, distInfo, clenInfo = func() (lit [288]uint32, dist [32]uint32, clen [19]uint32) {
	for s := range 256 {
		lit[s] = entLit | uint32(s)<<16
	}
	lit[256] = entEOB
	base := 3
	for s := 257; s < 285; s++ {
		extra := 0
		if s >= 265 {
			extra = (s - 261) / 4
		}
		lit[s] = uint32(extra)<<8 | uint32(base)<<16
		base += 1 << extra
	}
	lit[285] = 258 << 16
	base = 1
	for s := range 30 {
		extra := 0
		if s >= 4 {
			extra = s/2 - 1
		}
		dist[s] = uint32(extra)<<8 | uint32(base)<<16
		base += 1 << extra
	}
	for s := range clen {
		clen[s] = entLit | uint32(s)<<16 // entLit keeps symbol 0 apart from invalid
	}
	return
}()

// inflater is one member's decode tables, kept between members
// (inflaters) so that a member costs no table allocation.
type inflater struct {
	lit   [litTableSize]uint32
	dist  [distTableSize]uint32
	clen  [1 << clenBits]uint32
	lens  [286 + 30]uint8
	clens [19]uint8
}

var (
	inflaters = freelist.New[inflater]()
	// fixed holds the fixed-code tables of RFC 1951 §3.2.6, built once.
	fixed = sync.OnceValue(func() *inflater {
		f := new(inflater)
		var lens [288]uint8
		for s := range lens {
			switch {
			case s < 144:
				lens[s] = 8
			case s < 256:
				lens[s] = 9
			case s < 280:
				lens[s] = 7
			default:
				lens[s] = 8
			}
		}
		var dlens [32]uint8
		for s := range dlens {
			dlens[s] = 5
		}
		if !buildTable(f.lit[:], litBits, lens[:], litInfo[:]) || !buildTable(f.dist[:], distBits, dlens[:], distInfo[:]) {
			panic("pargz: fixed Huffman tables rejected")
		}
		return f
	})
)

// buildTable fills table with the canonical Huffman code (RFC 1951
// §3.2.2) of lengths, indexed by the next primary bits of input, LSB
// first; codes longer than primary bits continue in one subtable per
// primary prefix. It reports false for a code compress/flate rejects:
// over-subscribed, or incomplete other than empty or a single code of
// length one, whose unowned patterns stay invalid entries.
func buildTable(table []uint32, primary uint, lengths []uint8, info []uint32) bool {
	var count [16]int
	for _, l := range lengths {
		count[l]++
	}
	count[0] = 0
	maxLen := 15
	for maxLen > 0 && count[maxLen] == 0 {
		maxLen--
	}
	size := 1 << primary
	clear(table[:size])
	if maxLen == 0 {
		return true
	}
	var next [16]int
	code := 0
	for l := 1; l <= maxLen; l++ {
		code = (code + count[l-1]) << 1
		next[l] = code
	}
	if code+count[maxLen] != 1<<maxLen && !(code+count[maxLen] == 1 && maxLen == 1) {
		return false
	}
	subWidth := uint(0)
	if maxLen > int(primary) {
		subWidth = uint(maxLen) - primary
	}
	free := size
	for s, l := range lengths {
		if l == 0 {
			continue
		}
		n := uint(l)
		rev := int(bits.Reverse16(uint16(next[l])) >> (16 - n))
		next[l]++
		ent := uint32(0)
		if info[s] != 0 {
			ent = info[s] | uint32(n)
		}
		if n <= primary {
			for i := rev; i < size; i += 1 << n {
				table[i] = ent
			}
			continue
		}
		link := table[rev&(size-1)]
		if link == 0 {
			if free+1<<subWidth > len(table) {
				return false
			}
			link = entLink | uint32(subWidth)<<8 | uint32(free)<<16
			table[rev&(size-1)] = link
			free += 1 << subWidth
		}
		sub := table[link>>16 : link>>16+1<<subWidth]
		for i := rev >> primary; i < len(sub); i += 1 << (n - primary) {
			sub[i] = ent
		}
	}
	return true
}

// inflateMember decodes the gzip member comp into dst's storage, grown to
// the member's ISIZE, and returns the decoded bytes. It checks what
// compress/gzip checks — every header flag, the header CRC when FHCRC
// is set, the DEFLATE stream, the CRC-32 and ISIZE trailer — and also
// that the stream ends exactly at the trailer. An ISIZE no DEFLATE
// stream of comp's length could reach is rejected before allocating.
func inflateMember(dst, comp []byte) ([]byte, error) {
	raw, sum, size, err := memberParts(comp)
	if err != nil {
		return dst[:0], err
	}
	if uint64(size) > maxExpansion*uint64(len(comp)) {
		return dst[:0], fmt.Errorf("ISIZE %d is more than a %d-byte member can decode to: %w", size, len(comp), gzip.ErrChecksum)
	}
	out := dst[:0]
	if cap(out) < int(size) {
		out = make([]byte, size)
	}
	out = out[:size]
	d := inflaters.Get()
	err = d.decode(out, raw)
	inflaters.Put(d)
	if err != nil {
		return out, err
	}
	if crc32.ChecksumIEEE(out) != sum {
		return out, gzip.ErrChecksum
	}
	return out, nil
}

// memberParts parses comp's gzip header and returns the raw DEFLATE bytes
// between it and the trailer, and the trailer's CRC-32 and ISIZE.
func memberParts(comp []byte) (raw []byte, sum, size uint32, err error) {
	if len(comp) < 10 {
		return nil, 0, 0, io.ErrUnexpectedEOF
	}
	if comp[0] != gzipID1 || comp[1] != gzipID2 || comp[2] != gzipCM {
		return nil, 0, 0, gzip.ErrHeader
	}
	flg, p := comp[3], 10
	if flg&flgFEXTRA != 0 {
		if len(comp) < p+2 {
			return nil, 0, 0, io.ErrUnexpectedEOF
		}
		p += 2 + int(binary.LittleEndian.Uint16(comp[p:]))
		if p > len(comp) {
			return nil, 0, 0, io.ErrUnexpectedEOF
		}
	}
	for _, f := range [2]byte{flgFNAME, flgFCOMMENT} {
		if flg&f == 0 {
			continue
		}
		s := comp[p:min(len(comp), p+maxHeaderString)]
		end := 0
		for end < len(s) && s[end] != 0 {
			end++
		}
		switch {
		case end < len(s):
			p += end + 1
		case len(s) < maxHeaderString:
			return nil, 0, 0, io.ErrUnexpectedEOF
		default:
			return nil, 0, 0, gzip.ErrHeader
		}
	}
	if flg&flgFHCRC != 0 {
		if len(comp) < p+2 {
			return nil, 0, 0, io.ErrUnexpectedEOF
		}
		if binary.LittleEndian.Uint16(comp[p:]) != uint16(crc32.ChecksumIEEE(comp[:p])) {
			return nil, 0, 0, gzip.ErrHeader
		}
		p += 2
	}
	if len(comp)-p < 8 {
		return nil, 0, 0, io.ErrUnexpectedEOF
	}
	t := comp[len(comp)-8:]
	return comp[p : len(comp)-8], binary.LittleEndian.Uint32(t), binary.LittleEndian.Uint32(t[4:]), nil
}

// decode inflates the raw DEFLATE stream in into out, which must come out
// exactly full, with the stream ending exactly at in's end.
//
// The bit buffer b holds nb valid bits, LSB first; bits above them are
// the next input bytes or zero. ip is the next byte to load; past in's
// end the buffer fills with zero bytes that ip still counts, so the
// stream overran in exactly when it consumed more than len(in)*8 bits.
func (d *inflater) decode(out, in []byte) error {
	var (
		b  uint64
		nb uint
		ip int
		op int
	)
	for final := false; !final; {
		if nb < maxSymbolBits {
			b, nb, ip = refill(b, nb, ip, in)
		}
		if ip*8-int(nb) > len(in)*8 {
			return io.ErrUnexpectedEOF
		}
		final = b&1 != 0
		typ := b >> 1 & 3
		b >>= 3
		nb -= 3
		tables := d
		switch typ {
		case 0:
			// Stored: LEN, NLEN and the bytes start at the next byte
			// boundary, the first whole byte the buffer holds.
			p := ip - int(nb/8)
			if p+4 > len(in) {
				return io.ErrUnexpectedEOF
			}
			n := int(binary.LittleEndian.Uint16(in[p:]))
			if binary.LittleEndian.Uint16(in[p+2:]) != ^uint16(n) {
				return errCorrupt
			}
			p += 4
			if n > len(in)-p {
				return io.ErrUnexpectedEOF
			}
			if n > len(out)-op {
				return pastISIZE(len(out))
			}
			op += copy(out[op:], in[p:p+n])
			b, nb, ip = 0, 0, p+n
			continue
		case 1:
			tables = fixed()
		case 2:
			var err error
			if b, nb, ip, err = d.readTables(b, nb, ip, in); err != nil {
				return failed(err, ip, nb, in)
			}
		default:
			return failed(errCorrupt, ip, nb, in)
		}
		lt, dt := &tables.lit, &tables.dist
		for {
			if nb < maxSymbolBits {
				b, nb, ip = refill(b, nb, ip, in)
			}
			e := lt[b&(1<<litBits-1)]
			if e&entLink != 0 {
				e = lt[e>>16+uint32(b>>litBits)&(1<<(e>>8&15)-1)]
			}
			n := uint(e & 31)
			if n == 0 {
				return failed(errCorrupt, ip, nb, in)
			}
			b >>= n
			nb -= n
			if e&entLit != 0 {
				if op >= len(out) {
					return failed(pastISIZE(len(out)), ip, nb, in)
				}
				out[op] = byte(e >> 16)
				op++
				continue
			}
			if e&entEOB != 0 {
				break
			}
			xb := uint(e>>8) & 15
			length := int(e>>16) + int(b&(1<<xb-1))
			b >>= xb
			nb -= xb

			e = dt[b&(1<<distBits-1)]
			if e&entLink != 0 {
				e = dt[e>>16+uint32(b>>distBits)&(1<<(e>>8&15)-1)]
			}
			n = uint(e & 31)
			if n == 0 {
				return failed(errCorrupt, ip, nb, in)
			}
			b >>= n
			nb -= n
			xb = uint(e>>8) & 15
			dist := int(e>>16) + int(b&(1<<xb-1))
			b >>= xb
			nb -= xb
			if dist > op {
				return failed(errCorrupt, ip, nb, in)
			}
			if length > len(out)-op {
				return failed(pastISIZE(len(out)), ip, nb, in)
			}
			end := op + length
			switch {
			case dist >= 8 && end+8 <= len(out):
				// Eight bytes at a time, each word read from bytes
				// already written; the last word may run up to 7 bytes
				// past end, which later symbols overwrite.
				for from := op - dist; op < end; op, from = op+8, from+8 {
					binary.LittleEndian.PutUint64(out[op:], binary.LittleEndian.Uint64(out[from:]))
				}
			case dist >= length:
				copy(out[op:end], out[op-dist:])
			default:
				// Overlapping: the bytes from op-dist repeat with period
				// dist, so each copy doubles what it may read.
				for from := op - dist; op < end; {
					op += copy(out[op:end], out[from:op])
				}
			}
			op = end
		}
	}
	switch p := ip - int(nb/8); {
	case p > len(in):
		return io.ErrUnexpectedEOF
	case p < len(in):
		return fmt.Errorf("%d bytes between the DEFLATE stream and the trailer", len(in)-p)
	case op != len(out):
		return fmt.Errorf("DEFLATE data decodes to %d bytes, ISIZE says %d: %w", op, len(out), gzip.ErrChecksum)
	}
	return nil
}

// failed reports err, or a truncation if the stream consumed more bits
// than in holds: damage past the end of the input reads as zero bits.
func failed(err error, ip int, nb uint, in []byte) error {
	if ip*8-int(nb) > len(in)*8 {
		return io.ErrUnexpectedEOF
	}
	return err
}

// pastISIZE is the error of a stream that decodes to more than the
// trailer's ISIZE of n bytes.
func pastISIZE(n int) error {
	return fmt.Errorf("DEFLATE data decodes past ISIZE %d: %w", n, gzip.ErrChecksum)
}

// refill tops the bit buffer up to at least 56 bits, a byte at a time
// near in's end, with zero bytes past it.
func refill(b uint64, nb uint, ip int, in []byte) (uint64, uint, int) {
	if ip+8 <= len(in) {
		b |= binary.LittleEndian.Uint64(in[ip:]) << nb
		return b, nb | 56, ip + int(63-nb)>>3
	}
	for ; nb <= 56; nb += 8 {
		if ip < len(in) {
			b |= uint64(in[ip]) << nb
		}
		ip++
	}
	return b, nb, ip
}

// readTables reads a dynamic block's code lengths (RFC 1951 §3.2.7) and
// builds d's literal/length and distance tables from them.
func (d *inflater) readTables(b uint64, nb uint, ip int, in []byte) (uint64, uint, int, error) {
	b, nb, ip = refill(b, nb, ip, in)
	nlit := int(b&31) + 257
	ndist := int(b>>5&31) + 1
	nclen := int(b>>10&15) + 4
	b >>= 14
	nb -= 14
	if nlit > 286 || ndist > 30 {
		return b, nb, ip, errCorrupt
	}
	clear(d.clens[:])
	for _, s := range codeOrder[:nclen] {
		if nb < 3 {
			b, nb, ip = refill(b, nb, ip, in)
		}
		d.clens[s] = uint8(b & 7)
		b >>= 3
		nb -= 3
	}
	if !buildTable(d.clen[:], clenBits, d.clens[:], clenInfo[:]) {
		return b, nb, ip, errCorrupt
	}
	lens := d.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		if nb < 2*clenBits {
			b, nb, ip = refill(b, nb, ip, in)
		}
		e := d.clen[b&(1<<clenBits-1)]
		n := uint(e & 31)
		if n == 0 {
			return b, nb, ip, errCorrupt
		}
		b >>= n
		nb -= n
		sym := uint8(e >> 16)
		if sym < 16 {
			lens[i] = sym
			i++
			continue
		}
		rep, xb, val := 3, uint(2), uint8(0)
		switch sym {
		case 16:
			if i == 0 {
				return b, nb, ip, errCorrupt
			}
			val = lens[i-1]
		case 17:
			xb = 3
		default:
			rep, xb = 11, 7
		}
		rep += int(b & (1<<xb - 1))
		b >>= xb
		nb -= xb
		if i+rep > len(lens) {
			return b, nb, ip, errCorrupt
		}
		for range rep {
			lens[i] = val
			i++
		}
	}
	if !buildTable(d.lit[:], litBits, lens[:nlit], litInfo[:]) || !buildTable(d.dist[:], distBits, lens[nlit:], distInfo[:]) {
		return b, nb, ip, errCorrupt
	}
	return b, nb, ip, nil
}
