// Package genome models DNA sequences, their packed encodings, and the
// genetic-variation processes that SAGe's compression algorithm exploits.
//
// The paper's key insight (§4) is that genomic information follows trends
// shaped by sequencing technology and genetic phenomena. This package
// provides the ground truth side of that: reference genomes, donor genomes
// derived from them through clustered variation (Property 1: mutations
// cluster in regions), and the base-level encodings (2-bit, 3-bit with N,
// ASCII) that SAGe's Read Construction Unit can emit (§5.2.2 ⑫).
package genome

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
)

// Base codes. The DNA alphabet is A, C, G, T plus N for unknown bases
// (§5.1.4: N expands the alphabet to five characters, breaking 2-bit
// encoding — a corner case).
const (
	BaseA = 0
	BaseC = 1
	BaseG = 2
	BaseT = 3
	BaseN = 4
)

// alphabet maps base codes to ASCII.
var alphabet = [5]byte{'A', 'C', 'G', 'T', 'N'}

// codeOf maps ASCII (upper or lower case) to base codes; 0xff = invalid.
var codeOf [256]byte

// letterOf is BaseToChar as a table, for per-base loops.
var letterOf [256]byte

// complementOf is Complement as a table, for per-base loops.
var complementOf [256]byte

func init() {
	for b := range complementOf {
		complementOf[b] = Complement(byte(b))
		letterOf[b] = BaseToChar(byte(b))
	}
	for i := range codeOf {
		codeOf[i] = 0xff
	}
	for c, b := range map[byte]byte{
		'A': BaseA, 'C': BaseC, 'G': BaseG, 'T': BaseT, 'N': BaseN,
		'a': BaseA, 'c': BaseC, 'g': BaseG, 't': BaseT, 'n': BaseN,
	} {
		codeOf[c] = b
	}
}

// BaseToChar returns the ASCII character for a base code.
func BaseToChar(b byte) byte {
	if int(b) < len(alphabet) {
		return alphabet[b]
	}
	return '?'
}

// CharToBase returns the base code for an ASCII character and whether the
// character is a valid DNA letter.
func CharToBase(c byte) (byte, bool) {
	b := codeOf[c]
	return b, b != 0xff
}

// Complement returns the Watson–Crick complement of a base code
// (N complements to N).
func Complement(b byte) byte {
	switch b {
	case BaseA:
		return BaseT
	case BaseT:
		return BaseA
	case BaseC:
		return BaseG
	case BaseG:
		return BaseC
	default:
		return BaseN
	}
}

// Seq is a DNA sequence of base codes (one byte per base, values 0..4).
type Seq []byte

// FromString parses an ASCII DNA string into a Seq.
func FromString(s string) (Seq, error) {
	out := make(Seq, len(s))
	for i := 0; i < len(s); i++ {
		b, ok := CharToBase(s[i])
		if !ok {
			return nil, fmt.Errorf("genome: invalid base %q at %d", s[i], i)
		}
		out[i] = b
	}
	return out, nil
}

// AppendASCII renders s as ASCII appended to dst, returning the extended
// slice. It is the allocation-free counterpart of Seq.String for callers
// that own a reusable line buffer.
func AppendASCII(dst []byte, s Seq) []byte {
	n := len(dst)
	dst = slices.Grow(dst, len(s))[:n+len(s)]
	out := dst[n:][:len(s)]
	for i, c := range s {
		out[i] = letterOf[c]
	}
	return dst
}

// AppendReverseComplement appends the reverse complement of src to dst,
// returning the extended slice. dst and src must not overlap.
func AppendReverseComplement(dst, src Seq) Seq {
	n := len(dst)
	dst = slices.Grow(dst, len(src))[:n+len(src)]
	out := dst[n:]
	for i, b := range src {
		out[len(out)-1-i] = complementOf[b]
	}
	return dst
}

// MustFromString is FromString that panics on invalid input; for tests
// and literals.
func MustFromString(s string) Seq {
	q, err := FromString(s)
	if err != nil {
		panic(err)
	}
	return q
}

// String renders the sequence as ASCII.
func (s Seq) String() string {
	var b strings.Builder
	b.Grow(len(s))
	for _, c := range s {
		b.WriteByte(BaseToChar(c))
	}
	return b.String()
}

// Clone returns a copy of s.
func (s Seq) Clone() Seq {
	out := make(Seq, len(s))
	copy(out, s)
	return out
}

// ReverseComplement returns the reverse complement of s.
func (s Seq) ReverseComplement() Seq {
	return AppendReverseComplement(make(Seq, 0, len(s)), s)
}

// HasN reports whether the sequence contains any unknown (N) base.
func (s Seq) HasN() bool {
	for _, b := range s {
		if b == BaseN {
			return true
		}
	}
	return false
}

// Equal reports whether two sequences are identical.
func (s Seq) Equal(o Seq) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Format identifies an output encoding the Read Construction Unit can emit
// (§5.2.2 ⑫: "2-bit encoded, 3-bit encoded for reads with N, ASCII, etc.").
type Format uint8

const (
	// FormatASCII is one byte per base ('A', 'C', 'G', 'T', 'N').
	FormatASCII Format = iota
	// Format2Bit packs 4 bases per byte; valid only for N-free sequences.
	Format2Bit
	// Format3Bit packs bases 3 bits each (supports N).
	Format3Bit
	// FormatOneHot emits 4 bits per base with exactly one bit set
	// (N maps to 0000), the encoding used by systolic-array mappers.
	FormatOneHot
)

func (f Format) String() string {
	switch f {
	case FormatASCII:
		return "ascii"
	case Format2Bit:
		return "2bit"
	case Format3Bit:
		return "3bit"
	case FormatOneHot:
		return "1hot"
	default:
		return fmt.Sprintf("format(%d)", uint8(f))
	}
}

// BitsPerBase reports the encoded width of one base in format f.
func (f Format) BitsPerBase() int {
	switch f {
	case FormatASCII:
		return 8
	case Format2Bit:
		return 2
	case Format3Bit:
		return 3
	case FormatOneHot:
		return 4
	default:
		return 8
	}
}

// Encode renders s in format f. Encoding an N in Format2Bit returns an
// error, mirroring the hardware's corner-case path (§5.1.4).
func Encode(s Seq, f Format) ([]byte, error) {
	switch f {
	case FormatASCII:
		return []byte(s.String()), nil
	case Format2Bit:
		out := make([]byte, (len(s)+3)/4)
		for i, b := range s {
			if b > BaseT {
				return nil, fmt.Errorf("genome: base N at %d not encodable in 2-bit format", i)
			}
			out[i/4] |= b << uint((3-i%4)*2)
		}
		return out, nil
	case Format3Bit:
		out := make([]byte, (len(s)*3+7)/8)
		for i, b := range s {
			pos := i * 3
			for k := 0; k < 3; k++ {
				bit := (b >> uint(2-k)) & 1
				out[(pos+k)/8] |= bit << uint(7-(pos+k)%8)
			}
		}
		return out, nil
	case FormatOneHot:
		out := make([]byte, (len(s)+1)/2)
		for i, b := range s {
			var nib byte
			if b <= BaseT {
				nib = 1 << (3 - b)
			}
			if i%2 == 0 {
				out[i/2] |= nib << 4
			} else {
				out[i/2] |= nib
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("genome: unknown format %v", f)
	}
}

// Decode parses data produced by Encode back into a Seq of length n.
func Decode(data []byte, n int, f Format) (Seq, error) {
	out := make(Seq, n)
	switch f {
	case FormatASCII:
		if len(data) < n {
			return nil, fmt.Errorf("genome: ascii data too short: %d < %d", len(data), n)
		}
		for i := 0; i < n; i++ {
			b, ok := CharToBase(data[i])
			if !ok {
				return nil, fmt.Errorf("genome: invalid base %q at %d", data[i], i)
			}
			out[i] = b
		}
	case Format2Bit:
		if len(data)*4 < n {
			return nil, fmt.Errorf("genome: 2-bit data too short")
		}
		// Four bases a byte, then the bases of a partial last byte.
		full := n / 4
		for j, b := range data[:full] {
			o := out[4*j : 4*j+4]
			o[0], o[1], o[2], o[3] = b>>6, b>>4&3, b>>2&3, b&3
		}
		for i := 4 * full; i < n; i++ {
			out[i] = (data[i/4] >> uint((3-i%4)*2)) & 3
		}
	case Format3Bit:
		if len(data)*8 < n*3 {
			return nil, fmt.Errorf("genome: 3-bit data too short")
		}
		// Eight bases every three bytes, then the bases of a partial
		// last group bit by bit; the codes are checked once, after.
		full := n / 8
		for j := range full {
			g := data[3*j : 3*j+3]
			v := uint32(g[0])<<16 | uint32(g[1])<<8 | uint32(g[2])
			o := out[8*j : 8*j+8]
			for k := range o {
				o[k] = byte(v>>(21-3*k)) & 7
			}
		}
		for i := 8 * full; i < n; i++ {
			pos := i * 3
			var b byte
			for k := 0; k < 3; k++ {
				bit := (data[(pos+k)/8] >> uint(7-(pos+k)%8)) & 1
				b = b<<1 | bit
			}
			out[i] = b
		}
		for i, b := range out {
			if b > BaseN {
				return nil, fmt.Errorf("genome: invalid 3-bit code %d at %d", b, i)
			}
		}
	case FormatOneHot:
		if len(data)*2 < n {
			return nil, fmt.Errorf("genome: 1-hot data too short")
		}
		for i := 0; i < n; i++ {
			var nib byte
			if i%2 == 0 {
				nib = data[i/2] >> 4
			} else {
				nib = data[i/2] & 0xf
			}
			switch nib {
			case 0b1000:
				out[i] = BaseA
			case 0b0100:
				out[i] = BaseC
			case 0b0010:
				out[i] = BaseG
			case 0b0001:
				out[i] = BaseT
			case 0:
				out[i] = BaseN
			default:
				return nil, fmt.Errorf("genome: invalid 1-hot nibble %04b at %d", nib, i)
			}
		}
	default:
		return nil, fmt.Errorf("genome: unknown format %v", f)
	}
	return out, nil
}

// Random returns a uniformly random N-free genome of length n.
func Random(rng *rand.Rand, n int) Seq {
	out := make(Seq, n)
	for i := range out {
		out[i] = byte(rng.Intn(4))
	}
	return out
}
