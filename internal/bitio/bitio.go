// Package bitio provides bit-granular writers and readers used by SAGe's
// array and guide-array encodings.
//
// SAGe's on-storage format (§5.1 of the paper) packs fields of 1–32 bits
// back to back with no byte alignment. Decompression hardware consumes the
// streams strictly sequentially, so the reader exposes only forward,
// streaming operations: ReadBits, ReadBit, and ReadUnary. Bits are packed
// MSB-first within each byte, which keeps the software decoder's shift
// logic identical to the hardware Scan Unit's shift registers: the reader
// takes a field out of a 64-bit window loaded at its cursor, with one
// shift, and a unary code with one count of leading ones.
package bitio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// ErrOverflow is returned when a read would pass the end of the stream.
var ErrOverflow = errors.New("bitio: read past end of stream")

// Writer accumulates bits MSB-first into an in-memory buffer.
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	cur  byte // partially filled byte
	nCur uint // number of bits used in cur (0..7)
	bits uint64
}

// NewWriter returns a Writer with capacity preallocated for sizeHint bytes.
func NewWriter(sizeHint int) *Writer {
	return &Writer{buf: make([]byte, 0, sizeHint)}
}

// WriteBit appends a single bit (b must be 0 or 1).
func (w *Writer) WriteBit(b uint) {
	w.cur = w.cur<<1 | byte(b&1)
	w.nCur++
	w.bits++
	if w.nCur == 8 {
		w.buf = append(w.buf, w.cur)
		w.cur, w.nCur = 0, 0
	}
}

// WriteBits appends the low n bits of v, most significant first.
// n must be in [0, 64].
func (w *Writer) WriteBits(v uint64, n uint) {
	if n > 64 {
		panic(fmt.Sprintf("bitio: WriteBits width %d > 64", n))
	}
	w.bits += uint64(n)
	for n > 0 {
		space := 8 - w.nCur
		take := space
		if take > n {
			take = n
		}
		chunk := byte(v>>(n-take)) & (1<<take - 1)
		w.cur = w.cur<<take | chunk
		w.nCur += take
		n -= take
		if w.nCur == 8 {
			w.buf = append(w.buf, w.cur)
			w.cur, w.nCur = 0, 0
		}
	}
}

// WriteUnary appends v as a unary prefix code: v ones followed by a zero.
// This is the variable-length guide-array representation of §5.1.1
// ("0, 10, 110, 1110" for class indices 0..3).
func (w *Writer) WriteUnary(v uint) {
	for i := uint(0); i < v; i++ {
		w.WriteBit(1)
	}
	w.WriteBit(0)
}

// WriteBool appends b as one bit.
func (w *Writer) WriteBool(b bool) {
	if b {
		w.WriteBit(1)
	} else {
		w.WriteBit(0)
	}
}

// Len reports the number of bits written so far.
func (w *Writer) Len() uint64 { return w.bits }

// Bytes flushes the partial byte (padding with zeros) and returns the
// packed stream. The writer remains usable; subsequent writes continue
// after the already-flushed content only if no partial byte was pending,
// so callers should treat Bytes as a finalization step.
func (w *Writer) Bytes() []byte {
	out := w.buf
	if w.nCur > 0 {
		out = append(out, w.cur<<(8-w.nCur))
	}
	return out
}

// Reader consumes a bit stream produced by Writer, strictly forward.
//
// It reads the way the Scan Unit shifts fields out of its register: a
// field of up to 56 bits is one big-endian 8-byte load at the cursor's
// byte, shifted by the cursor's bit offset, and a unary code is the
// count of leading ones of that window. Only within 8 bytes of the
// buffer's end do ReadBits and ReadUnary fall back to a byte loop and a
// bit loop.
type Reader struct {
	buf []byte
	pos uint64 // bit cursor
	n   uint64 // total bits available
	// lim is the first cursor whose 8-byte window would run past buf.
	lim uint64
}

// NewReader returns a Reader over buf. nbits bounds the number of valid
// bits; pass 8*len(buf) if the stream is exactly byte-aligned.
func NewReader(buf []byte, nbits uint64) *Reader {
	if max := uint64(len(buf)) * 8; nbits > max {
		nbits = max
	}
	r := &Reader{buf: buf, n: nbits}
	if len(buf) >= 8 {
		r.lim = uint64(len(buf)-7) * 8
	}
	return r
}

// ReadBit returns the next bit.
func (r *Reader) ReadBit() (uint, error) {
	if r.pos >= r.n {
		return 0, ErrOverflow
	}
	b := r.buf[r.pos>>3]
	bit := uint(b>>(7-r.pos&7)) & 1
	r.pos++
	return bit, nil
}

// window returns the 64 bits at the cursor's byte shifted by the
// cursor's bit offset: at least 57 stream bits, MSB first. The cursor
// must be below lim.
func (r *Reader) window() uint64 {
	pos := r.pos
	return binary.BigEndian.Uint64(r.buf[pos>>3:]) << (pos & 7)
}

// ReadBits returns the next n bits as the low bits of a uint64.
func (r *Reader) ReadBits(n uint) (uint64, error) {
	if end := r.pos + uint64(n); n <= 56 && r.pos < r.lim && end <= r.n {
		v := r.window() >> (64 - n)
		r.pos = end
		return v, nil
	}
	return r.readBits(n)
}

// readBits is ReadBits for fields wider than 56 bits, near the buffer's
// end, and for every error.
func (r *Reader) readBits(n uint) (uint64, error) {
	if n > 64 {
		return 0, fmt.Errorf("bitio: ReadBits width %d > 64", n)
	}
	if r.pos+uint64(n) > r.n {
		return 0, ErrOverflow
	}
	if n > 56 {
		// Two reads, which the overflow test above lets neither fail.
		hi, _ := r.ReadBits(n - 32)
		lo, _ := r.ReadBits(32)
		return hi<<32 | lo, nil
	}
	var v uint64
	pos := r.pos
	for n > 0 {
		b := r.buf[pos>>3]
		off := uint(pos & 7)
		avail := 8 - off
		take := avail
		if take > n {
			take = n
		}
		chunk := (b >> (avail - take)) & (1<<take - 1)
		v = v<<take | uint64(chunk)
		pos += uint64(take)
		n -= take
	}
	r.pos = pos
	return v, nil
}

// ReadUnary reads a unary prefix code (count of ones before the first
// zero). maxOnes bounds the count to defend against corrupt streams.
func (r *Reader) ReadUnary(maxOnes uint) (uint, error) {
	if r.pos < r.lim {
		// Shifting in zeros ends the run of ones within the window.
		k := uint(bits.LeadingZeros64(^r.window()))
		if end := r.pos + uint64(k); k <= maxOnes && k <= 56 && end < r.n {
			r.pos = end + 1
			return k, nil
		}
	}
	return r.readUnary(maxOnes)
}

// readUnary is ReadUnary for runs the window does not end, near the
// buffer's end, and for every error.
func (r *Reader) readUnary(maxOnes uint) (uint, error) {
	var v uint
	for {
		bit, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		if bit == 0 {
			return v, nil
		}
		v++
		if v > maxOnes {
			return 0, fmt.Errorf("bitio: unary code exceeds %d ones", maxOnes)
		}
	}
}

// ReadBool reads one bit as a bool.
func (r *Reader) ReadBool() (bool, error) {
	b, err := r.ReadBit()
	return b == 1, err
}

// PutUvarint64 appends v to w using a 7-bits-per-group variable-length
// encoding (1 continuation bit + 7 payload bits per group, MSB group
// first). Used for header metadata where widths are unknown a priori.
func PutUvarint64(w *Writer, v uint64) {
	// Count groups.
	groups := uint(1)
	for x := v >> 7; x > 0; x >>= 7 {
		groups++
	}
	for i := groups; i > 0; i-- {
		payload := (v >> ((i - 1) * 7)) & 0x7f
		if i > 1 {
			w.WriteBit(1)
		} else {
			w.WriteBit(0)
		}
		w.WriteBits(payload, 7)
	}
}

// ReadUvarint64 reads a value written by PutUvarint64, a group of
// continuation bit and payload at a time.
func ReadUvarint64(r *Reader) (uint64, error) {
	var v uint64
	for i := 0; ; i++ {
		if i >= 10 {
			return 0, errors.New("bitio: uvarint too long")
		}
		g, err := r.ReadBits(8)
		if err != nil {
			return 0, err
		}
		v = v<<7 | g&0x7f
		if g < 0x80 {
			return v, nil
		}
	}
}
