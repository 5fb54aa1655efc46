// Package headers compresses FASTQ read names.
//
// Instrument-generated headers are highly templated ("@SRR870667.1241 ..."),
// so the codec tokenizes each header into alternating literal and numeric
// fields. When all headers share one template, only the per-header numbers
// are stored (delta + varint). Otherwise it falls back to DEFLATE over the
// raw strings. Headers are not the paper's focus (Spring handles them the
// same way); the codec exists so the container is a complete FASTQ
// compressor.
package headers

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"unsafe"

	"sage/internal/bitio"
	"sage/internal/freelist"
)

// Stream format tags.
const (
	modeTemplated = 1
	modeRaw       = 2
)

// maxDigits is the longest digit run stored as a number; a longer one
// is a literal. It bounds the zero-padded width a slot may claim.
const maxDigits = 18

// token splits a header into literal and numeric runs.
type token struct {
	literal string
	numeric bool
	value   uint64
	// width preserves leading zeros ("0042" -> width 4).
	width int
}

// tokenizeAppend appends h's tokens to dst, returning the extended
// slice, so a block of headers tokenizes into one shared backing array.
func tokenizeAppend(out []token, h string) []token {
	i := 0
	for i < len(h) {
		j := i
		if h[i] >= '0' && h[i] <= '9' {
			var v uint64
			overflow := false
			for j < len(h) && h[j] >= '0' && h[j] <= '9' {
				nv := v*10 + uint64(h[j]-'0')
				if nv < v {
					overflow = true
				}
				v = nv
				j++
			}
			if overflow || j-i > maxDigits {
				// Treat absurdly long digit runs as literals.
				out = append(out, token{literal: h[i:j]})
			} else {
				out = append(out, token{numeric: true, value: v, width: j - i})
			}
		} else {
			for j < len(h) && (h[j] < '0' || h[j] > '9') {
				j++
			}
			out = append(out, token{literal: h[i:j]})
		}
		i = j
	}
	return out
}

// templateOf renders the non-numeric skeleton of a tokenization.
func templateOf(toks []token) string {
	var b strings.Builder
	for _, t := range toks {
		if t.numeric {
			b.WriteByte(0)
		} else {
			b.WriteString(t.literal)
		}
	}
	return b.String()
}

// sameTemplate reports whether two tokenizations share a skeleton,
// without materializing either template string.
func sameTemplate(a, b []token) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].numeric != b[i].numeric {
			return false
		}
		if !a[i].numeric && a[i].literal != b[i].literal {
			return false
		}
	}
	return true
}

// Compress encodes the header list.
func Compress(hs []string) ([]byte, error) {
	if len(hs) == 0 {
		return []byte{modeTemplated, 0}, nil
	}
	// All headers tokenize into one flat slice; offs[i]..offs[i+1] is
	// header i's token run.
	flat := make([]token, 0, 4*len(hs))
	offs := make([]int, len(hs)+1)
	for i, h := range hs {
		flat = tokenizeAppend(flat, h)
		offs[i+1] = len(flat)
	}
	first := flat[offs[0]:offs[1]]
	uniform := true
	for i := 1; i < len(hs) && uniform; i++ {
		uniform = sameTemplate(first, flat[offs[i]:offs[i+1]])
	}
	if uniform {
		return compressTemplated(hs, flat, offs)
	}
	return compressRaw(hs)
}

func compressTemplated(hs []string, flat []token, offs []int) ([]byte, error) {
	first := flat[offs[0]:offs[1]]
	tmpl := templateOf(first)
	var buf bytes.Buffer
	buf.WriteByte(modeTemplated)
	writeUvarint(&buf, uint64(len(hs)))
	writeUvarint(&buf, uint64(len(tmpl)))
	buf.WriteString(tmpl)
	// Numeric slots per header; templates are uniform, so the token
	// index of each slot is shared by every header.
	var slotIdx []int
	for k, t := range first {
		if t.numeric {
			slotIdx = append(slotIdx, k)
		}
	}
	nSlots := len(slotIdx)
	writeUvarint(&buf, uint64(nSlots))
	// Per slot: widths and zig-zag deltas of values.
	w := bitio.NewWriter(len(hs) * nSlots)
	for s := 0; s < nSlots; s++ {
		var prev uint64
		for i := range hs {
			t := flat[offs[i]+slotIdx[s]]
			bitio.PutUvarint64(w, uint64(t.width))
			bitio.PutUvarint64(w, zigzag(int64(t.value)-int64(prev)))
			prev = t.value
		}
	}
	body := w.Bytes()
	writeUvarint(&buf, w.Len())
	buf.Write(body)
	return buf.Bytes(), nil
}

func compressRaw(hs []string) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteByte(modeRaw)
	writeUvarint(&buf, uint64(len(hs)))
	var raw bytes.Buffer
	for _, h := range hs {
		raw.WriteString(h)
		raw.WriteByte('\n')
	}
	var comp bytes.Buffer
	fw, err := flate.NewWriter(&comp, flate.BestCompression)
	if err != nil {
		return nil, err
	}
	if _, err := fw.Write(raw.Bytes()); err != nil {
		return nil, err
	}
	if err := fw.Close(); err != nil {
		return nil, err
	}
	writeUvarint(&buf, uint64(comp.Len()))
	buf.Write(comp.Bytes())
	return buf.Bytes(), nil
}

// Decompress decodes a header list. The strings share one backing
// array and are retained together.
func Decompress(data []byte) ([]string, error) {
	buf, ends, err := new(Decoder).Append(nil, nil, data, -1)
	if err != nil || len(ends) == 0 {
		return nil, err
	}
	hs := string(buf)
	out := make([]string, len(ends))
	start := 0
	for i, end := range ends {
		out[i], start = hs[start:end], end
	}
	return out, nil
}

// Decoder keeps the slot table a templated stream decodes through
// between calls, so a Decoder reused block after block (core keeps one
// in its decoder scratch) does not allocate it each time. A table
// larger than freelist.MaxKeep is not kept. The zero value is ready to
// use; a Decoder is not safe for concurrent use.
type Decoder struct {
	slots []slotVal
}

// slotVal is one slot of one header: its value and zero-padded width.
type slotVal struct {
	width int
	value uint64
}

// slotValBytes is the size of a slotVal, which the keep check in
// appendTemplated weighs a slot table by.
const slotValBytes = int(unsafe.Sizeof(slotVal{}))

// Append is Decompress into dst: it appends the headers to dst end to
// end and, for each, its end offset in dst to ends, and returns both.
// A stream that does not hold exactly want headers fails before
// anything is allocated (want < 0 takes any count): a template without
// slots costs no body bits per header, so nothing else in the stream
// bounds the count it claims.
func (d *Decoder) Append(dst []byte, ends []int, data []byte, want int) ([]byte, []int, error) {
	if len(data) == 0 {
		return dst, ends, fmt.Errorf("headers: empty stream")
	}
	mode := data[0]
	rest := data[1:]
	switch mode {
	case modeTemplated:
		return d.appendTemplated(dst, ends, rest, want)
	case modeRaw:
		return appendRaw(dst, ends, rest, want)
	default:
		return dst, ends, fmt.Errorf("headers: unknown mode %d", mode)
	}
}

func (d *Decoder) appendTemplated(dst []byte, ends []int, data []byte, want int) ([]byte, []int, error) {
	n, data, err := uvarint(data)
	if err != nil {
		return dst, ends, fmt.Errorf("headers: %w", err)
	}
	if err := checkCount(n, want); err != nil {
		return dst, ends, err
	}
	if n == 0 {
		return dst, ends, nil
	}
	tl, data, err := uvarint(data)
	if err != nil {
		return dst, ends, err
	}
	tmpl, data, err := cut(data, tl)
	if err != nil {
		return dst, ends, err
	}
	nSlots, data, err := uvarint(data)
	if err != nil {
		return dst, ends, err
	}
	if holes := bytes.Count(tmpl, []byte{0}); uint64(holes) != nSlots {
		return dst, ends, fmt.Errorf("headers: template has %d slots, stream says %d", holes, nSlots)
	}
	bodyBits, body, err := uvarint(data)
	if err != nil {
		return dst, ends, err
	}
	br := bitio.NewReader(body, bodyBits)
	// Every (width, delta) pair costs at least 16 bits, which bounds the
	// slot table a non-lying stream can demand — reject anything larger
	// before growing it.
	bitLimit := uint64(len(body)) * 8
	if bodyBits < bitLimit {
		bitLimit = bodyBits
	}
	if nSlots > 0 && n > bitLimit/16/nSlots {
		return dst, ends, fmt.Errorf("headers: %d slots x %d headers exceeds %d-bit body", nSlots, n, bitLimit)
	}
	// vals[s*n+i] is slot s of header i, decoded in one flat slice;
	// every entry is written before it is read.
	vals := slices.Grow(d.slots[:0], int(nSlots*n))[:nSlots*n]
	if slotValBytes*cap(vals) <= freelist.MaxKeep {
		d.slots = vals
	}
	for s := uint64(0); s < nSlots; s++ {
		var prev uint64
		for i := uint64(0); i < n; i++ {
			wd, err := bitio.ReadUvarint64(br)
			if err != nil {
				return dst, ends, err
			}
			if wd > maxDigits {
				return dst, ends, fmt.Errorf("headers: slot width %d exceeds %d digits", wd, maxDigits)
			}
			zz, err := bitio.ReadUvarint64(br)
			if err != nil {
				return dst, ends, err
			}
			v := uint64(int64(prev) + unzigzag(zz))
			vals[s*n+i] = slotVal{width: int(wd), value: v}
			prev = v
		}
	}
	dst = slices.Grow(dst, (len(tmpl)+8)*int(n))
	ends = slices.Grow(ends, int(n))
	for i := uint64(0); i < n; i++ {
		slot := uint64(0)
		for _, c := range tmpl {
			if c == 0 {
				sv := vals[slot*n+i]
				slot++
				dst = appendZeroPad(dst, sv.value, sv.width)
			} else {
				dst = append(dst, c)
			}
		}
		ends = append(ends, len(dst))
	}
	return dst, ends, nil
}

// appendZeroPad appends v in decimal, left-padded with zeros to at
// least width digits (the inverse of tokenize's width capture), without
// the fmt machinery.
func appendZeroPad(dst []byte, v uint64, width int) []byte {
	var tmp [20]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	for pad := width - (len(tmp) - i); pad > 0; pad-- {
		dst = append(dst, '0')
	}
	return append(dst, tmp[i:]...)
}

func appendRaw(dst []byte, ends []int, data []byte, want int) ([]byte, []int, error) {
	n, data, err := uvarint(data)
	if err != nil {
		return dst, ends, err
	}
	if err := checkCount(n, want); err != nil {
		return dst, ends, err
	}
	cl, data, err := uvarint(data)
	if err != nil {
		return dst, ends, err
	}
	comp, _, err := cut(data, cl)
	if err != nil {
		return dst, ends, err
	}
	fr := flate.NewReader(bytes.NewReader(comp))
	raw, err := io.ReadAll(fr)
	if err != nil {
		return dst, ends, err
	}
	if lines := bytes.Count(raw, []byte{'\n'}) + 1; uint64(lines) < n {
		return dst, ends, fmt.Errorf("headers: raw stream has %d lines, want %d", lines, n)
	}
	for i := uint64(0); i < n; i++ {
		line, rest, _ := bytes.Cut(raw, []byte{'\n'})
		dst = append(dst, line...)
		ends = append(ends, len(dst))
		raw = rest
	}
	return dst, ends, nil
}

// checkCount checks the header count n a stream claims against want.
func checkCount(n uint64, want int) error {
	if want >= 0 && n != uint64(want) {
		return fmt.Errorf("headers: stream holds %d headers, want %d", n, want)
	}
	return nil
}

// errOverflow is binary.ReadUvarint's error for a uvarint past 64 bits.
var errOverflow = errors.New("binary: varint overflows a 64-bit integer")

// uvarint parses the uvarint at the start of data and returns it with
// the bytes after it. It fails as binary.ReadUvarint would over a
// reader of data, without building one: a reader passed to it as an
// io.ByteReader escapes, which cost every decode an allocation.
func uvarint(data []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(data)
	switch {
	case n > 0:
		return v, data[n:], nil
	case n < 0 || len(data) >= binary.MaxVarintLen64:
		return 0, nil, errOverflow
	case len(data) == 0:
		return 0, nil, io.EOF
	}
	return 0, nil, io.ErrUnexpectedEOF
}

// cut returns the first n bytes of data and the bytes after them,
// failing as io.ReadFull would.
func cut(data []byte, n uint64) ([]byte, []byte, error) {
	if n > uint64(len(data)) {
		if len(data) == 0 {
			return nil, nil, io.EOF
		}
		return nil, nil, io.ErrUnexpectedEOF
	}
	return data[:n], data[n:], nil
}

func writeUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	buf.Write(tmp[:n])
}

func zigzag(v int64) uint64 {
	return uint64(v<<1) ^ uint64(v>>63)
}

func unzigzag(v uint64) int64 {
	return int64(v>>1) ^ -int64(v&1)
}
