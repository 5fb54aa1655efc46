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
	"fmt"
	"io"
	"strings"

	"sage/internal/bitio"
)

// Stream format tags.
const (
	modeTemplated = 1
	modeRaw       = 2
)

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
			if overflow || j-i > 18 {
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

// Decompress decodes a header list.
func Decompress(data []byte) ([]string, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("headers: empty stream")
	}
	mode := data[0]
	rest := data[1:]
	switch mode {
	case modeTemplated:
		return decompressTemplated(rest)
	case modeRaw:
		return decompressRaw(rest)
	default:
		return nil, fmt.Errorf("headers: unknown mode %d", mode)
	}
}

func decompressTemplated(data []byte) ([]string, error) {
	rd := bytes.NewReader(data)
	n, err := binary.ReadUvarint(rd)
	if err != nil {
		return nil, fmt.Errorf("headers: %w", err)
	}
	if n == 0 {
		return nil, nil
	}
	tl, err := binary.ReadUvarint(rd)
	if err != nil {
		return nil, err
	}
	tmpl := make([]byte, tl)
	if _, err := io.ReadFull(rd, tmpl); err != nil {
		return nil, err
	}
	nSlots, err := binary.ReadUvarint(rd)
	if err != nil {
		return nil, err
	}
	bodyBits, err := binary.ReadUvarint(rd)
	if err != nil {
		return nil, err
	}
	body := make([]byte, rd.Len())
	if _, err := io.ReadFull(rd, body); err != nil {
		return nil, err
	}
	br := bitio.NewReader(body, bodyBits)
	// Every (width, delta) pair costs at least 16 bits, which bounds the
	// slot table a non-lying stream can demand — reject anything larger
	// before allocating it.
	bitLimit := uint64(len(body)) * 8
	if bodyBits < bitLimit {
		bitLimit = bodyBits
	}
	if nSlots > 0 && n > bitLimit/16/nSlots {
		return nil, fmt.Errorf("headers: %d slots x %d headers exceeds %d-bit body", nSlots, n, bitLimit)
	}
	// vals[s*n+i] is slot s of header i, decoded in one flat slice.
	type slotVal struct {
		width int
		value uint64
	}
	vals := make([]slotVal, nSlots*n)
	for s := uint64(0); s < nSlots; s++ {
		var prev uint64
		for i := uint64(0); i < n; i++ {
			wd, err := bitio.ReadUvarint64(br)
			if err != nil {
				return nil, err
			}
			zz, err := bitio.ReadUvarint64(br)
			if err != nil {
				return nil, err
			}
			v := uint64(int64(prev) + unzigzag(zz))
			vals[s*n+i] = slotVal{width: int(wd), value: v}
			prev = v
		}
	}
	// Render every header into one byte buffer, convert to a string
	// once, and hand out sub-slices: O(1) allocations for the block
	// instead of two per header. The returned strings share backing
	// memory and are retained together.
	out := make([]string, n)
	hbuf := make([]byte, 0, (len(tmpl)+8)*int(n))
	hoffs := make([]int, n+1)
	for i := uint64(0); i < n; i++ {
		slot := uint64(0)
		for _, c := range tmpl {
			if c == 0 {
				sv := vals[slot*n+i]
				slot++
				hbuf = appendZeroPad(hbuf, sv.value, sv.width)
			} else {
				hbuf = append(hbuf, c)
			}
		}
		hoffs[i+1] = len(hbuf)
	}
	hs := string(hbuf)
	for i := range out {
		out[i] = hs[hoffs[i]:hoffs[i+1]]
	}
	return out, nil
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

func decompressRaw(data []byte) ([]string, error) {
	rd := bytes.NewReader(data)
	n, err := binary.ReadUvarint(rd)
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
	fr := flate.NewReader(bytes.NewReader(comp))
	raw, err := io.ReadAll(fr)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(string(raw), "\n")
	if uint64(len(lines)) < n {
		return nil, fmt.Errorf("headers: raw stream has %d lines, want %d", len(lines), n)
	}
	return lines[:n], nil
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
