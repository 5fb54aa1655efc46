// Package qual implements SAGe's lossless quality-score codec (§5.1.5).
//
// Quality scores lack the long-range redundancy of DNA bases, so SAGe —
// like Spring and the other genomic compressors it cites — compresses them
// as a separate stream with a context model. Compress writes a static
// order-1 rANS stream with four interleaved states (stream kind 2): one
// frequency table per block and context, the context being the previous
// score of the read, and the block's scores split into four lanes that a
// decoder takes in lock-step. Decompress also reads the streams earlier
// containers carry: the same coder with one state (kind 1) and the
// adaptive binary range coder (kind 0).
// Decompression runs on the host CPU in the paper; the codec here backs
// both the SAGe container and the Spring-like baseline, so their quality
// ratios match (Table 2: "SAGe's quality score (de)compression is based
// on the same software used in [Spring]").
package qual

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Stream kinds. A stream starts with a little-endian u64 whose low 56
// bits are the body length and whose top byte is the kind, so a reader
// that predates a kind reads an impossible length and answers "stream
// body truncated". docs/FORMAT.md has a section for each kind.
const (
	kindBinary = 0 // adaptive binary range coder (rangecoder.go): decoded, never written
	kindRANS   = 1 // static order-1 rANS, one state (rans.go): decoded, never written
	kindRANS4  = 2 // static order-1 rANS, four interleaved states (rans.go): what Compress writes
)

const lengthBits = 56

// Compress encodes the concatenated quality strings of reads losslessly
// as one kind-2 stream. Per-read lengths are NOT stored: the decoder
// receives them from the DNA side of the container, which keeps the
// stream aligned with the bases (§5.1.5: "SAGe maintains the same order
// for DNA bases and quality scores").
func Compress(quals [][]byte) ([]byte, error) {
	e := encoders.Get()
	defer encoders.Put(e)
	return e.compress(quals)
}

// maxScoresPerByte bounds how many scores one body byte can hold, by
// kind. Kind 0: at the probability clamp (4065/4096) a decision costs
// 0.011 bit, so a run of constant scores packs 121 six-decision scores
// into a byte. Kinds 1 and 2: a score takes at least
// log2(4096/4064) = 0.0113 bit out of its lane's state, which starts
// below 2³¹ and must end at 2²³, and each renormalisation byte puts 8
// back. So T scores over B renormalisation bytes and k lanes satisfy
// 0.0113·T ≤ 8·(B + k), and the 4·k state bytes are in the body: a
// byte holds at most 8/0.0113 < 708 scores.
var maxScoresPerByte = [...]int{kindBinary: 128, kindRANS: 708, kindRANS4: 708}

// Decompress decodes scores for reads with the given lengths, from a
// stream of any kind. The stream must end exactly where the scores do:
// lengths that ask for more or fewer scores than were coded are an
// error, not garbage.
//
// All scores decode into one flat buffer sub-sliced per read
// (capacity-clipped, so an appending caller reallocates rather than
// overruns a neighbor): two allocations for the whole block instead of
// one per read. The per-read slices share backing memory and are
// retained together — the same ownership rule batch records follow.
func Decompress(data []byte, lengths []int) ([][]byte, error) {
	// A non-nil dst keeps zero-length reads' scores non-nil, as records
	// with quality carry them.
	flat, err := Append([]byte{}, data, lengths, 0)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(lengths))
	for r, l := range lengths {
		out[r] = flat[:l:l]
		flat = flat[l:]
	}
	return out, nil
}

// Append is Decompress into dst: it appends the scores of reads with
// the given lengths end to end, each plus offset (0 gives scores,
// fastq.QualityOffset gives the quality line's characters), and
// returns the extended slice. The contexts are those of the scores, so
// every offset reads the same stream the same way.
func Append(dst, data []byte, lengths []int, offset byte) ([]byte, error) {
	if len(data) < 8 {
		return dst, fmt.Errorf("qual: truncated stream header")
	}
	word := binary.LittleEndian.Uint64(data)
	kind, bodyLen := word>>lengthBits, word&(1<<lengthBits-1)
	if kind >= uint64(len(maxScoresPerByte)) {
		return dst, fmt.Errorf("qual: unsupported stream kind %d", kind)
	}
	if uint64(len(data)-8) < bodyLen {
		return dst, fmt.Errorf("qual: stream body truncated: have %d want %d", len(data)-8, bodyLen)
	}
	body := data[8 : 8+bodyLen]
	// Bounding the scores by the body before allocating for them keeps
	// hostile lengths to a multiple of the input.
	limit := maxScoresPerByte[kind] * len(body)
	total := 0
	for r, l := range lengths {
		if l < 0 || l > limit-total {
			return dst, fmt.Errorf("qual: read %d of length %d: a %d-byte stream holds at most %d scores", r, l, len(body), limit)
		}
		total += l
	}
	n := len(dst)
	dst = slices.Grow(dst, total)[:n+total]
	flat := dst[n:]
	var err error
	switch kind {
	case kindBinary:
		err = decodeBinary(body, flat, lengths, offset)
	case kindRANS:
		err = decodeRANS(body, flat, lengths, 1, offset)
	default:
		err = decodeRANS(body, flat, lengths, ransLanes, offset)
	}
	if err != nil {
		return dst[:n], err
	}
	return dst, nil
}
