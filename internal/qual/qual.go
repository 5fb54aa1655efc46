package qual

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// symbolBits is the bit width of one Phred score (alphabet 0..63).
const symbolBits = 6

// Context model dimensions: the previous score quantized to 16 buckets,
// the score before that to 8 buckets, crossed with the 63 internal nodes
// of the 6-level binary decomposition tree.
const (
	prev1Buckets = 16
	prev2Buckets = 8
	treeNodes    = 1 << symbolBits // node indices 1..63 used
	numContexts  = prev1Buckets * prev2Buckets * treeNodes
)

func contextBase(q1, q2 byte) int {
	b1 := int(q1) >> 2 // 0..15
	if b1 >= prev1Buckets {
		b1 = prev1Buckets - 1
	}
	b2 := int(q2) >> 3 // 0..7
	if b2 >= prev2Buckets {
		b2 = prev2Buckets - 1
	}
	return (b1*prev2Buckets + b2) * treeNodes
}

// probsPool recycles the 16 KiB adaptive-probability table across
// Compress/Decompress calls (and across the shard workers that make
// them): the table dominates the codec's per-call allocation cost.
// Tables are re-initialized on checkout, so pool reuse is invisible to
// the coded stream.
var probsPool = sync.Pool{New: func() any { return new([numContexts]uint16) }}

func getProbs() *[numContexts]uint16 {
	p := probsPool.Get().(*[numContexts]uint16)
	for i := range p {
		p[i] = probInit
	}
	return p
}

// Compress encodes the concatenated quality strings of reads losslessly.
// Per-read lengths are NOT stored: the decoder receives them from the DNA
// side of the container, which keeps the stream aligned with the bases
// (§5.1.5: "SAGe maintains the same order for DNA bases and quality
// scores").
func Compress(quals [][]byte) ([]byte, error) {
	enc := getEncoder()
	defer putEncoder(enc)
	probs := getProbs()
	defer probsPool.Put(probs)
	for _, q := range quals {
		if err := enc.encodeScores(q, probs); err != nil {
			return nil, err
		}
	}
	body := enc.flush()
	out := make([]byte, 8+len(body))
	binary.LittleEndian.PutUint64(out, uint64(len(body)))
	copy(out[8:], body)
	return out, nil
}

// maxScoresPerByte bounds how many scores one stream byte can hold: at
// the probability clamp (4065/4096) a decision costs 0.011 bit, so a
// run of constant scores packs 121 six-decision scores into a byte.
const maxScoresPerByte = 128

// Decompress decodes scores for reads with the given lengths. The
// stream must end exactly where the scores do: lengths that ask for
// more or fewer scores than were coded are an error, not garbage.
func Decompress(data []byte, lengths []int) ([][]byte, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("qual: truncated stream header")
	}
	bodyLen := binary.LittleEndian.Uint64(data)
	if uint64(len(data)-8) < bodyLen {
		return nil, fmt.Errorf("qual: stream body truncated: have %d want %d", len(data)-8, bodyLen)
	}
	body := data[8 : 8+bodyLen]
	// Bounding the scores by the body before allocating for them keeps
	// hostile lengths to a multiple of the input.
	limit := maxScoresPerByte * len(body)
	total := 0
	for r, l := range lengths {
		if l < 0 || l > limit-total {
			return nil, fmt.Errorf("qual: read %d of length %d: a %d-byte stream holds at most %d scores", r, l, len(body), limit)
		}
		total += l
	}
	var dec rcDecoder
	dec.init(body)
	probs := getProbs()
	defer probsPool.Put(probs)
	// All scores decode into one flat buffer sub-sliced per read
	// (capacity-clipped, so an appending caller reallocates rather than
	// overruns a neighbor): two allocations for the whole block instead
	// of one per read. The per-read slices share backing memory and are
	// retained together — the same ownership rule batch records follow.
	flat := make([]byte, total)
	out := make([][]byte, len(lengths))
	for r, l := range lengths {
		out[r] = flat[:l:l]
		flat = flat[l:]
		dec.decodeScores(out[r], probs)
	}
	if dec.pos > len(body) {
		return nil, fmt.Errorf("qual: stream ends before the scores do: %d bytes hold fewer than %d scores", len(body), total)
	}
	if dec.pos < len(body) {
		return nil, fmt.Errorf("qual: %d of %d stream bytes left over after %d scores", len(body)-dec.pos, len(body), total)
	}
	return out, nil
}
