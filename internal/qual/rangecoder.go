package qual

// Kind 0, the stream Compress wrote before kind 1: each score is coded
// bit by bit with an adaptive binary range coder under the context of
// the two preceding scores of its read. Old containers still carry it,
// so it decodes forever; nothing writes it (kernel_test.go keeps the
// encoder, to make legacy streams and as the oracle). The range coder
// follows the carry-propagating construction used by LZMA: 32-bit
// range, 12-bit adaptive probabilities, 5-bit adaptation shift.

import (
	"fmt"
	"sync"
)

const (
	probBits  = 12
	probInit  = 1 << (probBits - 1)
	adaptRate = 5
	topValue  = 1 << 24
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
// decodes (and across the shard workers that make them): the table
// dominates the kind-0 decoder's per-call allocation cost. Tables are
// re-initialized on checkout, so pool reuse is invisible to the stream.
var probsPool = sync.Pool{New: func() any { return new([numContexts]uint16) }}

func getProbs() *[numContexts]uint16 {
	p := probsPool.Get().(*[numContexts]uint16)
	for i := range p {
		p[i] = probInit
	}
	return p
}

// decodeBinary decodes a kind-0 body into flat, the scores of reads of
// the given lengths end to end, each plus off.
func decodeBinary(body, flat []byte, lengths []int, off byte) error {
	var dec rcDecoder
	dec.init(body)
	dec.off = off
	probs := getProbs()
	defer probsPool.Put(probs)
	total := len(flat)
	for _, l := range lengths {
		dec.decodeScores(flat[:l], probs)
		flat = flat[l:]
	}
	if dec.pos > len(body) {
		return fmt.Errorf("qual: stream ends before the scores do: %d bytes hold fewer than %d scores", len(body), total)
	}
	if dec.pos < len(body) {
		return fmt.Errorf("qual: %d of %d stream bytes left over after %d scores", len(body)-dec.pos, len(body), total)
	}
	return nil
}

type rcDecoder struct {
	rng  uint32
	code uint32
	in   []byte
	// pos counts the bytes asked for, so pos > len(in) records that the
	// decoder ran past the stream (next zero-fills there).
	pos int
	// off is added to every score decodeScores writes.
	off byte
}

// init primes a (possibly stack-allocated) decoder over in.
func (d *rcDecoder) init(in []byte) {
	*d = rcDecoder{rng: 0xFFFFFFFF, in: in}
	// The first output byte of the encoder is always 0 (cache priming);
	// consume it plus 4 code bytes.
	for i := 0; i < 5; i++ {
		d.code = d.code<<8 | uint32(d.next())
	}
}

func (d *rcDecoder) next() byte {
	var b byte
	if d.pos < len(d.in) {
		b = d.in[d.pos]
	}
	d.pos++
	return b
}

// decodeBit is the bit-at-a-time step: decodeScores runs it over the
// last bytes of a stream, and the tests use it as the kernel's oracle.
func (d *rcDecoder) decodeBit(p *uint16) int {
	bound := (d.rng >> probBits) * uint32(*p)
	var bit int
	if d.code < bound {
		d.rng = bound
		*p += (1<<probBits - *p) >> adaptRate
		bit = 0
	} else {
		d.code -= bound
		d.rng -= bound
		*p -= *p >> adaptRate
		bit = 1
	}
	for d.rng < topValue {
		d.code = d.code<<8 | uint32(d.next())
		d.rng <<= 8
	}
	return bit
}

// decodeScores decodes the len(q) scores of one read into q, each plus
// d.off: decodeBit's
// arithmetic, operation for operation, with the range state in locals
// for the whole read and a plain in[pos] where decodeBit calls next.
//
// A bit needs at most one shift. The adaptation rule holds every
// probability in [31, 4065] (p -= p>>5 stops at 31, p += (4096-p)>>5 at
// 4065), so from rng >= 2^24 either branch leaves
// rng >= (rng>>12)*31 >= 31*2^12 > 2^16, and one 8-bit shift restores
// rng >= 2^24. A score therefore reads at most symbolBits bytes — the
// one length test the fast loop makes per score; the last bytes of the
// stream go through decodeBit, whose next zero-fills past the end.
func (d *rcDecoder) decodeScores(q []byte, probs *[numContexts]uint16) {
	rng, code, pos, in, off := d.rng, d.code, d.pos, d.in, d.off
	q1, q2 := byte(0), byte(0)
	i := 0
	for ; i < len(q) && pos+symbolBits <= len(in); i++ {
		ctx := (*[treeNodes]uint16)(probs[contextBase(q1, q2):])
		node := 1
		for node < treeNodes {
			p := &ctx[node]
			bound := (rng >> probBits) * uint32(*p)
			if code < bound {
				rng = bound
				*p += (1<<probBits - *p) >> adaptRate
				node <<= 1
			} else {
				code -= bound
				rng -= bound
				*p -= *p >> adaptRate
				node = node<<1 | 1
			}
			if rng < topValue {
				code = code<<8 | uint32(in[pos])
				pos++
				rng <<= 8
			}
		}
		s := byte(node - treeNodes)
		q[i] = s + off
		q2, q1 = q1, s
	}
	d.rng, d.code, d.pos = rng, code, pos
	for ; i < len(q); i++ {
		base := contextBase(q1, q2)
		node := 1
		for node < treeNodes {
			node = node<<1 | d.decodeBit(&probs[base+node])
		}
		s := byte(node - treeNodes)
		q[i] = s + off
		q2, q1 = q1, s
	}
}
