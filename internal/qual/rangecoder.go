// Package qual implements SAGe's lossless quality-score codec (§5.1.5).
//
// Quality scores lack the long-range redundancy of DNA bases, so SAGe —
// like Spring and the other genomic compressors it cites — compresses them
// as a separate stream with a context model: each Phred score is coded
// bit-by-bit with an adaptive binary range coder, conditioned on the two
// preceding scores in the read. Decompression runs on the host CPU in the
// paper; the codec here backs both the SAGe container and the Spring-like
// baseline, so their quality ratios match (Table 2: "SAGe's quality score
// (de)compression is based on the same software used in [Spring]").
package qual

// The binary range coder follows the carry-propagating construction used
// by LZMA: 32-bit range, 12-bit adaptive probabilities, 5-bit adaptation
// shift.

import (
	"fmt"
	"sync"

	"sage/internal/fastq"
)

const (
	probBits  = 12
	probInit  = 1 << (probBits - 1)
	adaptRate = 5
	topValue  = 1 << 24
)

type rcEncoder struct {
	low       uint64
	rng       uint32
	cache     byte
	cacheSize int64
	out       []byte
}

// encPool recycles encoders (and with them the grown output buffer)
// across calls and workers. flush hands out a view of e.out, so callers
// must copy the body before putEncoder returns the buffer to the pool.
var encPool = sync.Pool{New: func() any { return new(rcEncoder) }}

func getEncoder() *rcEncoder {
	e := encPool.Get().(*rcEncoder)
	e.low, e.rng, e.cache, e.cacheSize, e.out = 0, 0xFFFFFFFF, 0, 1, e.out[:0]
	return e
}

func putEncoder(e *rcEncoder) { encPool.Put(e) }

// encodeScores codes the scores of one read under probs and adapts it:
// the bit-at-a-time coder's arithmetic (kernel_test.go keeps that loop as
// the oracle) with low and rng in locals and no data-dependent branch in
// the bit step. The encoder knows the bit, so mask = -bit selects the
// half of the range, the increment of low and the adaptation target:
// p -= p>>5 is p += (31-p)>>5 under an arithmetic shift, the mirror of
// p += (4096-p)>>5. As in decodeScores, probabilities stay in [31, 4065],
// so one 8-bit shift restores rng >= 2^24: renormalisation is an if.
func (e *rcEncoder) encodeScores(q []byte, probs *[numContexts]uint16) error {
	low, rng := e.low, e.rng
	q1, q2 := byte(0), byte(0)
	for _, s := range q {
		if s > fastq.MaxQuality {
			return fmt.Errorf("qual: score %d exceeds alphabet max %d", s, fastq.MaxQuality)
		}
		ctx := (*[treeNodes]uint16)(probs[contextBase(q1, q2):])
		node := uint32(1)
		for i := symbolBits - 1; i >= 0; i-- {
			bit := uint32(s>>uint(i)) & 1
			mask := -bit
			p := int32(ctx[node])
			bound := (rng >> probBits) * uint32(p)
			low += uint64(bound & mask)
			rng = bound + (rng-2*bound)&mask
			target := 1<<probBits - int32(mask&(1<<probBits-(1<<adaptRate-1)))
			ctx[node] = uint16(p + (target-p)>>adaptRate)
			node = node<<1 | bit
			if rng < topValue {
				low = e.shiftLow(low)
				rng <<= 8
			}
		}
		q2, q1 = q1, s
	}
	e.low, e.rng = low, rng
	return nil
}

// shiftLow moves the top byte of low into the stream, or into the run of
// 0xFF bytes a later carry may still change, and returns low shifted.
func (e *rcEncoder) shiftLow(low uint64) uint64 {
	if low < 0xFF000000 || low > 0xFFFFFFFF {
		temp := e.cache
		for {
			e.out = append(e.out, byte(uint64(temp)+(low>>32)))
			temp = 0xFF
			e.cacheSize--
			if e.cacheSize == 0 {
				break
			}
		}
		e.cache = byte(low >> 24)
	}
	e.cacheSize++
	return (low << 8) & 0xFFFFFFFF
}

func (e *rcEncoder) flush() []byte {
	for i := 0; i < 5; i++ {
		e.low = e.shiftLow(e.low)
	}
	return e.out
}

type rcDecoder struct {
	rng  uint32
	code uint32
	in   []byte
	// pos counts the bytes asked for, so pos > len(in) records that the
	// decoder ran past the stream (next zero-fills there).
	pos int
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

// decodeScores decodes the len(q) scores of one read into q: decodeBit's
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
	rng, code, pos, in := d.rng, d.code, d.pos, d.in
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
		q[i] = byte(node - treeNodes)
		q2, q1 = q1, q[i]
	}
	d.rng, d.code, d.pos = rng, code, pos
	for ; i < len(q); i++ {
		base := contextBase(q1, q2)
		node := 1
		for node < treeNodes {
			node = node<<1 | d.decodeBit(&probs[base+node])
		}
		q[i] = byte(node - treeNodes)
		q2, q1 = q1, q[i]
	}
}
