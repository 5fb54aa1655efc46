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

import "sync"

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

// encodeBit codes bit under the adaptive probability *p (probability of
// the bit being 0, in 1/4096 units) and updates *p.
func (e *rcEncoder) encodeBit(p *uint16, bit int) {
	bound := (e.rng >> probBits) * uint32(*p)
	if bit == 0 {
		e.rng = bound
		*p += (1<<probBits - *p) >> adaptRate
	} else {
		e.low += uint64(bound)
		e.rng -= bound
		*p -= *p >> adaptRate
	}
	for e.rng < topValue {
		e.shiftLow()
		e.rng <<= 8
	}
}

func (e *rcEncoder) shiftLow() {
	if e.low < 0xFF000000 || e.low > 0xFFFFFFFF {
		temp := e.cache
		for {
			e.out = append(e.out, byte(uint64(temp)+(e.low>>32)))
			temp = 0xFF
			e.cacheSize--
			if e.cacheSize == 0 {
				break
			}
		}
		e.cache = byte(e.low >> 24)
	}
	e.cacheSize++
	e.low = (e.low << 8) & 0xFFFFFFFF
}

func (e *rcEncoder) flush() []byte {
	for i := 0; i < 5; i++ {
		e.shiftLow()
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
