package qual

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"sage/internal/fastq"
)

// Kind 1, the stream Compress writes: a static order-1 rANS coder. The
// encoder counts a block's scores once, stores one frequency table per
// context and codes the block backwards; the decoder reads a score with
// one table lookup and no data-dependent branch but the renormalisation.
// docs/FORMAT.md specifies the stream; DESIGN.md "Quality stream (kind
// 1)" gives the measurements behind the model.
//
// The state is 32 bits and lives in [ransL, 256·ransL) between scores;
// frequencies are in units of 1/ransM and renormalisation moves whole
// bytes. The context of a score is the previous score of its read
// quantised to 16 buckets (q1>>2; scores are below 64), and 0 for the
// first score of a read.
const (
	ransScaleBits = 12
	ransM         = 1 << ransScaleBits
	ransL         = 1 << 23
	// ransMaxFreq caps every frequency, so every score costs at least
	// log2(4096/4064) = 0.0113 bit: maxScoresPerByte rests on it.
	ransMaxFreq  = ransM - 32
	ransContexts = 16
	numSymbols   = fastq.MaxQuality + 1
)

func ransContext(q1 byte) int { return int(q1 >> 2) }

// ransEncoder is Compress's scratch: the counts, the normalised tables
// and the backwards-filled body. Pooled, so a block costs one
// allocation, the stream it returns.
type ransEncoder struct {
	counts [ransContexts][numSymbols]uint64
	freq   [ransContexts][numSymbols]uint32
	syms   [ransContexts][numSymbols]encSym
	// tables holds the serialised tables: at most a mask, then per
	// context a mask and a 2-byte uvarint per score.
	tables [2 + ransContexts*(8+2*numSymbols)]byte
	body   []byte
}

// encSym is one score's encoding step under one context, division-free
// (a fixed-point reciprocal, as in ryg's rans_byte): with
// rcp = ⌈2⁶⁴/freq⌉ the high word of x·rcp is x/freq for every state
// x < 2³¹ (the rounding adds less than 2⁻³³, a fraction at most
// 1 − 2⁻¹² needs 2⁻¹² to carry), and the step x/freq·M + x%freq + start
// is x + bias + q·(M − freq). For freq 1, ⌈2⁶⁴⌉ does not fit;
// rcp = 2⁶⁴−1 gives q = x−1 there, and bias absorbs the difference.
// xMax is the state at and above which a byte must go out first.
type encSym struct {
	rcp              uint64
	xMax, bias, cmpl uint32
}

func newEncSym(freq, start uint32) encSym {
	e := encSym{rcp: 1<<64 - 1, xMax: ransL >> ransScaleBits << 8 * freq, bias: start, cmpl: ransM - freq}
	if freq == 1 {
		e.bias = start + ransM - 1
	} else {
		e.rcp = (1<<64-1)/uint64(freq) + 1
	}
	return e
}

var ransEncPool = sync.Pool{New: func() any { return new(ransEncoder) }}

// compress writes quals as one kind-1 stream, length word included.
func (e *ransEncoder) compress(quals [][]byte) ([]byte, error) {
	e.counts = [ransContexts][numSymbols]uint64{}
	n := 0
	for _, q := range quals {
		q1 := byte(0)
		for _, s := range q {
			if s > fastq.MaxQuality {
				return nil, fmt.Errorf("qual: score %d exceeds alphabet max %d", s, fastq.MaxQuality)
			}
			e.counts[ransContext(q1)][s]++
			q1 = s
		}
		n += len(q)
	}

	var present uint16
	for c := range e.counts {
		if normalise(&e.counts[c], &e.freq[c]) {
			present |= 1 << c
		}
	}
	tables := binary.LittleEndian.AppendUint16(e.tables[:0], present)
	// The bytes the scores emit are bounded before they are coded: a
	// score of frequency f is coded from a state of at least 2¹¹·f, so
	// it grows the state by at most log2(M/f) + log2(1 + 2⁻¹¹) bits,
	// which 13 − len(f) bits and a bit per 1024 scores cover.
	bound := n >> 10
	for c := range e.freq {
		if present>>c&1 == 0 {
			continue
		}
		for s, f := range e.freq[c] {
			bound += int(e.counts[c][s]) * (ransScaleBits + 1 - bits.Len32(f))
		}
		var mask uint64
		for s, f := range e.freq[c] {
			if f != 0 {
				mask |= 1 << s
			}
		}
		tables = binary.LittleEndian.AppendUint64(tables, mask)
		cum := uint32(0)
		for s, f := range e.freq[c] {
			if f != 0 {
				tables = binary.AppendUvarint(tables, uint64(f))
				e.syms[c][s] = newEncSym(f, cum)
				cum += f
			}
		}
	}

	// A score emits at most two bytes (xMax is at least 2¹⁹ and the
	// state below 2³¹), the state four. Both candidate bytes are stored
	// every time and p moves past the ones that count: a byte that does
	// not is overwritten by the next score's, or by the state, and the
	// last store stays in the buffer.
	if need := bound/8 + 1 + 4 + 2; cap(e.body) < need {
		e.body = make([]byte, need)
	}
	buf := e.body[:cap(e.body)]
	p := len(buf)
	x := uint32(ransL)
	for r := len(quals) - 1; r >= 0; r-- {
		q := quals[r]
		for i := len(q) - 1; i >= 0; i-- {
			c := 0
			if i > 0 {
				c = ransContext(q[i-1])
			}
			sym := &e.syms[c][q[i]&(numSymbols-1)]
			// k counts x ≥ xMax and x>>8 ≥ xMax: both below 2³¹, so the
			// sign bit of xMax−1−x is the comparison.
			k := (sym.xMax-1-x)>>31 + (sym.xMax-1-x>>8)>>31
			buf[p-1], buf[p-2] = byte(x), byte(x>>8)
			p -= int(k)
			x >>= 8 * k
			q, _ := bits.Mul64(uint64(x), sym.rcp)
			x += sym.bias + uint32(q)*sym.cmpl
		}
	}
	p -= 4
	binary.BigEndian.PutUint32(buf[p:], x)

	bodyLen := len(tables) + len(buf) - p
	out := make([]byte, 8+bodyLen)
	binary.LittleEndian.PutUint64(out, kindRANS<<lengthBits|uint64(bodyLen))
	copy(out[8+copy(out[8:], tables):], buf[p:])
	return out, nil
}

// normalise scales one context's counts to frequencies that obey the
// reader's rules — each present score in [1, ransMaxFreq], a sum of
// ransM — and reports whether the context occurs at all. Rounding
// leaves the sum a few units off; each unit then goes to, or comes
// from, the score whose coded size it changes least (count/freq is the
// marginal cost). A context with one score needs a second for the
// last 32 units, a neighbour that is never coded.
func normalise(counts *[numSymbols]uint64, freq *[numSymbols]uint32) bool {
	var total uint64
	for _, n := range counts {
		total += n
	}
	*freq = [numSymbols]uint32{}
	if total == 0 {
		return false
	}
	sum := uint32(0)
	for s, n := range counts {
		if n != 0 {
			f := uint32(min(max((n*ransM+total/2)/total, 1), ransMaxFreq))
			freq[s] = f
			sum += f
		}
	}
	for ; sum < ransM; sum++ {
		best := -1
		for s, n := range counts {
			if n != 0 && freq[s] < ransMaxFreq && (best < 0 || n*uint64(freq[best]) > counts[best]*uint64(freq[s])) {
				best = s
			}
		}
		if best < 0 {
			// One score, capped: the rest goes to a neighbour.
			for s, f := range freq {
				if f != 0 {
					freq[s^1] = ransM - sum
					break
				}
			}
			return true
		}
		freq[best]++
	}
	for ; sum > ransM; sum-- {
		best := -1
		for s, n := range counts {
			if freq[s] > 1 && (best < 0 || n*uint64(freq[best]-1) < counts[best]*uint64(freq[s]-1)) {
				best = s
			}
		}
		freq[best]--
	}
	return true
}

// ransDecoder holds the tables of one stream: for each context, the
// frequency and cumulative start of each score and the slot → score
// table. It lives on the decoding goroutine's stack, so a block's
// tables cost no allocation, cold or warm.
type ransDecoder struct {
	present uint16
	freq    [ransContexts][numSymbols]uint32
	start   [ransContexts][numSymbols]uint32
	sym     [ransContexts]slotTable
}

// slotTable maps a slot to its score. The 7 spare bytes let readTables
// fill it a word at a time.
type slotTable [ransM + 7]byte

var errEndsEarly = errors.New("qual: stream ends before the scores do")

// readTables parses the context mask, the tables and the initial state,
// enforcing every rule on them, and returns the state and the offset of
// the first renormalisation byte.
func (d *ransDecoder) readTables(body []byte) (uint32, int, error) {
	if len(body) < 2 {
		return 0, 0, fmt.Errorf("qual: stream tables truncated")
	}
	d.present = binary.LittleEndian.Uint16(body)
	pos := 2
	for c := 0; c < ransContexts; c++ {
		if d.present>>c&1 == 0 {
			continue
		}
		if len(body)-pos < 8 {
			return 0, 0, fmt.Errorf("qual: stream tables truncated in context %d", c)
		}
		mask := binary.LittleEndian.Uint64(body[pos:])
		pos += 8
		sum := uint32(0)
		for m := mask; m != 0; m &= m - 1 {
			s := bits.TrailingZeros64(m)
			f, n := binary.Uvarint(body[pos:])
			if n <= 0 {
				return 0, 0, fmt.Errorf("qual: stream tables truncated in context %d", c)
			}
			pos += n
			if f == 0 || f > ransMaxFreq {
				return 0, 0, fmt.Errorf("qual: context %d score %d has frequency %d, outside [1, %d]", c, s, f, ransMaxFreq)
			}
			d.freq[c][s], d.start[c][s] = uint32(f), sum
			if sum += uint32(f); sum > ransM {
				return 0, 0, fmt.Errorf("qual: context %d frequencies sum past %d", c, ransM)
			}
			// In rising score order, a word that runs past a score's
			// slots is overwritten by the next score's.
			word := uint64(s) * 0x0101010101010101
			for i := d.start[c][s]; i < sum; i += 8 {
				binary.LittleEndian.PutUint64(d.sym[c][i:], word)
			}
		}
		if sum != ransM {
			return 0, 0, fmt.Errorf("qual: context %d frequencies sum to %d, want %d", c, sum, ransM)
		}
	}
	if len(body)-pos < 4 {
		return 0, 0, fmt.Errorf("qual: stream state truncated")
	}
	x := binary.BigEndian.Uint32(body[pos:])
	if x < ransL || x >= ransL<<8 {
		return 0, 0, fmt.Errorf("qual: initial state %#x outside [%#x, %#x)", x, ransL, ransL<<8)
	}
	return x, pos + 4, nil
}

// decodeRead decodes the len(q) scores of one read into q from state x
// at in[pos], and returns the state and position after them. A score
// reads at most two bytes (from x ≥ ransL the step leaves x ≥ 2¹¹), so
// one test per read admits the unchecked loop; a read that might run
// past the end takes the checked one.
func (d *ransDecoder) decodeRead(q []byte, x uint32, in []byte, pos int) (uint32, int, error) {
	c := 0
	if pos+2*len(q) <= len(in) {
		for i := range q {
			if d.present>>c&1 == 0 {
				return x, pos, fmt.Errorf("qual: a score in context %d, which has no table", c)
			}
			slot := x & (ransM - 1)
			s := d.sym[c][slot]
			x = d.freq[c][s&(numSymbols-1)]*(x>>ransScaleBits) + slot - d.start[c][s&(numSymbols-1)]
			if x < ransL {
				x = x<<8 | uint32(in[pos])
				pos++
				if x < ransL {
					x = x<<8 | uint32(in[pos])
					pos++
				}
			}
			q[i] = s
			c = ransContext(s)
		}
		return x, pos, nil
	}
	for i := range q {
		if d.present>>c&1 == 0 {
			return x, pos, fmt.Errorf("qual: a score in context %d, which has no table", c)
		}
		slot := x & (ransM - 1)
		s := d.sym[c][slot]
		x = d.freq[c][s&(numSymbols-1)]*(x>>ransScaleBits) + slot - d.start[c][s&(numSymbols-1)]
		for x < ransL {
			if pos == len(in) {
				return x, pos, errEndsEarly
			}
			x = x<<8 | uint32(in[pos])
			pos++
		}
		q[i] = s
		c = ransContext(s)
	}
	return x, pos, nil
}

// decodeRANS decodes a kind-1 body into out, whose reads hold total
// scores.
func decodeRANS(body []byte, out [][]byte, total int) error {
	var d ransDecoder
	x, pos, err := d.readTables(body)
	if err != nil {
		return err
	}
	for _, q := range out {
		if x, pos, err = d.decodeRead(q, x, body, pos); err != nil {
			if err == errEndsEarly {
				return fmt.Errorf("qual: stream ends before the scores do: %d bytes hold fewer than %d scores", len(body), total)
			}
			return err
		}
	}
	if pos < len(body) {
		return fmt.Errorf("qual: %d of %d stream bytes left over after %d scores", len(body)-pos, len(body), total)
	}
	if x != ransL {
		return fmt.Errorf("qual: final state %#x after %d scores, want %#x", x, total, ransL)
	}
	return nil
}
