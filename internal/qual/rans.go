package qual

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"sage/internal/fastq"
	"sage/internal/freelist"
)

// Kinds 1 and 2: static order-1 rANS coders. The encoder counts a
// block's scores once, stores one frequency table per context and codes
// the block backwards; the decoder reads a score with one table lookup
// and no data-dependent branch but the renormalisation. Kind 1 runs one
// state through the block. Kind 2, what Compress writes, splits the
// block's T scores into ransLanes lanes of consecutive scores, lane l
// holding [l·T/4, (l+1)·T/4), and gives each lane a state of its own;
// the decoder takes the lanes in lock-step, one score of each per step,
// so four chains of dependent loads and multiplies overlap where kind 1
// runs one. The lanes share one stream of renormalisation bytes, read
// step by step and within a step in lane order. docs/FORMAT.md specifies
// both; DESIGN.md "Quality stream (kind 1)" and "Quality stream
// (kind 2)" give the measurements behind them.
//
// The state is 32 bits and lives in [ransL, 256·ransL) between scores;
// frequencies are in units of 1/ransM and renormalisation moves whole
// bytes. The context of a score is the previous score of its read
// quantised to 16 buckets (q1>>2; scores are below 64), and 0 for the
// first score of a read and, in kind 2, of a lane.
const (
	ransScaleBits = 12
	ransM         = 1 << ransScaleBits
	ransL         = 1 << 23
	// ransMaxFreq caps every frequency, so every score costs at least
	// log2(4096/4064) = 0.0113 bit: maxScoresPerByte rests on it.
	ransMaxFreq  = ransM - 32
	ransContexts = 16
	numSymbols   = fastq.MaxQuality + 1
	ransLanes    = 4
)

func ransContext(q1 byte) int { return int(q1 >> 2) }

// ransEncoder is Compress's scratch: the counts, the normalised tables,
// the block's scores with their contexts and the backwards-filled body.
// Kept in a free list, so a block costs one allocation, the stream it
// returns.
type ransEncoder struct {
	counts [ransContexts][numSymbols]uint64
	freq   [ransContexts][numSymbols]uint32
	syms   [ransContexts * numSymbols]encSym
	// tables holds the serialised tables: at most a mask, then per
	// context a mask and a 2-byte uvarint per score.
	tables [2 + ransContexts*(8+2*numSymbols)]byte
	// coded holds each score of the block as context·64 + score, in
	// read order: the index of its encSym.
	coded []uint16
	body  []byte
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

// compress writes quals as one kind-2 stream, length word included.
func (e *ransEncoder) compress(quals [][]byte) ([]byte, error) {
	coded, err := e.count(quals, ransLanes)
	if err != nil {
		return nil, err
	}
	tables, buf := e.writeTables(len(coded), ransLanes)

	// Lane l codes coded[l·n/4 : (l+1)·n/4]. Lane 0 is the shortest; a
	// lane one score longer takes that score in a last step of its own,
	// so it is coded first, and every step in reverse lane order.
	n := len(coded)
	l0, l1, l2, l3 := coded[:n/4], coded[n/4:n/2], coded[n/2:3*n/4], coded[3*n/4:]
	k := len(l0)
	p := len(buf)
	x0, x1, x2, x3 := uint32(ransL), uint32(ransL), uint32(ransL), uint32(ransL)
	if len(l3) > k {
		p, x3 = e.sym(l3[k]).put(buf, p, x3)
	}
	if len(l2) > k {
		p, x2 = e.sym(l2[k]).put(buf, p, x2)
	}
	if len(l1) > k {
		p, x1 = e.sym(l1[k]).put(buf, p, x1)
	}
	l1, l2, l3 = l1[:k], l2[:k], l3[:k]
	for j := k - 1; j >= 0; j-- {
		p, x3 = e.sym(l3[j]).put(buf, p, x3)
		p, x2 = e.sym(l2[j]).put(buf, p, x2)
		p, x1 = e.sym(l1[j]).put(buf, p, x1)
		p, x0 = e.sym(l0[j]).put(buf, p, x0)
	}
	p -= 4 * ransLanes
	for l, x := range [ransLanes]uint32{x0, x1, x2, x3} {
		binary.BigEndian.PutUint32(buf[p+4*l:], x)
	}
	return stream(kindRANS4, tables, buf[p:]), nil
}

// count fills e.coded and e.counts from quals split into lanes lanes,
// and returns the block's coded scores.
func (e *ransEncoder) count(quals [][]byte, lanes int) ([]uint16, error) {
	n := 0
	for _, q := range quals {
		n += len(q)
	}
	if cap(e.coded) < n {
		e.coded = make([]uint16, n)
	}
	coded := e.coded[:n]
	e.counts = [ransContexts][numSymbols]uint64{}
	i := 0
	for _, q := range quals {
		c := uint16(0)
		for _, s := range q {
			if s > fastq.MaxQuality {
				return nil, fmt.Errorf("qual: score %d exceeds alphabet max %d", s, fastq.MaxQuality)
			}
			coded[i] = c<<6 | uint16(s)
			e.counts[c][s]++
			c = uint16(ransContext(s))
			i++
		}
	}
	// A lane starts in context 0, wherever in a read it falls.
	for l := 1; l < lanes && n > 0; l++ {
		v := coded[l*n/lanes]
		e.counts[v>>6][v&(numSymbols-1)]--
		e.counts[0][v&(numSymbols-1)]++
		coded[l*n/lanes] = v & (numSymbols - 1)
	}
	return coded, nil
}

// writeTables normalises the counts of a block of n scores, serialises
// the tables and prepares e.syms, and returns the tables with a buffer
// large enough for the states of lanes lanes and every byte their
// coding can emit.
func (e *ransEncoder) writeTables(n, lanes int) ([]byte, []byte) {
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
				e.syms[c*numSymbols+s] = newEncSym(f, cum)
				cum += f
			}
		}
	}
	// Each lane rounds its share of the bound up by a byte, and its
	// state takes four. A score emits at most two bytes (xMax is at
	// least 2¹⁹ and the state below 2³¹): put stores both candidates
	// every time and moves p past the ones that count, so a byte that
	// does not is overwritten by the next score's, or by a state, and
	// the last store needs two bytes to spare.
	if need := bound/8 + 5*lanes + 2; cap(e.body) < need {
		e.body = make([]byte, need)
	}
	return tables, e.body[:cap(e.body)]
}

// sym is the encoding step of v, a coded score (context·64 + score).
func (e *ransEncoder) sym(v uint16) *encSym { return &e.syms[v&(ransContexts*numSymbols-1)] }

// put codes a score into state x, the renormalisation bytes going below
// buf[p], and returns the new p and x.
func (sym *encSym) put(buf []byte, p int, x uint32) (int, uint32) {
	// k counts x ≥ xMax and x>>8 ≥ xMax: both below 2³¹, so the sign
	// bit of xMax−1−x is the comparison.
	k := (sym.xMax-1-x)>>31 + (sym.xMax-1-x>>8)>>31
	buf[p-1], buf[p-2] = byte(x), byte(x>>8)
	p -= int(k)
	x >>= 8 * k
	q, _ := bits.Mul64(uint64(x), sym.rcp)
	return p, x + sym.bias + uint32(q)*sym.cmpl
}

// stream puts the length word of kind and the body made of tables and
// coded in front of them, in the one allocation a block costs.
func stream(kind uint64, tables, coded []byte) []byte {
	bodyLen := len(tables) + len(coded)
	out := make([]byte, 8+bodyLen)
	binary.LittleEndian.PutUint64(out, kind<<lengthBits|uint64(bodyLen))
	copy(out[8+copy(out[8:], tables):], coded)
	return out
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

// ransDecoder holds the tables of one stream, a ransTable per context.
type ransDecoder struct {
	present uint16
	// off is added to every score the kernels write.
	off byte
	ctx [ransContexts]ransTable
}

// ransTable is one context's table: the frequency and cumulative start
// of each score, and the slot → score map. Together, so a score's
// lookups share one base address. readTables fills sym a word at a
// time; the 7 spare bytes take what runs past the last slot.
type ransTable struct {
	fs  [numSymbols]struct{ freq, start uint32 }
	sym [ransM + 7]byte
}

// Coder scratch kept between blocks (package freelist says why not a
// sync.Pool).
var (
	encoders = freelist.New[ransEncoder]()
	// A decoder taken from the list keeps the last stream's tables: a
	// block's tables cost neither an allocation nor the zeroing of
	// 74 KiB, since readTables overwrites every slot, frequency and start
	// a present context can reach, and nothing reads those of an absent
	// one.
	decoders = freelist.New[ransDecoder]()
)

var errEndsEarly = errors.New("qual: stream ends before the scores do")

// readTables parses the context mask and the tables, enforcing every
// rule on them, and returns the offset of the state block.
func (d *ransDecoder) readTables(body []byte) (int, error) {
	if len(body) < 2 {
		return 0, fmt.Errorf("qual: stream tables truncated")
	}
	d.present = binary.LittleEndian.Uint16(body)
	pos := 2
	for c := 0; c < ransContexts; c++ {
		if d.present>>c&1 == 0 {
			continue
		}
		if len(body)-pos < 8 {
			return 0, fmt.Errorf("qual: stream tables truncated in context %d", c)
		}
		mask := binary.LittleEndian.Uint64(body[pos:])
		pos += 8
		t := &d.ctx[c]
		sum := uint32(0)
		for m := mask; m != 0; m &= m - 1 {
			s := bits.TrailingZeros64(m)
			f, n := binary.Uvarint(body[pos:])
			if n <= 0 {
				return 0, fmt.Errorf("qual: stream tables truncated in context %d", c)
			}
			pos += n
			if f == 0 || f > ransMaxFreq {
				return 0, fmt.Errorf("qual: context %d score %d has frequency %d, outside [1, %d]", c, s, f, ransMaxFreq)
			}
			t.fs[s].freq, t.fs[s].start = uint32(f), sum
			first := sum
			if sum += uint32(f); sum > ransM {
				return 0, fmt.Errorf("qual: context %d frequencies sum past %d", c, ransM)
			}
			// In rising score order, a word that runs past a score's
			// slots is overwritten by the next score's.
			word := uint64(s) * 0x0101010101010101
			for i := first; i < sum; i += 8 {
				binary.LittleEndian.PutUint64(t.sym[i:], word)
			}
		}
		if sum != ransM {
			return 0, fmt.Errorf("qual: context %d frequencies sum to %d, want %d", c, sum, ransM)
		}
	}
	return pos, nil
}

// ransLane is one state's cursor through the block: the state, the
// context of its next score, where that score goes, and the read that
// holds it (r) and where that read ends — the next context restart.
type ransLane struct {
	x          uint32
	c          uint
	at, end, r int
}

// restart moves ln past the reads that end where its next score is,
// restarting its context, and returns how many scores it may take
// before the next restart. The lane must have a score left.
func (ln *ransLane) restart(lengths []int) int {
	for ln.at == ln.end {
		ln.r++
		ln.end += lengths[ln.r]
		ln.c = 0
	}
	return ln.end - ln.at
}

// decodeRANS decodes a kind-1 (lanes 1) or kind-2 (lanes ransLanes)
// body into flat, the scores of reads of the given lengths end to end,
// each plus off.
//
// It runs in chunks of steps in which no lane crosses a read boundary.
// A score reads at most two bytes (from x ≥ ransL the step leaves
// x ≥ 2¹¹), so the kernels test the input once a step, not once a byte.
// When fewer than two bytes a score are left, decoding goes on in a
// zero-padded copy of them, and reading past the real ones is an error
// found at the end. The lanes after the first may hold one score more
// than it, which a last step takes lane by lane.
func decodeRANS(body, flat []byte, lengths []int, lanes int, off byte) error {
	d := decoders.Get()
	defer decoders.Put(d)
	d.off = off
	pos, err := d.readTables(body)
	if err != nil {
		return err
	}
	if len(body)-pos < 4*lanes {
		return fmt.Errorf("qual: stream state truncated")
	}
	n := len(flat)
	var ls [ransLanes]ransLane
	r, end := -1, 0
	for l := range ls[:lanes] {
		x := binary.BigEndian.Uint32(body[pos+4*l:])
		if x < ransL || x >= ransL<<8 {
			return fmt.Errorf("qual: initial state %#x of lane %d outside [%#x, %#x)", x, l, ransL, ransL<<8)
		}
		at := l * n / lanes
		for end <= at && r+1 < len(lengths) {
			r++
			end += lengths[r]
		}
		ls[l] = ransLane{x: x, at: at, end: end, r: r}
	}

	in, pos := body[pos+4*lanes:], 0
	var pad [4 * ransLanes]byte
	real := -1 // once in is pad, how many of its bytes are the stream's
	// take decodes up to m steps of the lanes ls; when they stop short
	// for want of input, decoding goes on in pad.
	take := func(ls []ransLane, m int) error {
		var got int
		if len(ls) == ransLanes {
			got, pos, err = d.lockstep((*[ransLanes]ransLane)(ls), m, in, pos, flat)
		} else {
			got, pos, err = d.run(&ls[0], m, in, pos, flat)
		}
		if got < m && err == nil {
			if real >= 0 {
				return errEndsEarly
			}
			real = copy(pad[:], in[pos:])
			in, pos = pad[:], 0
		}
		return err
	}
	for k := n / lanes; ls[0].at < k; {
		m := k - ls[0].at
		for l := range ls[:lanes] {
			m = min(m, ls[l].restart(lengths))
		}
		if err := take(ls[:lanes], m); err != nil {
			return nameErr(err, len(body), n)
		}
	}
	for l := 1; l < lanes; l++ {
		for ls[l].at < (l+1)*n/lanes {
			ls[l].restart(lengths)
			if err := take(ls[l:l+1], 1); err != nil {
				return nameErr(err, len(body), n)
			}
		}
	}
	left := len(in) - pos
	if real >= 0 {
		left = real - pos
	}
	if left < 0 {
		return nameErr(errEndsEarly, len(body), n)
	}
	if left > 0 {
		return fmt.Errorf("qual: %d of %d stream bytes left over after %d scores", left, len(body), n)
	}
	for l := range ls[:lanes] {
		if ls[l].x != ransL {
			return fmt.Errorf("qual: final state %#x of lane %d after %d scores, want %#x", ls[l].x, l, n, ransL)
		}
	}
	return nil
}

// nameErr names the error of a body of size bytes that was to hold n
// scores.
func nameErr(err error, size, n int) error {
	if err == errEndsEarly {
		return fmt.Errorf("qual: stream ends before the scores do: %d bytes hold fewer than %d scores", size, n)
	}
	return err
}

func noTable(c uint) error {
	return fmt.Errorf("qual: a score in context %d, which has no table", c)
}

// decode takes one score out of state x under context c: the state
// before renormalisation, and the score.
func (d *ransDecoder) decode(x uint32, c uint) (uint32, byte) {
	slot := x & (ransM - 1)
	t := &d.ctx[c&(ransContexts-1)]
	s := t.sym[slot] & (numSymbols - 1)
	f := &t.fs[s]
	return f.freq*(x>>ransScaleBits) + slot - f.start, s
}

// refill renormalises x from in[pos:], which must hold two bytes.
func refill(x uint32, in []byte, pos int) (uint32, int) {
	if x < ransL {
		x = x<<8 | uint32(in[pos])
		pos++
		if x < ransL {
			x = x<<8 | uint32(in[pos])
			pos++
		}
	}
	return x, pos
}

// lockstep decodes up to m steps of the four lanes, lane 0 to 3 in each
// step, from in[pos:], while eight bytes are left for a step. It writes
// each score plus d.off; the next context is the score's own. It returns
// the steps taken and the position after them.
func (d *ransDecoder) lockstep(ls *[ransLanes]ransLane, m int, in []byte, pos int, flat []byte) (int, int, error) {
	x0, x1, x2, x3 := ls[0].x, ls[1].x, ls[2].x, ls[3].x
	c0, c1, c2, c3 := ls[0].c, ls[1].c, ls[2].c, ls[3].c
	o0 := flat[ls[0].at:][:m]
	o1 := flat[ls[1].at:][:m]
	o2 := flat[ls[2].at:][:m]
	o3 := flat[ls[3].at:][:m]
	pres, off := uint64(d.present), d.off
	j := 0
	for ; j < len(o0) && pos <= len(in)-2*ransLanes; j++ {
		// Contexts are below 16; the masks spare the shifts a range check.
		if pres>>(c0&15)&(pres>>(c1&15))&(pres>>(c2&15))&(pres>>(c3&15))&1 == 0 {
			for _, c := range [...]uint{c0, c1, c2, c3} {
				if pres>>c&1 == 0 {
					return j, pos, noTable(c)
				}
			}
		}
		var s byte
		x0, s = d.decode(x0, c0)
		o0[j], c0 = s+off, uint(s>>2)
		x0, pos = refill(x0, in, pos)
		x1, s = d.decode(x1, c1)
		o1[j], c1 = s+off, uint(s>>2)
		x1, pos = refill(x1, in, pos)
		x2, s = d.decode(x2, c2)
		o2[j], c2 = s+off, uint(s>>2)
		x2, pos = refill(x2, in, pos)
		x3, s = d.decode(x3, c3)
		o3[j], c3 = s+off, uint(s>>2)
		x3, pos = refill(x3, in, pos)
	}
	ls[0].x, ls[1].x, ls[2].x, ls[3].x = x0, x1, x2, x3
	ls[0].c, ls[1].c, ls[2].c, ls[3].c = c0, c1, c2, c3
	for l := range ls {
		ls[l].at += j
	}
	return j, pos, nil
}

// run is lockstep for one lane, while two bytes are left for a score.
func (d *ransDecoder) run(ln *ransLane, m int, in []byte, pos int, flat []byte) (int, int, error) {
	x, c := ln.x, ln.c
	o := flat[ln.at:][:m]
	j := 0
	pres, off := uint64(d.present), d.off
	for ; j < len(o) && pos <= len(in)-2; j++ {
		if pres>>(c&15)&1 == 0 {
			return j, pos, noTable(c)
		}
		var s byte
		x, s = d.decode(x, c)
		o[j], c = s+off, uint(s>>2)
		x, pos = refill(x, in, pos)
	}
	ln.x, ln.c, ln.at = x, c, ln.at+j
	return j, pos, nil
}
