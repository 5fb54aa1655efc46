package mapper

import "sage/internal/genome"

// opKind is a traceback operation.
type opKind uint8

const (
	opMatch opKind = iota
	opSub
	opIns // read base not present in consensus
	opDel // consensus base not present in read
)

// opRun is n successive traceback operations of one kind. A traceback
// is a list of runs, last first, no two neighbours of one kind.
type opRun struct {
	op opKind
	n  int
}

// appendOps adds n operations op before the traceback's first.
func appendOps(ops []opRun, op opKind, n int) []opRun {
	if k := len(ops) - 1; k >= 0 && ops[k].op == op {
		ops[k].n += n
		return ops
	}
	return append(ops, opRun{op, n})
}

// verifyDiagonal is the first alignment tier: the read laid gap-free on
// the consensus at pos. It returns the substitution-only edit list when
// the Hamming distance is at most 1 — distance 0 cannot be beaten, and
// distance 1 can only be beaten by an exact copy of the read on another
// diagonal, which would have seeded that diagonal too and widened the
// cluster. N in the read always counts as a mismatch.
//
// The banded kernel ends its alignment in the lowest column that reaches
// the optimum, which turns a mismatch in the read's last base into a
// one-base insertion (and, before a homopolymer tail, a mismatch further
// in). The substitution costs 4 bits less in the encoded stream, so this
// tier keeps it.
func verifyDiagonal(read, cons genome.Seq, pos int) (edits []Edit, cost int, ok bool) {
	if pos < 0 || pos+len(read) > len(cons) {
		return nil, 0, false
	}
	at := -1
	for i, b := range read {
		if b != cons[pos+i] || b > genome.BaseT {
			if at >= 0 {
				return nil, 0, false
			}
			at = i
		}
	}
	if at < 0 {
		return nil, 0, true
	}
	return []Edit{{ReadPos: at, Type: genome.Substitution, Bases: genome.Seq{read[at]}}}, 1, true
}

// verifyReverse is verifyDiagonal of read's reverse complement, which it
// reads from read's end instead of building it.
func verifyReverse(read, cons genome.Seq, pos int) (edits []Edit, cost int, ok bool) {
	n := len(read)
	if pos < 0 || pos+n > len(cons) {
		return nil, 0, false
	}
	at := -1
	for i, c := range cons[pos : pos+n] {
		if b := read[n-1-i]; b > genome.BaseT || genome.BaseT-b != c {
			if at >= 0 {
				return nil, 0, false
			}
			at = i
		}
	}
	if at < 0 {
		return nil, 0, true
	}
	return []Edit{{ReadPos: at, Type: genome.Substitution, Bases: genome.Seq{genome.Complement(read[n-1-at])}}}, 1, true
}

// pinned says which ends of an alignment alignBand fixes. With neither,
// the alignment is fitting: the read is consumed end to end and the
// window's prefix and suffix are free.
type pinned uint8

const (
	// pinStart fixes the start at the window's first base: row 0 costs
	// one per window base consumed, as in a global alignment.
	pinStart pinned = 1 << iota
	// pinEnd fixes the end at the window's last base.
	pinEnd
)

// alignBand is the bit-parallel kernel of the second alignment tier: the
// cheapest alignment of read against window, with the ends pin fixes,
// restricted to the diagonals dLo ≤ column − row ≤ dHi, where row i
// means i read bases consumed and column j means j window bases
// consumed. The band must hold the corner, dLo ≤ 0 ≤ dHi: a caller whose
// band starts further right passes a shorter window; with pinEnd it must
// hold the other corner too, dLo ≤ len(window) − len(read) ≤ dHi. It
// appends the traceback to sc.ops, last operation first, and returns the
// window offset where the alignment begins and its unit cost; ok is false
// when the band holds no path. An empty window holds a fitting alignment
// of no read but the empty one.
//
// The matrix is never materialised. Each column is a bit-vector of
// vertical score deltas (Myers 1999) cut into 64-row blocks as in Edlib,
// and a column step touches only the blocks the band crosses, so the work
// is ⌈band/64⌉+1 word updates per window base (counted in sc.words).
// Cells outside the band count as unreachable, exactly as in a banded DP:
// below the band the vertical deltas are pinned to +1 and above it to −1
// after every column, which makes the out-of-band neighbour of an edge
// cell cost one more than the cell's diagonal predecessor — never a
// strict improvement. Row 0's horizontal delta, fed into the top block,
// is 0 for a free start and +1 for a pinned one.
//
// Traceback reads two stored words per block and column, D0 (diagonal
// delta is zero) and Pv (vertical delta is +1), and prefers the diagonal,
// then an insertion, then a deletion, from the window's last column with
// pinEnd and otherwise from the lowest column of the last row that holds
// the minimum; with pinStart, whatever it leaves of row 0 is deleted.
func alignBand(sc *mapScratch, read, window genome.Seq, dLo, dHi int, pin pinned) (consStart, cost int, ok bool) {
	n, m := len(read), len(window)
	if n == 0 && pin == 0 {
		return 0, 0, true
	}
	if dLo > 0 || dHi < 0 || (pin&pinEnd != 0 && (m-n < dLo || m-n > dHi)) {
		return 0, 0, false
	}
	if n == 0 {
		switch pin {
		case pinEnd: // the empty path at the window's end
			return m, 0, true
		case pinStart | pinEnd: // the window deleted
			if m > 0 {
				sc.ops = appendOps(sc.ops, opDel, m)
			}
			return 0, m, true
		}
		return 0, 0, true
	}
	if (m == 0 && pin == 0) || n+dLo > m {
		return 0, 0, false
	}

	nb := (n + 63) >> 6
	lastCol := min(m, n+dHi)
	// dHi−dLo+1 consecutive rows touch at most this many blocks.
	stride := min(nb, (dHi-dLo+63)>>6+1)
	sc.pv = growWords(sc.pv, nb)
	sc.mv = growWords(sc.mv, nb)
	sc.peq = growWords(sc.peq, 4*nb)
	sc.trace = growWords(sc.trace, 2*lastCol*stride)
	pv, mv, peq, trace := sc.pv, sc.mv, sc.peq, sc.trace
	for b := range pv {
		pv[b], mv[b] = ^uint64(0), 0
	}
	clear(peq)
	for i, c := range read {
		if c <= genome.BaseT {
			peq[(i>>6)<<2|int(c)] |= 1 << uint(i&63)
		}
	}
	top := uint64(0) // row 0's horizontal delta
	if pin&pinStart != 0 {
		top = 1
	}

	// edge follows the absolute score of the lowest in-band cell of each
	// column: down the band's lower diagonal through D0 until that cell
	// is in the last row, then along the last row through the horizontal
	// deltas. Column 0 holds row i at cost i.
	edgeRow := min(n, -dLo)
	edge := edgeRow
	best, bestCol := int(^uint(0)>>1), -1
	if edgeRow == n {
		best, bestCol = edge, 0
	}
	lastBit := uint((n - 1) & 63)
	words := 0
	for j := 1; j <= lastCol; j++ {
		// Rows rLo..rHi of this column are in band (row 0 too when
		// rLo ≤ 0, its horizontal delta top into the top block).
		rLo, rHi := j-dHi, min(n, j-dLo)
		bLo, hp := 0, top
		if rLo >= 1 {
			bLo, hp = (rLo-1)>>6, 1
		}
		bHi := (rHi - 1) >> 6
		words += bHi - bLo + 1
		c := window[j-1]
		t := trace[2*(j-1)*stride:]
		var hn, d0, ph, mh uint64
		for b := bLo; b <= bHi; b++ {
			var eq uint64
			if c <= genome.BaseT {
				eq = peq[b<<2|int(c)]
			}
			p, q := pv[b], mv[b]
			xv := eq | q
			eq |= hn
			xh := (((eq & p) + p) ^ p) | eq
			d0 = xh | q
			ph = q | ^(xh | p)
			mh = p & xh
			phs, mhs := ph<<1|hp, mh<<1|hn
			hp, hn = ph>>63, mh>>63
			p = mhs | ^(xv | phs)
			pv[b], mv[b] = p, phs&xv
			t[2*(b-bLo)], t[2*(b-bLo)+1] = d0, p
		}
		if edgeRow < n {
			edgeRow++ // == rHi
			if d0>>uint((rHi-1)&63)&1 == 0 {
				edge++
			}
		} else {
			edge += int(ph>>lastBit&1) - int(mh>>lastBit&1)
		}
		if edgeRow == n && edge < best {
			best, bestCol = edge, j
		}
		// Pin the out-of-band deltas the next column will read.
		if rLo >= 1 {
			bit := uint64(1) << uint((rLo-1)&63)
			mv[bLo] |= bit
			pv[bLo] &^= bit
		}
		if k := rHi - bHi<<6; k < 64 {
			below := ^uint64(0) << uint(k)
			pv[bHi] |= below
			mv[bHi] &^= below
		}
	}
	sc.words += words
	if pin&pinEnd != 0 {
		best, bestCol = edge, m // lastCol == m, and its lowest in-band cell is (n, m)
	}
	if bestCol < 0 {
		return 0, 0, false
	}

	ops := sc.ops
	i, j := n, bestCol
	for i > 0 {
		// Equal bases are matched without reading the stored words.
		match := 0
		for i > 0 && j > 0 && read[i-1] == window[j-1] && read[i-1] <= genome.BaseT {
			i, j, match = i-1, j-1, match+1
		}
		if match > 0 {
			ops = appendOps(ops, opMatch, match)
			continue
		}
		op := opIns // column 0 is reachable only by inserting
		if j > 0 {
			bLo := 0
			if rLo := j - dHi; rLo >= 1 {
				bLo = (rLo - 1) >> 6
			}
			t := trace[2*((j-1)*stride+(i-1)>>6-bLo):]
			bit := uint64(1) << uint((i-1)&63)
			switch {
			case t[0]&bit == 0:
				op = opSub
			case t[1]&bit == 0:
				op = opDel
			}
		}
		ops = appendOps(ops, op, 1)
		switch op {
		case opSub:
			i, j = i-1, j-1
		case opIns:
			i--
		case opDel:
			j--
		}
	}
	if pin&pinStart != 0 && j > 0 {
		ops, j = appendOps(ops, opDel, j), 0
	}
	sc.ops = ops
	return j, best, true
}

// editsFromOps turns a traceback into the edit list, with all edit
// bases in one backing array that nothing else references. A run of
// insertions or deletions is one block edit (SAGe stores the first
// mismatch position plus the block length, §5.1.1).
func editsFromOps(ops []opRun, read genome.Seq) []Edit {
	nEdits, nBases := 0, 0
	for _, r := range ops {
		switch r.op {
		case opSub:
			nEdits += r.n
			nBases += r.n
		case opIns:
			nEdits++
			nBases += r.n
		case opDel:
			nEdits++
		}
	}
	if nEdits == 0 {
		return nil
	}
	edits := make([]Edit, 0, nEdits)
	bases := make(genome.Seq, 0, nBases)
	readPos := 0
	for k := len(ops) - 1; k >= 0; k-- {
		switch r := ops[k]; r.op {
		case opMatch:
			readPos += r.n
		case opSub:
			for range r.n {
				bases = append(bases, read[readPos])
				edits = append(edits, Edit{
					ReadPos: readPos,
					Type:    genome.Substitution,
					Bases:   bases[len(bases)-1 : len(bases) : len(bases)],
				})
				readPos++
			}
		case opIns:
			at := len(bases)
			bases = append(bases, read[readPos:readPos+r.n]...)
			edits = append(edits, Edit{
				ReadPos: readPos,
				Type:    genome.Insertion,
				Bases:   bases[at:len(bases):len(bases)],
			})
			readPos += r.n
		case opDel:
			edits = append(edits, Edit{
				ReadPos: readPos,
				Type:    genome.Deletion,
				DelLen:  r.n,
			})
		}
	}
	return edits
}

// growWords returns s resized to n words, reallocating only to grow.
func growWords(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}
