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

// alignBand is the second alignment tier: an exact fitting alignment of
// read against window — read consumed end to end, window prefix and
// suffix free — restricted to the diagonals dLo ≤ column − row ≤ dHi,
// where row i means i read bases consumed and column j means j window
// bases consumed. The band must hold the corner, dLo ≤ 0 ≤ dHi: a caller
// whose band starts further right passes a shorter window. It returns
// the window offset where the alignment begins, the edit list in read
// coordinates, and the unit cost; ok is false when the band holds no
// end-to-end path.
//
// The matrix is never materialised. Each column is a bit-vector of
// vertical score deltas (Myers 1999) cut into 64-row blocks as in Edlib,
// and a column step touches only the blocks the band crosses, so the work
// is ⌈band/64⌉+1 word updates per consensus base. Cells outside the band
// count as unreachable, exactly as in a banded DP: below the band the
// vertical deltas are pinned to +1 and above it to −1 after every column,
// which makes the out-of-band neighbour of an edge cell cost one more
// than the cell's diagonal predecessor — never a strict improvement.
//
// Traceback reads two stored words per block and column, D0 (diagonal
// delta is zero) and Pv (vertical delta is +1), and prefers the diagonal,
// then an insertion, then a deletion, from the lowest column of the last
// row that holds the minimum. Runs of insertions and deletions merge into
// blocks (SAGe stores the first mismatch position plus the block length,
// §5.1.1).
func alignBand(sc *mapScratch, read, window genome.Seq, dLo, dHi int) (consStart int, edits []Edit, cost int, ok bool) {
	n, m := len(read), len(window)
	if n == 0 {
		return 0, nil, 0, true
	}
	if dLo > 0 || dHi < 0 || m == 0 || n+dLo > m {
		return 0, nil, 0, false
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
	for j := 1; j <= lastCol; j++ {
		// Rows rLo..rHi of this column are in band (row 0 too when
		// rLo ≤ 0: a free start, horizontal delta 0 into the top block).
		rLo, rHi := j-dHi, min(n, j-dLo)
		bLo, hp := 0, uint64(0)
		if rLo >= 1 {
			bLo, hp = (rLo-1)>>6, 1
		}
		bHi := (rHi - 1) >> 6
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
	if bestCol < 0 {
		return 0, nil, 0, false
	}

	ops := sc.ops[:0]
	i, j := n, bestCol
	for i > 0 {
		op := opIns // column 0 is reachable only by inserting
		if j > 0 {
			bLo := 0
			if rLo := j - dHi; rLo >= 1 {
				bLo = (rLo - 1) >> 6
			}
			t := trace[2*((j-1)*stride+(i-1)>>6-bLo):]
			bit := uint64(1) << uint((i-1)&63)
			switch r := read[i-1]; {
			case r == window[j-1] && r <= genome.BaseT:
				op = opMatch
			case t[0]&bit == 0:
				op = opSub
			case t[1]&bit == 0:
				op = opDel
			}
		}
		ops = append(ops, op)
		switch op {
		case opMatch, opSub:
			i, j = i-1, j-1
		case opIns:
			i--
		case opDel:
			j--
		}
	}
	sc.ops = ops
	return j, editsFromOps(ops, read), best, true
}

// editsFromOps turns a reversed traceback into the edit list, with all
// edit bases in one backing array that nothing else references.
func editsFromOps(ops []opKind, read genome.Seq) []Edit {
	nEdits, nBases := 0, 0
	prev := opMatch
	for k := len(ops) - 1; k >= 0; k-- {
		op := ops[k]
		if op == opSub || (op != opMatch && op != prev) {
			nEdits++
		}
		if op == opSub || op == opIns {
			nBases++
		}
		prev = op
	}
	if nEdits == 0 {
		return nil
	}
	edits := make([]Edit, 0, nEdits)
	bases := make(genome.Seq, 0, nBases)
	readPos := 0
	for k := len(ops) - 1; k >= 0; {
		switch ops[k] {
		case opMatch:
			readPos++
			k--
		case opSub:
			bases = append(bases, read[readPos])
			edits = append(edits, Edit{
				ReadPos: readPos,
				Type:    genome.Substitution,
				Bases:   bases[len(bases)-1 : len(bases) : len(bases)],
			})
			readPos++
			k--
		case opIns:
			start := readPos
			for k >= 0 && ops[k] == opIns {
				readPos++
				k--
			}
			at := len(bases)
			bases = append(bases, read[start:readPos]...)
			edits = append(edits, Edit{
				ReadPos: start,
				Type:    genome.Insertion,
				Bases:   bases[at:len(bases):len(bases)],
			})
		case opDel:
			dl := 0
			for k >= 0 && ops[k] == opDel {
				dl++
				k--
			}
			edits = append(edits, Edit{
				ReadPos: readPos,
				Type:    genome.Deletion,
				DelLen:  dl,
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
