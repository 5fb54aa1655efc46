package mapper

import (
	"fmt"

	"sage/internal/genome"
)

// oracleScratch is the matrix storage the int32 DP needs; it lived in
// mapScratch while fitAlign was the production kernel.
type oracleScratch struct {
	dp  []int32
	tb  []opKind
	ops []opKind
}

// fitAlign computes a banded alignment of read against a window of the
// consensus: the read is consumed end to end, and the window's prefix
// and suffix are free (a fitting alignment, the read may start anywhere
// in the window) unless pin fixes the start at the window's first base
// or the end at its last. It returns the window offset where the
// alignment begins, the edit list in read coordinates, and the unit cost.
//
// band bounds |windowCol - readRow| during the DP; callers size it from
// the observed seed-diagonal spread plus slack, which keeps the DP linear
// in read length, the same reason SAGe's hardware can stream (§5.2).
// The DP and traceback matrices live in sc and are reused across calls:
// every in-band cell is written before it is read (row 0 is initialized
// explicitly, later rows only consult in-band predecessors their row
// loops wrote), so stale contents from a previous alignment are never
// observed.
func fitAlign(sc *oracleScratch, read, window genome.Seq, band int, pin pinned) (consStart int, edits []Edit, cost int, err error) {
	n, m := len(read), len(window)
	if n == 0 && pin == 0 {
		return 0, nil, 0, nil
	}
	if m == 0 && pin == 0 {
		return 0, nil, 0, fmt.Errorf("mapper: empty consensus window")
	}
	if band < 1 {
		band = 1
	}
	width := 2*band + 1
	const inf = int32(1) << 30
	// dp[i][j-i+band]; rows 0..n, banded columns.
	need := (n + 1) * width
	if cap(sc.dp) < need {
		sc.dp = make([]int32, need)
		sc.tb = make([]opKind, need)
	}
	dp, tb := sc.dp[:need], sc.tb[:need]
	at := func(i, j int) int { return i*width + (j - i + band) }
	inBand := func(i, j int) bool { d := j - i; return d >= -band && d <= band && j >= 0 && j <= m }

	// Row 0: a free start anywhere in the window (fitting alignment), or
	// a pinned one at its first base, after which row 0 deletes.
	for j := 0; j <= m; j++ {
		if inBand(0, j) {
			dp[at(0, j)] = 0
			if pin&pinStart != 0 {
				dp[at(0, j)] = int32(j)
			}
		}
	}
	for i := 1; i <= n; i++ {
		lo, hi := i-band, i+band
		if lo < 0 {
			lo = 0
		}
		if hi > m {
			hi = m
		}
		for j := lo; j <= hi; j++ {
			best, op := inf, opMatch
			// Diagonal: consume read[i-1] and window[j-1].
			if j > 0 && inBand(i-1, j-1) {
				c := dp[at(i-1, j-1)]
				if read[i-1] != window[j-1] || read[i-1] > genome.BaseT {
					c++
					if c < best {
						best, op = c, opSub
					}
				} else if c < best {
					best, op = c, opMatch
				}
			}
			// Up: consume read[i-1] only (insertion in read).
			if inBand(i-1, j) {
				if c := dp[at(i-1, j)] + 1; c < best {
					best, op = c, opIns
				}
			}
			// Left: consume window[j-1] only (deletion from read).
			if j > 0 && inBand(i, j-1) {
				if c := dp[at(i, j-1)] + 1; c < best {
					best, op = c, opDel
				}
			}
			dp[at(i, j)] = best
			tb[at(i, j)] = op
		}
	}
	// A free end is the best cell in the last row, a pinned one the last.
	bestJ, bestC := -1, inf
	lo, hi := n-band, n+band
	if lo < 0 {
		lo = 0
	}
	if hi > m {
		hi = m
	}
	if pin&pinEnd != 0 {
		lo = max(lo, m)
	}
	for j := lo; j <= hi; j++ {
		if c := dp[at(n, j)]; c < bestC {
			bestC, bestJ = c, j
		}
	}
	if bestJ < 0 || bestC >= inf {
		return 0, nil, 0, fmt.Errorf("mapper: banded alignment found no feasible path (band=%d)", band)
	}

	// Traceback, collecting ops in reverse.
	ops := sc.ops[:0]
	i, j := n, bestJ
	for i > 0 {
		op := tb[at(i, j)]
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
	if pin&pinStart != 0 {
		for ; j > 0; j-- {
			ops = append(ops, opDel)
		}
	}
	consStart = j

	// Forward pass: merge runs of opIns/opDel into blocks (SAGe stores
	// the first mismatch position plus the block length, §5.1.1).
	readPos := 0
	for k := len(ops) - 1; k >= 0; {
		switch ops[k] {
		case opMatch:
			readPos++
			k--
		case opSub:
			edits = append(edits, Edit{
				ReadPos: readPos,
				Type:    genome.Substitution,
				Bases:   genome.Seq{read[readPos]},
			})
			readPos++
			k--
		case opIns:
			start := readPos
			for k >= 0 && ops[k] == opIns {
				readPos++
				k--
			}
			edits = append(edits, Edit{
				ReadPos: start,
				Type:    genome.Insertion,
				Bases:   read[start:readPos].Clone(),
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
	sc.ops = ops
	return consStart, edits, int(bestC), nil
}

// oracleAlignPiece is alignPiece as it was while fitAlign was the
// production kernel: a window of the cluster's diagonals extended by
// spread+BandPad on both sides, and a symmetric band wide enough to reach
// the alignment's start inside that window.
func (m *Mapper) oracleAlignPiece(sc *oracleScratch, oriented genome.Seq, start, end int, c cluster) (Segment, bool) {
	cons := m.idx.cons
	piece := oriented[start:end]
	spread := c.maxDiag - c.minDiag
	band := spread + m.cfg.BandPad
	// The window spans the diagonals of the cluster, extended by the
	// band on both sides.
	winLo := c.minDiag + start - band
	winHi := c.maxDiag + end + band
	if winLo < 0 {
		winLo = 0
	}
	if winHi > len(cons) {
		winHi = len(cons)
	}
	if winHi-winLo < 1 {
		return Segment{}, false
	}
	// fitAlign's band must cover the offset of the alignment start
	// within the window plus indel drift.
	fitBand := (c.minDiag + start - winLo) + spread + m.cfg.BandPad
	consStart, edits, cost, err := fitAlign(sc, piece, cons[winLo:winHi], fitBand, 0)
	if err != nil {
		return Segment{}, false
	}
	return Segment{
		ReadStart: start,
		ReadLen:   end - start,
		ConsPos:   winLo + consStart,
		Rev:       c.rev,
		Edits:     edits,
		Cost:      cost,
	}, true
}

// oracleBand returns the paths oracleAlignPiece lets fitAlign see: its
// band as diagonals counted from consensus position 0, starting no
// further left than the window's first column. Where the window
// is clipped at consensus position 0 the band is narrower than the
// cluster's own diagonals plus BandPad — the old geometry lost the
// clipped columns twice.
func (m *Mapper) oracleBand(start int, c cluster) diagBand {
	spread := c.maxDiag - c.minDiag
	winLo := max(c.minDiag+start-spread-m.cfg.BandPad, 0)
	fitBand := max((c.minDiag+start-winLo)+spread+m.cfg.BandPad, 1)
	return diagBand{winLo - fitBand, winLo + fitBand, winLo}
}

// alignBanded is the second tier as it was before anchored gap filling:
// one fitting alignment of the whole piece in its band (pieceBand). It
// is the oracle TestAnchoredMatchesBand holds alignAnchored to.
func (m *Mapper) alignBanded(sc *mapScratch, piece genome.Seq, start int, c cluster) (consPos int, edits []Edit, cost int, ok bool) {
	cons := m.idx.cons
	lo, hi := m.pieceBand(len(piece), start, c)
	winLo := max(lo, 0)
	winHi := min(hi+len(piece), len(cons))
	if winHi <= winLo {
		return 0, nil, 0, false
	}
	consStart, edits, cost, ok := bandAlign(sc, piece, cons[winLo:winHi], lo-winLo, hi-winLo, 0)
	return winLo + consStart, edits, cost, ok
}

// bandAlign runs the kernel on one read and window and turns its
// traceback into edits.
func bandAlign(sc *mapScratch, read, window genome.Seq, dLo, dHi int, pin pinned) (consStart int, edits []Edit, cost int, ok bool) {
	sc.ops = sc.ops[:0]
	if consStart, cost, ok = alignBand(sc, read, window, dLo, dHi, pin); ok {
		edits = editsFromOps(sc.ops, read)
	}
	return consStart, edits, cost, ok
}
