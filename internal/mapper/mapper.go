package mapper

import (
	"cmp"
	"slices"
	"sync"

	"sage/internal/genome"
)

// MaxChimericSegments is the paper's N for top-N matching positions of
// chimeric reads (§5.1.2 footnote 7: "We use N = 3").
const MaxChimericSegments = 3

// Config parameterizes the mapper.
type Config struct {
	Index IndexConfig
	// SeedStep samples every SeedStep-th read k-mer during seeding.
	SeedStep int
	// DiagSlack merges seed hits whose diagonals differ by at most this
	// much into one cluster (accommodates indel drift).
	DiagSlack int
	// MinSeeds is the minimum cluster size to consider a candidate.
	MinSeeds int
	// BandPad is added to the observed diagonal spread to size the
	// alignment band.
	BandPad int
	// MaxCostFrac rejects alignments costing more than this fraction of
	// the read length; such reads go to the unmapped stream.
	MaxCostFrac float64
	// ChimeraMinSpan is the minimum read span (bases) a secondary
	// cluster must cover to justify a chimeric split.
	ChimeraMinSpan int
	// DisableChimeric restricts every read to its single best matching
	// position, the pre-O3 behaviour of prior compressors the paper
	// compares against in Fig. 17 (§5.1.2).
	DisableChimeric bool
}

// DefaultConfig returns mapper settings that handle both short accurate
// reads and long error-prone reads.
func DefaultConfig() Config {
	return Config{
		Index:          DefaultIndexConfig(),
		SeedStep:       4,
		DiagSlack:      48,
		MinSeeds:       2,
		BandPad:        40,
		MaxCostFrac:    0.35,
		ChimeraMinSpan: 120,
	}
}

// Mapper maps reads against a fixed consensus.
type Mapper struct {
	cfg Config
	idx *Index
}

// New builds a mapper over cons.
func New(cons genome.Seq, cfg Config) (*Mapper, error) {
	idx, err := NewIndex(cons, cfg.Index)
	if err != nil {
		return nil, err
	}
	if cfg.SeedStep < 1 {
		cfg.SeedStep = 1
	}
	if cfg.MaxCostFrac <= 0 {
		cfg.MaxCostFrac = 0.35
	}
	return &Mapper{cfg: cfg, idx: idx}, nil
}

// Consensus returns the consensus the mapper aligns against.
func (m *Mapper) Consensus() genome.Seq { return m.idx.cons }

// seedHit is one k-mer match between read and consensus.
type seedHit struct {
	readPos int
	diag    int // consPos - readPos
}

// cluster is a group of co-diagonal seed hits.
type cluster struct {
	rev              bool
	minDiag, maxDiag int
	minRead, maxRead int
	count            int
}

func (c *cluster) span() int { return c.maxRead - c.minRead + 1 }

// mapScratch holds one Map call's working buffers: the reverse
// complement, seed hits, clusters, and the bit-parallel kernel's state —
// the read's match masks (peq, four words per 64-row block), the current
// column's vertical delta vectors (pv, mv), the two words per block and
// column the traceback reads (trace), and the traceback itself (ops).
// The kernel's share is a few words per consensus base of the longest
// piece aligned so far. It is pooled across calls and goroutines — a
// Mapper is read-only and shared by every shard worker, so the scratch
// (not the Mapper) carries all mutable state. Nothing in a returned
// Alignment aliases the scratch.
type mapScratch struct {
	rc       genome.Seq
	hits     []seedHit
	clusters []cluster
	peq      []uint64
	pv, mv   []uint64
	trace    []uint64
	ops      []opKind
}

var mapScratchPool = sync.Pool{New: func() any { return new(mapScratch) }}

// Map aligns one read against the consensus. Reads with no adequate
// alignment return Alignment{Mapped: false}. Map is safe for concurrent
// use: the Mapper is never mutated.
func (m *Mapper) Map(read genome.Seq) Alignment {
	if len(read) < m.idx.k {
		return Alignment{}
	}
	sc := mapScratchPool.Get().(*mapScratch)
	defer mapScratchPool.Put(sc)
	sc.rc = genome.AppendReverseComplement(sc.rc[:0], read)
	rc := sc.rc
	sc.clusters = m.collectClusters(sc.clusters[:0], sc, read, false)
	sc.clusters = m.collectClusters(sc.clusters, sc, rc, true)
	clusters := sc.clusters
	if len(clusters) == 0 {
		return Alignment{}
	}
	slices.SortFunc(clusters, compareClusters)

	// Candidate 1: whole-read alignment on the best cluster.
	var candidates []Alignment
	if seg, ok := m.alignWhole(sc, read, rc, clusters[0]); ok {
		candidates = append(candidates, Alignment{Mapped: true, Segments: []Segment{seg}})
	}
	// Candidate 2: chimeric split across up to MaxChimericSegments
	// clusters (§5.1.2, Fig. 9). The paper keeps whichever encoding
	// yields fewer mismatches; segmentPenalty charges for the extra
	// matching position each additional segment must store.
	if !m.cfg.DisableChimeric {
		if segs, ok := m.alignChimeric(sc, read, rc, clusters); ok {
			candidates = append(candidates, Alignment{Mapped: true, Segments: segs})
		}
	}
	const segmentPenalty = 16
	bestCost := int(^uint(0) >> 1)
	var best Alignment
	for _, c := range candidates {
		cost := segmentPenalty * (len(c.Segments) - 1)
		for _, s := range c.Segments {
			cost += s.Cost
		}
		if cost < bestCost {
			bestCost, best = cost, c
		}
	}
	if !best.Mapped || float64(bestCost) > m.cfg.MaxCostFrac*float64(len(read)) {
		return Alignment{}
	}
	return best
}

// compareClusters orders candidate clusters by seed count, most first.
// Ties go to the forward strand, then to the lower diagonal, so the order
// — and with it which of two equally seeded placements is aligned — is
// total and does not depend on the sort algorithm.
func compareClusters(a, b cluster) int {
	if a.count != b.count {
		return b.count - a.count
	}
	if a.rev != b.rev {
		if b.rev {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.minDiag, b.minDiag)
}

// collectClusters seeds oriented as given, clusters hits by diagonal,
// and appends the clusters to out.
//
// Seeding is guided: once a probe has returned exactly one position, that
// hit's diagonal is the strand's guide, and a later seed whose bases equal
// the consensus on the guide, at a position the index holds as its k-mer's
// only one, is that k-mer's hit without a probe — Lookup could return
// nothing else. Every other seed probes, so the hits are the probe's.
func (m *Mapper) collectClusters(out []cluster, sc *mapScratch, oriented genome.Seq, rev bool) []cluster {
	idx, k := m.idx, m.idx.k
	hits := sc.hits[:0]
	guide, guided := 0, false
	ForEachKmer(oriented, k, m.cfg.SeedStep, func(p int, code uint64) {
		if q := guide + p; guided && uint(q) < uint(len(idx.cons)) && idx.unique[q>>6]&(1<<(q&63)) != 0 &&
			string(oriented[p:p+k]) == string(idx.cons[q:q+k]) {
			hits = append(hits, seedHit{readPos: p, diag: guide})
			return
		}
		cps := idx.Lookup(code)
		for _, cp := range cps {
			hits = append(hits, seedHit{readPos: p, diag: int(cp) - p})
		}
		if len(cps) == 1 {
			guide, guided = int(cps[0])-p, true
		}
	})
	sc.hits = hits
	if len(hits) == 0 {
		return out
	}
	slices.SortFunc(hits, func(a, b seedHit) int { return cmp.Compare(a.diag, b.diag) })
	cur := cluster{rev: rev, minDiag: hits[0].diag, maxDiag: hits[0].diag,
		minRead: hits[0].readPos, maxRead: hits[0].readPos, count: 1}
	for _, h := range hits[1:] {
		if h.diag-cur.maxDiag <= m.cfg.DiagSlack {
			cur.maxDiag = h.diag
			cur.count++
			if h.readPos < cur.minRead {
				cur.minRead = h.readPos
			}
			if h.readPos > cur.maxRead {
				cur.maxRead = h.readPos
			}
		} else {
			if cur.count >= m.cfg.MinSeeds {
				out = append(out, cur)
			}
			cur = cluster{rev: rev, minDiag: h.diag, maxDiag: h.diag,
				minRead: h.readPos, maxRead: h.readPos, count: 1}
		}
	}
	if cur.count >= m.cfg.MinSeeds {
		out = append(out, cur)
	}
	return out
}

// alignWhole aligns the entire read along cluster c.
func (m *Mapper) alignWhole(sc *mapScratch, read, rc genome.Seq, c cluster) (Segment, bool) {
	oriented := read
	if c.rev {
		oriented = rc
	}
	return m.alignPiece(sc, oriented, 0, len(oriented), c)
}

// alignPiece aligns oriented[start:end] along cluster c. The returned
// segment uses read coordinates of the oriented (possibly
// reverse-complemented) read.
func (m *Mapper) alignPiece(sc *mapScratch, oriented genome.Seq, start, end int, c cluster) (Segment, bool) {
	piece := oriented[start:end]
	seg := Segment{ReadStart: start, ReadLen: end - start, Rev: c.rev}
	ok := false
	// Tier 1: the seeds pin one diagonal; lay the piece on it.
	if c.minDiag == c.maxDiag {
		seg.ConsPos = c.minDiag + start
		seg.Edits, seg.Cost, ok = verifyDiagonal(piece, m.idx.cons, seg.ConsPos)
	}
	if !ok {
		seg.ConsPos, seg.Edits, seg.Cost, ok = m.alignBanded(sc, piece, start, c)
	}
	return seg, ok
}

// pieceBand returns the diagonals (consensus position minus position in
// the piece) the second tier searches for a piece of n bases that begins
// at oriented read position start: cluster c's own, plus BandPad of indel
// drift on either side. A piece that overhangs a consensus end must
// insert the overhang, so the band always reaches the corner where the
// piece and the consensus end together, and the one where they begin.
func (m *Mapper) pieceBand(n, start int, c cluster) (lo, hi int) {
	lo = min(c.minDiag+start-m.cfg.BandPad, len(m.idx.cons)-n)
	hi = max(c.maxDiag+start+m.cfg.BandPad, 0)
	return lo, hi
}

// alignBanded is the second tier: piece against the consensus window its
// band (pieceBand) can reach.
func (m *Mapper) alignBanded(sc *mapScratch, piece genome.Seq, start int, c cluster) (consPos int, edits []Edit, cost int, ok bool) {
	cons := m.idx.cons
	lo, hi := m.pieceBand(len(piece), start, c)
	winLo := max(lo, 0)
	winHi := min(hi+len(piece), len(cons))
	if winHi <= winLo {
		return 0, nil, 0, false
	}
	consStart, edits, cost, ok := alignBand(sc, piece, cons[winLo:winHi], lo-winLo, hi-winLo)
	return winLo + consStart, edits, cost, ok
}

// alignChimeric covers the read with up to MaxChimericSegments cluster
// alignments. Cluster read intervals are taken greedily by seed count;
// gaps between chosen intervals are attached to the adjacent segment.
func (m *Mapper) alignChimeric(sc *mapScratch, read, rc genome.Seq, clusters []cluster) ([]Segment, bool) {
	type iv struct {
		c      cluster
		lo, hi int // read-interval in FORWARD read coordinates
	}
	n := len(read)
	toFwd := func(c cluster) (int, int) {
		lo, hi := c.minRead, c.maxRead+m.idx.k
		if hi > n {
			hi = n
		}
		if !c.rev {
			return lo, hi
		}
		// Positions in the RC read map to mirrored forward positions.
		return n - hi, n - lo
	}
	var chosen []iv
	for _, c := range clusters {
		if len(chosen) == MaxChimericSegments {
			break
		}
		if c.span() < m.cfg.ChimeraMinSpan && len(chosen) > 0 {
			continue
		}
		lo, hi := toFwd(c)
		overlaps := false
		for _, e := range chosen {
			ovl := minInt(hi, e.hi) - maxInt(lo, e.lo)
			if ovl > (hi-lo)/4 {
				overlaps = true
				break
			}
		}
		if overlaps {
			continue
		}
		chosen = append(chosen, iv{c: c, lo: lo, hi: hi})
	}
	if len(chosen) < 2 {
		return nil, false
	}
	slices.SortFunc(chosen, func(a, b iv) int { return cmp.Compare(a.lo, b.lo) })
	// Expand intervals to partition [0, n): gaps split midway.
	chosen[0].lo = 0
	chosen[len(chosen)-1].hi = n
	for i := 1; i < len(chosen); i++ {
		mid := (chosen[i-1].hi + chosen[i].lo) / 2
		if mid < chosen[i-1].lo+1 {
			mid = chosen[i-1].lo + 1
		}
		chosen[i-1].hi = mid
		chosen[i].lo = mid
	}
	var segs []Segment
	totalCost := 0
	for _, e := range chosen {
		if e.hi <= e.lo {
			return nil, false
		}
		// Convert the forward interval back to oriented coordinates.
		oriented, start, end := read, e.lo, e.hi
		if e.c.rev {
			oriented, start, end = rc, n-e.hi, n-e.lo
		}
		seg, ok := m.alignPiece(sc, oriented, start, end, e.c)
		if !ok {
			return nil, false
		}
		// Record the segment's placement in FORWARD read coordinates;
		// Edits remain in oriented (segment-local) coordinates.
		seg.ReadStart = e.lo
		seg.ReadLen = e.hi - e.lo
		totalCost += seg.Cost
		segs = append(segs, seg)
	}
	if float64(totalCost) > m.cfg.MaxCostFrac*float64(n) {
		return nil, false
	}
	return segs, true
}

// ReconstructRead rebuilds a full read from its alignment — segments are
// reconstructed independently (reverse-complemented back when Rev) and
// concatenated in read order. This is the software twin of the hardware
// Read Construction Unit for multi-segment reads.
func ReconstructRead(cons genome.Seq, a Alignment, readLen int) (genome.Seq, error) {
	return AppendReconstructRead(make(genome.Seq, 0, readLen), cons, a)
}

// AppendReconstructRead appends the read ReconstructRead rebuilds to dst,
// so that a caller checking many alignments reuses one buffer; on error
// it returns dst as it was.
func AppendReconstructRead(dst, cons genome.Seq, a Alignment) (genome.Seq, error) {
	out := dst
	for _, seg := range a.Segments {
		start := len(out)
		var err error
		if out, err = appendSegment(out, cons, seg.ConsPos, seg.ReadLen, seg.Edits); err != nil {
			return dst, err
		}
		if seg.Rev {
			// The reverse complement goes after the piece, then over it.
			out = genome.AppendReverseComplement(out, out[start:])
			out = out[:start+copy(out[start:], out[start+seg.ReadLen:])]
		}
	}
	return out, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
