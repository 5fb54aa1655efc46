package mapper

import (
	"cmp"
	"math"
	"slices"

	"sage/internal/freelist"
	"sage/internal/genome"
)

// MaxChimericSegments is the paper's N for top-N matching positions of
// chimeric reads (§5.1.2 footnote 7: "We use N = 3").
const MaxChimericSegments = 3

// segmentPenalty is what a read's alignment is charged for each segment
// after its first: the matching position the extra segment must store.
const segmentPenalty = 16

// Config parameterizes the mapper. Only DisableChimeric is the caller's
// to set; the rest hold DefaultConfig's values, which the package's own
// tests sweep.
type Config struct {
	index indexConfig
	// seedStep samples every seedStep-th read k-mer during seeding.
	seedStep int
	// diagSlack merges seed hits whose diagonals differ by at most this
	// much into one cluster (accommodates indel drift).
	diagSlack int
	// minSeeds is the minimum cluster size to consider a candidate.
	minSeeds int
	// bandPad is added to the observed diagonal spread to size the
	// alignment band.
	bandPad int
	// maxCostFrac rejects alignments costing more than this fraction of
	// the read length; such reads go to the unmapped stream.
	maxCostFrac float64
	// chimeraMinSpan is the minimum read span (bases) a secondary
	// cluster must cover to justify a chimeric split.
	chimeraMinSpan int
	// DisableChimeric restricts every read to its single best matching
	// position, the pre-O3 behaviour of prior compressors the paper
	// compares against in Fig. 17 (§5.1.2).
	DisableChimeric bool
}

// DefaultConfig returns mapper settings that handle both short accurate
// reads and long error-prone reads.
func DefaultConfig() Config {
	return Config{
		index:          defaultIndexConfig(),
		seedStep:       4,
		diagSlack:      48,
		minSeeds:       2,
		bandPad:        40,
		maxCostFrac:    0.35,
		chimeraMinSpan: 120,
	}
}

// Mapper maps reads against a fixed consensus.
type Mapper struct {
	cfg Config
	idx *Index
	// verifyMin is the shortest read verifyFirst maps (New).
	verifyMin int
}

// New builds a mapper over cons.
func New(cons genome.Seq, cfg Config) (*Mapper, error) {
	idx, err := newIndex(cons, cfg.index)
	if err != nil {
		return nil, err
	}
	// One substitution breaks at most ⌈k/seedStep⌉ of a read's seeds, so a
	// read of verifyMin bases or more that verifies on a diagonal has at
	// least minSeeds seeds there, and the seeded path finds that cluster
	// too. An index that skips positions cannot say that a k-mer it holds
	// once is unique in the consensus, and verifyFirst relies on that.
	k, s := cfg.index.k, cfg.seedStep
	verifyMin := k + s*(cfg.minSeeds+(k+s-1)/s-1)
	if cfg.index.step != 1 {
		verifyMin = math.MaxInt
	}
	return &Mapper{cfg: cfg, idx: idx, verifyMin: verifyMin}, nil
}

// Consensus returns the consensus the mapper aligns against.
func (m *Mapper) Consensus() genome.Seq { return m.idx.cons }

// seedHit is one k-mer match between read and consensus: its diagonal
// (consensus position minus read position) in the top 32 bits, offset so
// that they order as the diagonals do, and its read position below, so
// that hits sort by diagonal, then read position, as integers.
type seedHit uint64

func newSeedHit(readPos, diag int) seedHit {
	return seedHit(uint64(uint32(diag+1<<31))<<32 | uint64(uint32(readPos)))
}

func (h seedHit) readPos() int { return int(uint32(h)) }
func (h seedHit) diag() int    { return int(h>>32) - 1<<31 }

// cluster is a group of co-diagonal seed hits.
type cluster struct {
	rev bool
	// hitLo is the first of the cluster's count hits in its strand's
	// mapScratch.hits, which are in order of diagonal, then read
	// position: the anchors of its second-tier alignments.
	hitLo            int32
	minDiag, maxDiag int
	minRead, maxRead int
	count            int
}

func (c *cluster) span() int { return c.maxRead - c.minRead + 1 }

// strand indexes mapScratch.hits: 0 forward, 1 reverse complement.
func strand(rev bool) int {
	if rev {
		return 1
	}
	return 0
}

// anchor is an exact match of piece[r:r+n] with cons[q:q+n], grown from
// seed hits on one diagonal. While the anchors are chained, score is the
// best chain that ends in this one, prev the index of the anchor before
// it in that chain (−1 for none), and trim how many of this anchor's
// first bases that predecessor overlaps.
type anchor struct {
	r, q, n           int
	score, prev, trim int
}

// chainLookback bounds how many anchors before it, in read order, an
// anchor considers as its predecessor.
const chainLookback = 32

// mapScratch holds one Map call's working buffers: the reverse
// complement, each strand's seed hits, clusters, anchors and their
// chain, and the bit-parallel kernel's state — the read's match masks
// (peq, four words per 64-row block), the current column's vertical
// delta vectors (pv, mv), the two words per block and column the
// traceback reads (trace), and the traceback of the segment being
// aligned (ops). The kernel's share is a few words per consensus base
// of the longest gap aligned so far. words counts the kernel's word
// updates, verified the reads verifyFirst mapped. A Mapper is read-only
// and shared by every shard worker, so the scratch (not the Mapper)
// carries all mutable state; it is kept in a free list between calls.
// Nothing in a returned Alignment aliases the scratch.
type mapScratch struct {
	rc       genome.Seq
	hits     [2][]seedHit
	clusters []cluster
	anchors  []anchor
	chain    []anchor
	peq      []uint64
	pv, mv   []uint64
	trace    []uint64
	ops      []opRun
	words    int
	verified int
}

var scratch = freelist.New[mapScratch]()

// Map aligns one read against the consensus. Reads with no adequate
// alignment return Alignment{Mapped: false}. Map is safe for concurrent
// use: the Mapper is never mutated.
func (m *Mapper) Map(read genome.Seq) Alignment {
	sc := scratch.Get()
	defer scratch.Put(sc)
	return m.mapWith(sc, read, m.alignAnchored)
}

// secondTier aligns a piece the first tier did not: alignAnchored, or
// in tests the whole-piece band it replaced.
type secondTier func(sc *mapScratch, piece genome.Seq, start int, c cluster) (consPos int, edits []Edit, cost int, ok bool)

// mapWith is Map with the caller's scratch and second tier: verifyFirst,
// and mapSeeded for the reads it leaves.
func (m *Mapper) mapWith(sc *mapScratch, read genome.Seq, tier2 secondTier) Alignment {
	if seg, ok := m.verifyFirst(read); ok {
		sc.verified++
		return Alignment{Mapped: true, Segments: []Segment{seg}}
	}
	return m.mapSeeded(sc, read, tier2)
}

// verifyFirst maps a read that lies on the diagonal of its first N-free
// k-mer without seeding it: where the index holds that k-mer once, the
// whole read is laid on its diagonal (verifyDiagonal), on the forward
// strand, then on the reverse. A match with cost 0 is returned at once,
// as is a match whose one mismatch is an N, since no alignment of a read
// with an N costs 0. A match with one substitution is returned only when
// each strand's first k-mer is absent from the consensus or held once:
// then no exact copy of the read lies on another diagonal (its first
// k-mer would be there too), and only such a copy, at cost 0, could
// beat it — a chimeric split costs at least segmentPenalty. Anything
// else is left to mapSeeded, which finds the same segment for the reads
// this one maps (TestVerifyFirstMatchesSeeded).
func (m *Mapper) verifyFirst(read genome.Seq) (Segment, bool) {
	if len(read) < m.verifyMin {
		return Segment{}, false
	}
	fwd, fwdOK, fwdOnce := m.probeStrand(read, false)
	if fwdOK && exact(fwd) {
		return fwd, true
	}
	rev, revOK, revOnce := m.probeStrand(read, true)
	switch {
	case revOK && exact(rev):
		return rev, true
	case !fwdOnce || !revOnce:
		return Segment{}, false
	case fwdOK:
		return fwd, true
	}
	return rev, revOK
}

// exact reports that no alignment of the read seg verified can cost less:
// it has no edit, or its one edit is an N.
func exact(seg Segment) bool {
	return seg.Cost == 0 || seg.Edits[0].Bases[0] > genome.BaseT
}

// probeStrand looks up the first N-free k-mer of read, or for rev of its
// reverse complement, read from read's end so that the complement is never
// built. When the index holds the k-mer at one position, ok says whether
// the oriented read lies on that diagonal with at most one mismatch, and
// seg is that whole-read segment. once says the k-mer is held at most
// once: no exact copy of the oriented read lies off that diagonal.
func (m *Mapper) probeStrand(read genome.Seq, rev bool) (seg Segment, ok, once bool) {
	idx, k := m.idx, m.idx.k
	mask := uint64(1)<<(2*k) - 1
	var code uint64
	clean, p := 0, -1
	for i := range read {
		b := read[i]
		if rev {
			b = genome.Complement(read[len(read)-1-i])
		}
		if b > genome.BaseT {
			clean = 0
			continue
		}
		code = (code<<2 | uint64(b)) & mask
		if clean++; clean == k {
			p = i + 1 - k
			break
		}
	}
	if p < 0 {
		return Segment{}, false, true
	}
	cps := idx.Lookup(code)
	if len(cps) != 1 {
		return Segment{}, false, cps == nil && idx.absent(code)
	}
	seg = Segment{ReadLen: len(read), ConsPos: int(cps[0]) - p, Rev: rev}
	if rev {
		seg.Edits, seg.Cost, ok = verifyReverse(read, idx.cons, seg.ConsPos)
	} else {
		seg.Edits, seg.Cost, ok = verifyDiagonal(read, idx.cons, seg.ConsPos)
	}
	return seg, ok, true
}

// mapSeeded maps a read by seeding both strands, clustering the hits and
// aligning the best cluster whole and the best few as a chimeric split.
func (m *Mapper) mapSeeded(sc *mapScratch, read genome.Seq, tier2 secondTier) Alignment {
	if len(read) < m.idx.k {
		return Alignment{}
	}
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
	if seg, ok := m.alignWhole(sc, read, rc, clusters[0], tier2); ok {
		candidates = append(candidates, Alignment{Mapped: true, Segments: []Segment{seg}})
	}
	// Candidate 2: chimeric split across up to MaxChimericSegments
	// clusters (§5.1.2, Fig. 9). The paper keeps whichever encoding
	// yields fewer mismatches; segmentPenalty charges for the extra
	// matching position each additional segment must store.
	if !m.cfg.DisableChimeric {
		if segs, ok := m.alignChimeric(sc, read, rc, clusters, tier2); ok {
			candidates = append(candidates, Alignment{Mapped: true, Segments: segs})
		}
	}
	bestCost := int(^uint(0) >> 1)
	var best Alignment
	for _, c := range candidates {
		if cost := alignmentCost(c.Segments); cost < bestCost {
			bestCost, best = cost, c
		}
	}
	if !best.Mapped || float64(bestCost) > m.cfg.maxCostFrac*float64(len(read)) {
		return Alignment{}
	}
	return best
}

// alignmentCost is what mapSeeded minimizes over its candidates: the
// segments' costs plus segmentPenalty for each segment after the first.
func alignmentCost(segs []Segment) int {
	cost := segmentPenalty * (len(segs) - 1)
	for _, s := range segs {
		cost += s.Cost
	}
	return cost
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
	hits := sc.hits[strand(rev)][:0]
	guide, guided := 0, false
	ForEachKmer(oriented, k, m.cfg.seedStep, func(p int, code uint64) {
		if q := guide + p; guided && uint(q) < uint(len(idx.cons)) && idx.unique[q>>6]&(1<<(q&63)) != 0 &&
			string(oriented[p:p+k]) == string(idx.cons[q:q+k]) {
			hits = append(hits, newSeedHit(p, guide))
			return
		}
		cps := idx.Lookup(code)
		for _, cp := range cps {
			hits = append(hits, newSeedHit(p, int(cp)-p))
		}
		if len(cps) == 1 {
			guide, guided = int(cps[0])-p, true
		}
	})
	sc.hits[strand(rev)] = hits
	return m.clusterHits(out, hits, rev)
}

// clusterHits sorts one strand's hits by diagonal, then read position,
// and appends the runs whose successive diagonals lie within diagSlack,
// of at least minSeeds hits, to out as clusters.
func (m *Mapper) clusterHits(out []cluster, hits []seedHit, rev bool) []cluster {
	if len(hits) == 0 {
		return out
	}
	slices.Sort(hits)
	d, p := hits[0].diag(), hits[0].readPos()
	cur := cluster{rev: rev, minDiag: d, maxDiag: d, minRead: p, maxRead: p, count: 1}
	for i, h := range hits[1:] {
		d, p := h.diag(), h.readPos()
		if d-cur.maxDiag <= m.cfg.diagSlack {
			cur.maxDiag = d
			cur.count++
			cur.minRead = min(cur.minRead, p)
			cur.maxRead = max(cur.maxRead, p)
		} else {
			if cur.count >= m.cfg.minSeeds {
				out = append(out, cur)
			}
			cur = cluster{rev: rev, hitLo: int32(i + 1), minDiag: d, maxDiag: d, minRead: p, maxRead: p, count: 1}
		}
	}
	if cur.count >= m.cfg.minSeeds {
		out = append(out, cur)
	}
	return out
}

// alignWhole aligns the entire read along cluster c.
func (m *Mapper) alignWhole(sc *mapScratch, read, rc genome.Seq, c cluster, tier2 secondTier) (Segment, bool) {
	oriented := read
	if c.rev {
		oriented = rc
	}
	return m.alignPiece(sc, oriented, 0, len(oriented), c, tier2)
}

// alignPiece aligns oriented[start:end] along cluster c. The returned
// segment uses read coordinates of the oriented (possibly
// reverse-complemented) read.
func (m *Mapper) alignPiece(sc *mapScratch, oriented genome.Seq, start, end int, c cluster, tier2 secondTier) (Segment, bool) {
	piece := oriented[start:end]
	seg := Segment{ReadStart: start, ReadLen: end - start, Rev: c.rev}
	ok := false
	// Tier 1: the seeds pin one diagonal; lay the piece on it.
	if c.minDiag == c.maxDiag {
		seg.ConsPos = c.minDiag + start
		seg.Edits, seg.Cost, ok = verifyDiagonal(piece, m.idx.cons, seg.ConsPos)
	}
	if !ok {
		seg.ConsPos, seg.Edits, seg.Cost, ok = tier2(sc, piece, start, c)
	}
	return seg, ok
}

// pieceBand returns the diagonals (consensus position minus position in
// the piece) the second tier searches before a piece's first anchor and
// after its last, for a piece of n bases that begins at oriented read
// position start: cluster c's own, plus bandPad of indel drift on either
// side. A piece that overhangs a consensus end must insert the overhang,
// so the band always reaches the corner where the piece and the
// consensus end together, and the one where they begin.
func (m *Mapper) pieceBand(n, start int, c cluster) (lo, hi int) {
	lo = min(c.minDiag+start-m.cfg.bandPad, len(m.idx.cons)-n)
	hi = max(c.maxDiag+start+m.cfg.bandPad, 0)
	return lo, hi
}

// alignAnchored is the second tier: the piece aligned through the chain
// of its cluster's seed anchors (chainAnchors), the kernel filling only
// the gaps. A gap between two anchors has both ends pinned; it is solved
// whole when it holds at most 64 read bases (one word per column), and
// otherwise in the band of its own two diagonals plus bandPad. Before the
// first anchor the start is free and after the last the end is, in the
// piece's band (pieceBand) — narrowed to the diagonals within the tail's
// length of the anchor's, since a path that strays further costs more
// than the tail laid on the anchor's diagonal. A piece with no anchor is
// one fitting alignment in the piece's band. The gaps are aligned last
// to first, because the kernel appends its traceback that way, so the
// segment's edits are built once, from one traceback.
func (m *Mapper) alignAnchored(sc *mapScratch, piece genome.Seq, start int, c cluster) (consPos int, edits []Edit, cost int, ok bool) {
	lo, hi := m.pieceBand(len(piece), start, c)
	chain := m.chainAnchors(sc, piece, start, c)
	sc.ops = sc.ops[:0]
	r1, q1 := len(piece), 0 // where the gap being aligned ends
	for i := len(chain); i >= 0; i-- {
		r0, q0 := 0, 0
		pin := pinned(0)
		if i > 0 {
			a := chain[i-1]
			r0, q0 = a.r+a.n, a.q+a.n
			pin |= pinStart
		}
		if i < len(chain) {
			pin |= pinEnd
		}
		gLo, gHi := lo, hi
		switch n, d0, d1 := r1-r0, q0-r0, q1-r1; pin {
		case pinStart | pinEnd:
			if n <= 64 {
				gLo, gHi = d0-n, d1+n
			} else {
				gLo, gHi = min(d0, d1)-m.cfg.bandPad, max(d0, d1)+m.cfg.bandPad
			}
		case pinStart:
			gLo, gHi = max(lo, d0-n), min(hi, d0+n)
		case pinEnd:
			gLo, gHi = max(lo, d1-n), min(hi, d1+n)
		}
		q, gapCost, ok := m.alignGap(sc, piece[r0:r1], r0, q0, q1, gLo, gHi, pin)
		if !ok {
			return 0, nil, 0, false
		}
		cost += gapCost
		if i == 0 {
			consPos = q
			break
		}
		a := chain[i-1]
		sc.ops = appendOps(sc.ops, opMatch, a.n)
		r1, q1 = a.r, a.q
	}
	return consPos, editsFromOps(sc.ops, piece), cost, true
}

// alignGap aligns part, the piece's bases from r0 on, against the
// consensus in the piece diagonals lo..hi: from consensus position q0 if
// pin holds pinStart, to q1 if it holds pinEnd. It returns the consensus
// position where the alignment begins and its cost.
func (m *Mapper) alignGap(sc *mapScratch, part genome.Seq, r0, q0, q1, lo, hi int, pin pinned) (consPos, cost int, ok bool) {
	cons := m.idx.cons
	if pin&pinStart == 0 {
		q0 = max(lo+r0, 0)
	}
	if pin&pinEnd == 0 {
		q1 = min(hi+r0+len(part), len(cons))
	}
	if q1 < q0 {
		return 0, 0, false
	}
	off := q0 - r0 // the piece diagonal of the window's first column
	s, cost, ok := alignBand(sc, part, cons[q0:q1], lo-off, hi-off, pin)
	return q0 + s, cost, ok
}

// chainAnchors returns the anchors tier 2 aligns piece through: cluster
// c's hits that lie inside the piece, hits on one diagonal that overlap
// or touch merged into one anchor, then the best co-linear chain of
// them — read and consensus positions strictly increasing, an anchor's
// bases that overlap its predecessor's trimmed off — scored by the bases
// it covers less the diagonal shift between successive anchors, which
// is at least the indels the path between them needs. Last, each anchor
// is extended along its diagonal while the piece equals the consensus,
// up to its neighbours; N never matches. A match extends any optimal
// path that passes through the anchor's end (or start) at no cost, so
// extension moves no cost and shrinks the gaps.
func (m *Mapper) chainAnchors(sc *mapScratch, piece genome.Seq, start int, c cluster) []anchor {
	k, cons := m.idx.k, m.idx.cons
	as := sc.anchors[:0]
	for _, h := range sc.hits[strand(c.rev)][c.hitLo : int(c.hitLo)+c.count] {
		r := h.readPos() - start
		if r < 0 || r+k > len(piece) {
			continue
		}
		q := h.diag() + h.readPos()
		if last := len(as) - 1; last >= 0 && as[last].q-as[last].r == q-r && r <= as[last].r+as[last].n {
			as[last].n = r + k - as[last].r
			continue
		}
		as = append(as, anchor{r: r, q: q, n: k})
	}
	sc.anchors = as
	if len(as) == 0 {
		return nil
	}
	slices.SortFunc(as, func(a, b anchor) int { return cmp.Or(cmp.Compare(a.r, b.r), cmp.Compare(a.q, b.q)) })
	best := 0
	for i := range as {
		a := &as[i]
		a.score, a.prev, a.trim = a.n, -1, 0
		for j := i - 1; j >= max(0, i-chainLookback); j-- {
			p := &as[j]
			trim := max(p.r+p.n-a.r, p.q+p.n-a.q, 0)
			if p.r >= a.r || p.q >= a.q || trim >= a.n {
				continue
			}
			shift := (a.q - a.r) - (p.q - p.r)
			if score := p.score + a.n - trim - max(shift, -shift); score > a.score {
				a.score, a.prev, a.trim = score, j, trim
			}
		}
		if a.score > as[best].score {
			best = i
		}
	}
	chain := sc.chain[:0]
	for i := best; i >= 0; i = as[i].prev {
		a := as[i]
		chain = append(chain, anchor{r: a.r + a.trim, q: a.q + a.trim, n: a.n - a.trim})
	}
	slices.Reverse(chain)
	sc.chain = chain
	r, q := 0, 0 // where the anchor before ends
	for i := range chain {
		a := &chain[i]
		for a.r > r && a.q > q && piece[a.r-1] == cons[a.q-1] && piece[a.r-1] <= genome.BaseT {
			a.r, a.q, a.n = a.r-1, a.q-1, a.n+1
		}
		r, q = len(piece), len(cons) // where the anchor after begins
		if i+1 < len(chain) {
			r, q = chain[i+1].r, chain[i+1].q
		}
		for a.r+a.n < r && a.q+a.n < q && piece[a.r+a.n] == cons[a.q+a.n] && piece[a.r+a.n] <= genome.BaseT {
			a.n++
		}
		r, q = a.r+a.n, a.q+a.n
	}
	return chain
}

// alignChimeric covers the read with up to MaxChimericSegments cluster
// alignments. Cluster read intervals are taken greedily by seed count;
// gaps between chosen intervals are attached to the adjacent segment.
func (m *Mapper) alignChimeric(sc *mapScratch, read, rc genome.Seq, clusters []cluster, tier2 secondTier) ([]Segment, bool) {
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
		if c.span() < m.cfg.chimeraMinSpan && len(chosen) > 0 {
			continue
		}
		lo, hi := toFwd(c)
		overlaps := false
		for _, e := range chosen {
			ovl := min(hi, e.hi) - max(lo, e.lo)
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
		seg, ok := m.alignPiece(sc, oriented, start, end, e.c, tier2)
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
	if float64(totalCost) > m.cfg.maxCostFrac*float64(n) {
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
