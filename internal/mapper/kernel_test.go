package mapper

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"sage/internal/fastq"
	"sage/internal/genome"
	"sage/internal/simulate"
)

func editsEqual(a, b []Edit) bool {
	return slices.EqualFunc(a, b, func(x, y Edit) bool {
		return x.ReadPos == y.ReadPos && x.Type == y.Type && x.DelLen == y.DelLen && bytes.Equal(x.Bases, y.Bases)
	})
}

// pathInBand reports whether an alignment that starts at consensus
// position consPos stays on diagonals lo..hi (consensus bases consumed
// minus read bases consumed, counted from consensus position 0).
func pathInBand(consPos int, edits []Edit, lo, hi int) bool {
	d := consPos
	for k := 0; ; k++ {
		if d < lo || d > hi {
			return false
		}
		if k == len(edits) {
			return true
		}
		switch e := edits[k]; e.Type {
		case genome.Insertion:
			d -= len(e.Bases)
		case genome.Deletion:
			d += e.DelLen
		}
	}
}

// diagBand is a set of alignment paths: those that stay on diagonals
// lo..hi (as in pathInBand) and start at consensus position startLo or
// later.
type diagBand struct{ lo, hi, startLo int }

func (b diagBand) holds(pos int, edits []Edit) bool {
	return pos >= b.startLo && pathInBand(pos, edits, b.lo, b.hi)
}

// alignResult is what either kernel returns for a piece.
type alignResult struct {
	pos   int
	edits []Edit
	cost  int
	ok    bool
}

// checkAgainstOracle holds one kernel result to the differential
// assertions. It rebuilds the piece, always. Whenever the oracle's path
// lies inside the kernel's band, the kernel finds a path too, at no
// higher cost — and, if the oracle saw every path the kernel did, that
// very alignment, edit for edit (pinned). The kernel may cost less than
// the oracle only through a path the oracle could not take.
func checkAgainstOracle(cons, piece genome.Seq, band, oracleBand diagBand, got, want alignResult) (pinned bool, err error) {
	if got.ok {
		back, err := appendSegment(nil, cons, got.pos, len(piece), got.edits)
		if err != nil || !back.Equal(piece) {
			return false, fmt.Errorf("kernel alignment does not rebuild the piece (err %v): %+v", err, got)
		}
		sum := 0
		for _, e := range got.edits {
			sum += e.Len()
		}
		if sum != got.cost {
			return false, fmt.Errorf("kernel cost disagrees with its %d edit bases: %+v", sum, got)
		}
	}
	if !want.ok {
		return false, nil
	}
	if got.ok && got.cost < want.cost && oracleBand.holds(got.pos, got.edits) {
		return false, fmt.Errorf("kernel beats the oracle on a path the oracle could take:\n kernel %+v\n oracle %+v", got, want)
	}
	if !band.holds(want.pos, want.edits) {
		return false, nil
	}
	if !got.ok || got.cost > want.cost {
		return false, fmt.Errorf("oracle path is inside the kernel's band, yet:\n kernel %+v\n oracle %+v", got, want)
	}
	if band.lo < oracleBand.lo || band.hi > oracleBand.hi || band.startLo < oracleBand.startLo {
		return false, nil
	}
	if got.pos != want.pos || !editsEqual(got.edits, want.edits) {
		return true, fmt.Errorf("kernel differs from an in-band oracle path:\n kernel %+v\n oracle %+v", got, want)
	}
	return true, nil
}

// oracleSim feeds TestKernelMatchesOracle: a mapper, both kernels'
// scratch, and the running counts.
type oracleSim struct {
	m               *Mapper
	rng             *rand.Rand
	sc              *mapScratch
	osc             *oracleScratch
	checked, pinned *atomic.Int64
}

// piece aligns oriented[start:end] along c with the oracle, the banded
// tier alone, both tiers with the banded one second, and both tiers with
// the anchored one second, and checks them against each other; for one
// piece in four it also cuts the oracle's path at two
// points and checks the kernel's pinned modes against the oracle's on
// the parts (pinnedParts).
func (s *oracleSim) piece(oriented genome.Seq, start, end int, c cluster) error {
	m, p := s.m, oriented[start:end]
	want, wantOK := m.oracleAlignPiece(s.osc, oriented, start, end, c)
	pos, edits, cost, ok := m.alignBanded(s.sc, p, start, c)
	lo, hi := m.pieceBand(len(p), start, c)
	ob := m.oracleBand(start, c)
	pinned, err := checkAgainstOracle(m.idx.cons, p, diagBand{lo, hi, max(lo, 0)}, ob,
		alignResult{pos, edits, cost, ok}, alignResult{want.ConsPos, want.Edits, want.Cost, wantOK})
	if err != nil {
		return err
	}
	n := s.checked.Add(1)
	if pinned {
		s.pinned.Add(1)
	}
	if wantOK && n%4 == 0 {
		if err := s.pinnedParts(p, ob, want); err != nil {
			return err
		}
	}
	// Both tiers, with the whole-piece band as the second: the first may
	// choose a different alignment of the same cost, never a dearer one.
	seg, segOK := m.alignPiece(s.sc, oriented, start, end, c, m.alignBanded)
	if segOK != ok {
		return fmt.Errorf("alignPiece ok=%v, banded tier ok=%v", segOK, ok)
	}
	if ok {
		got, err := appendSegment(nil, m.idx.cons, seg.ConsPos, seg.ReadLen, seg.Edits)
		if err != nil || !got.Equal(p) || seg.Cost != cost {
			return fmt.Errorf("alignPiece: err %v, cost %d (banded tier %d), segment %+v", err, seg.Cost, cost, seg)
		}
		if !editsEqual(seg.Edits, edits) {
			// The one place the tiers part: a lone mismatch in the last
			// base (or before a homopolymer tail), which the kernel's
			// lowest-end-column rule turns into a one-base insertion at
			// or before it.
			if len(seg.Edits) != 1 || len(edits) != 1 || edits[0].Type != genome.Insertion ||
				len(edits[0].Bases) != 1 || edits[0].ReadPos > seg.Edits[0].ReadPos || pos != seg.ConsPos {
				return fmt.Errorf("tiers disagree beyond the tail rule:\n tier 1 %+v\n tier 2 pos %d %+v", seg, pos, edits)
			}
		}
	}
	// The anchored tier maps every piece the whole-piece band does, and
	// rebuilds it; TestAnchoredMatchesBand holds its cost to the band's.
	seg, segOK = m.alignPiece(s.sc, oriented, start, end, c, m.alignAnchored)
	if ok && !segOK {
		return fmt.Errorf("alignPiece failed where the banded tier aligned: %+v", edits)
	}
	if !segOK {
		return nil
	}
	got, err := appendSegment(nil, m.idx.cons, seg.ConsPos, seg.ReadLen, seg.Edits)
	if err != nil || !got.Equal(p) {
		return fmt.Errorf("alignPiece does not rebuild the piece (err %v): %+v", err, seg)
	}
	if sum := editBases(seg.Edits); sum != seg.Cost {
		return fmt.Errorf("alignPiece cost %d disagrees with its %d edit bases: %+v", seg.Cost, sum, seg)
	}
	return nil
}

// editBases sums the edits' lengths: an alignment's unit cost.
func editBases(edits []Edit) int {
	sum := 0
	for _, e := range edits {
		sum += e.Len()
	}
	return sum
}

// pathPoint returns the consensus position an alignment that begins at
// consPos has reached when it has consumed r read bases, before any
// deletion there.
func pathPoint(consPos int, edits []Edit, r int) int {
	q, at := consPos, 0
	for _, e := range edits {
		if e.ReadPos >= r {
			break
		}
		q += e.ReadPos - at
		at = e.ReadPos
		switch e.Type {
		case genome.Substitution:
			q, at = q+1, at+1
		case genome.Insertion:
			if at += len(e.Bases); at >= r {
				return q
			}
		case genome.Deletion:
			q += e.DelLen
		}
	}
	return q + r - at
}

// pinnedParts cuts the oracle's alignment whole of piece p at read
// positions r1 ≤ r2, chosen at random, and aligns the parts with pinned
// ends, the kernel and the oracle over one symmetric band that holds the
// oracle's band ob: the part before r1 with its end pinned, the part
// after r1 with its start pinned, and the part between with both. Kernel and oracle
// must agree edit for edit; and since the oracle's path runs through both
// cuts, the parts before and after r1 cost no more than it.
func (s *oracleSim) pinnedParts(p genome.Seq, ob diagBand, whole Segment) error {
	cons := s.m.idx.cons
	r1 := s.rng.Intn(len(p) + 1)
	r2 := r1 + s.rng.Intn(len(p)-r1+1)
	q1, q2 := pathPoint(whole.ConsPos, whole.Edits, r1), pathPoint(whole.ConsPos, whole.Edits, r2)
	qEnd := pathPoint(whole.ConsPos, whole.Edits, len(p))
	// band holds the oracle's diagonals, in a part that begins at read
	// position r and consensus position q.
	band := func(r, q int) int { return max(q-r-ob.lo, ob.hi-(q-r), 1) }
	total := 0
	for _, part := range []struct {
		r0, r1, q0, q1 int
		pin            pinned
	}{
		{0, r1, ob.startLo, q1, pinEnd},
		{r1, len(p), q1, min(len(cons), qEnd+s.rng.Intn(8)), pinStart},
		{r1, r2, q1, q2, pinStart | pinEnd},
	} {
		read, window := p[part.r0:part.r1], cons[part.q0:part.q1]
		b := band(part.r0, part.q0)
		var got, want alignResult
		got.pos, got.edits, got.cost, got.ok = bandAlign(s.sc, read, window, -b, b, part.pin)
		var err error
		want.pos, want.edits, want.cost, err = fitAlign(s.osc, read, window, b, part.pin)
		want.ok = err == nil
		if !want.ok {
			return fmt.Errorf("pinned %d part [%d,%d) of the oracle's path has no alignment in band %d: %v", part.pin, part.r0, part.r1, b, err)
		}
		if _, err := checkAgainstOracle(window, read, diagBand{-b, b, 0}, diagBand{-b, b, 0}, got, want); err != nil {
			return fmt.Errorf("pinned %d part [%d,%d): %w", part.pin, part.r0, part.r1, err)
		}
		if part.pin != pinStart|pinEnd {
			total += got.cost
		}
	}
	if total > whole.Cost {
		return fmt.Errorf("the parts before and after read position %d cost %d, the oracle's whole path %d", r1, total, whole.Cost)
	}
	return nil
}

// read sends a read's three best clusters through piece: the whole read,
// and a part of it cut the way a chimeric split would. It returns the
// number of pieces checked.
func (s *oracleSim) read(read genome.Seq) (int, error) {
	m, sc := s.m, s.sc
	if len(read) < m.idx.k {
		return 0, nil
	}
	rc := read.ReverseComplement()
	clusters := m.collectClusters(nil, sc, read, false)
	clusters = m.collectClusters(clusters, sc, rc, true)
	slices.SortFunc(clusters, compareClusters)
	n := len(read)
	pieces := 0
	for _, c := range clusters[:min(len(clusters), MaxChimericSegments)] {
		oriented := read
		if c.rev {
			oriented = rc
		}
		lo := max(0, c.minRead-s.rng.Intn(60))
		hi := min(n, c.maxRead+m.idx.k+s.rng.Intn(60))
		if s.rng.Intn(2) == 0 && n > 60 {
			// A cut through the cluster instead of around it.
			cut := 30 + s.rng.Intn(n-60)
			if s.rng.Intn(2) == 0 {
				lo, hi = 0, cut
			} else {
				lo, hi = cut, n
			}
		}
		for _, iv := range [][2]int{{0, n}, {lo, hi}} {
			if err := s.piece(oriented, iv[0], iv[1], c); err != nil {
				return pieces, fmt.Errorf("read %s piece [%d,%d) cluster %+v: %w", read, iv[0], iv[1], c, err)
			}
			pieces++
		}
	}
	return pieces, nil
}

func seqsOf(rs *fastq.ReadSet, err error) ([]genome.Seq, error) {
	if err != nil {
		return nil, err
	}
	out := make([]genome.Seq, len(rs.Records))
	for i := range rs.Records {
		out[i] = rs.Records[i].Seq
	}
	return out, nil
}

// TestKernelMatchesOracle is the differential test the bit-parallel
// kernel replaced fitAlign under: 10⁵ simulated pieces (10⁴ with -short
// or -race), each aligned by the old int32 DP over its old window and by
// the kernel over the cluster's band; one in four is cut into parts that
// each aligns again with pinned ends.
func TestKernelMatchesOracle(t *testing.T) {
	total := 100000
	if testing.Short() || raceEnabled {
		total = 10000
	}
	rng := rand.New(rand.NewSource(41))
	ref := genome.Random(rng, 150000)
	// Tandem and dispersed repeats, so clusters span several diagonals
	// and equal-cost paths exist for the tie-break to choose between.
	for i := 0; i < 40; i++ {
		src, l := rng.Intn(len(ref)-400), 40+rng.Intn(300)
		dst := src + l + rng.Intn(30)
		if i%2 == 0 {
			dst = rng.Intn(len(ref) - 400)
		}
		copy(ref[dst:], ref[src:src+l])
	}
	donor, _ := genome.Donor(rng, ref, genome.HumanLikeProfile())
	whole, err := New(ref, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// A consensus that stops short of the donor on both sides: reads
	// over its ends overhang it.
	const cutLo, cutHi = 20000, 26000
	cut, err := New(ref[cutLo:cutHi], DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	short := simulate.DefaultShortProfile()
	noisy := short
	noisy.SubRate, noisy.InsRate, noisy.DelRate, noisy.NRate = 0.02, 0.004, 0.004, 0.004
	long := simulate.DefaultLongProfile()
	long.MeanLen, long.MaxLen, long.ChimeraRate = 700, 2500, 0.3
	classes := []struct {
		name  string
		share float64
		m     *Mapper
		reads func(sim *simulate.Simulator, rng *rand.Rand) ([]genome.Seq, error)
	}{
		{"short", 0.45, whole, func(sim *simulate.Simulator, _ *rand.Rand) ([]genome.Seq, error) {
			return seqsOf(sim.ShortReads(64, short))
		}},
		{"short-noisy-N", 0.42, whole, func(sim *simulate.Simulator, _ *rand.Rand) ([]genome.Seq, error) {
			return seqsOf(sim.ShortReads(64, noisy))
		}},
		{"long-chimeric", 0.09, whole, func(sim *simulate.Simulator, rng *rand.Rand) ([]genome.Seq, error) {
			p := long
			p.ErrRate = 0.05 + 0.10*rng.Float64()
			return seqsOf(sim.LongReads(8, p))
		}},
		{"clipped", 0.04, cut, func(_ *simulate.Simulator, rng *rand.Rand) ([]genome.Seq, error) {
			out := make([]genome.Seq, 32)
			for i := range out {
				l := 120 + rng.Intn(300)
				at := cutLo - rng.Intn(l*2/3)
				if i%2 == 0 {
					at = cutHi - l + rng.Intn(l*2/3)
				}
				r := donor[at : at+l].Clone()
				for j := range r {
					if rng.Float64() < 0.02 {
						r[j] = byte(rng.Intn(4))
					}
				}
				out[i] = r
			}
			return out, nil
		}},
	}

	var checked, pinned atomic.Int64
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(int64(100 + w)))
			sim := simulate.New(wrng, donor)
			for _, cl := range classes {
				s := &oracleSim{m: cl.m, rng: wrng, sc: new(mapScratch), osc: new(oracleScratch),
					checked: &checked, pinned: &pinned}
				quota := int(cl.share*float64(total))/workers + 1
				for done := 0; done < quota; {
					reads, err := cl.reads(sim, wrng)
					if err != nil {
						t.Error(cl.name, err)
						return
					}
					for _, r := range reads {
						k, err := s.read(r)
						if err != nil {
							t.Error(cl.name, err)
							return
						}
						done += k
					}
				}
			}
		}()
	}
	wg.Wait()
	n, in := checked.Load(), pinned.Load()
	t.Logf("%d pieces, kernel pinned to the oracle's alignment on %d (%.2f%%)", n, in, 100*float64(in)/float64(n))
	if n < int64(total) {
		t.Fatalf("checked %d pieces, want %d", n, total)
	}
	if in*100 < n*90 {
		t.Fatalf("oracle path inside the kernel's band on only %d of %d pieces: the comparison is vacuous", in, n)
	}
}

// bandCost is the definition alignBand implements, as a full matrix:
// the cheapest alignment with the ends pin fixes that never leaves
// diagonals dLo..dHi.
func bandCost(read, window genome.Seq, dLo, dHi int, pin pinned) (cost int, ok bool) {
	const inf = 1 << 30
	in := func(i, j int) bool { return j-i >= dLo && j-i <= dHi }
	prev, cur := make([]int, len(window)+1), make([]int, len(window)+1)
	for j := range prev {
		prev[j] = inf
		if in(0, j) {
			prev[j] = 0
			if pin&pinStart != 0 {
				prev[j] = j
			}
		}
	}
	for i := 1; i <= len(read); i++ {
		for j := range cur {
			c := inf
			if in(i, j) {
				c = prev[j] + 1
				if j > 0 {
					sub := 1
					if read[i-1] == window[j-1] && read[i-1] <= genome.BaseT {
						sub = 0
					}
					c = min(c, prev[j-1]+sub, cur[j-1]+1)
				}
			}
			cur[j] = min(c, inf)
		}
		prev, cur = cur, prev
	}
	cost = slices.Min(prev)
	if pin&pinEnd != 0 {
		cost = prev[len(window)]
	}
	return cost, cost < inf
}

// checkStrictBand holds a kernel result to bandCost: out-of-band cells
// are unreachable, not merely dear.
func checkStrictBand(read, window genome.Seq, dLo, dHi int, pin pinned, got alignResult) error {
	if pin == 0 && (len(read) == 0 || len(window) == 0) {
		return nil
	}
	if cost, ok := bandCost(read, window, dLo, dHi, pin); ok != got.ok || (ok && cost != got.cost) {
		return fmt.Errorf("band [%d,%d], pin %d: full-matrix cost %d ok=%v, kernel %+v", dLo, dHi, pin, cost, ok, got)
	}
	if got.ok && !(diagBand{dLo, dHi, 0}).holds(got.pos, got.edits) {
		return fmt.Errorf("band [%d,%d], pin %d: kernel path leaves it: %+v", dLo, dHi, pin, got)
	}
	if got.ok && pin&pinStart != 0 && got.pos != 0 {
		return fmt.Errorf("pinned start, yet the kernel path begins at %d: %+v", got.pos, got)
	}
	return nil
}

// TestAlignBandIsStrictlyBanded drives narrow, wide, off-centre and
// clipped bands over mutated reads of one to four blocks, each with free
// ends and again with a pinned start, a pinned end, or both — the end
// pinned where the read's source ends.
func TestAlignBandIsStrictlyBanded(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	sc := new(mapScratch)
	aligned, alignedPinned := 0, 0
	for iter := 0; iter < 4000; iter++ {
		window := genome.Random(rng, 1+rng.Intn(330))
		at := rng.Intn(len(window))
		end := min(len(window), at+1+rng.Intn(250))
		read := window[at:end].Clone()
		for i := 0; i < len(read); i++ {
			switch rng.Intn(25) {
			case 0:
				read[i] = byte(rng.Intn(5))
			case 1:
				read = slices.Delete(read, i, i+1+rng.Intn(min(3, len(read)-i)))
			case 2:
				read = slices.Insert(read, i, genome.Random(rng, 1+rng.Intn(3))...)
			}
		}
		dLo := at - rng.Intn(70) + rng.Intn(20)
		dHi := dLo + rng.Intn(140)
		if dLo > 0 {
			// As alignGap does: the band's lowest diagonal, or
			// the consensus start, is the window's first column.
			cut := min(dLo, len(window))
			window, dLo, dHi, end = window[cut:], 0, dHi-dLo, end-cut
		}
		for _, pin := range []pinned{0, pinned(1 + iter%3)} {
			w := window
			if pin&pinEnd != 0 && end > 0 {
				w = window[:end]
			}
			var got alignResult
			got.pos, got.edits, got.cost, got.ok = bandAlign(sc, read, w, dLo, dHi, pin)
			if err := checkStrictBand(read, w, dLo, dHi, pin, got); err != nil {
				t.Fatalf("read %s window %s: %v", read, w, err)
			}
			if got.ok {
				if pin == 0 {
					aligned++
				} else {
					alignedPinned++
				}
				back, err := appendSegment(nil, w, got.pos, len(read), got.edits)
				if err != nil || !back.Equal(read) {
					t.Fatalf("read %s window %s band [%d,%d] pin %d: does not rebuild (err %v): %+v", read, w, dLo, dHi, pin, err, got)
				}
			}
		}
	}
	t.Logf("%d of 4000 free bands and %d of 4000 pinned ones held a path", aligned, alignedPinned)
	if aligned < 3000 || alignedPinned < 2000 {
		t.Fatalf("only %d of 4000 free bands and %d of 4000 pinned ones held a path", aligned, alignedPinned)
	}
}

// FuzzAlignKernel runs the kernel on an arbitrary read, window, band
// and pinned ends next to the oracle over the symmetric band that
// contains it, under the assertions of checkAgainstOracle and
// checkStrictBand. Bytes map to bases modulo 5, so N appears on both
// sides.
func FuzzAlignKernel(f *testing.F) {
	ascii := func(s string) []byte { return []byte(genome.MustFromString(s)) }
	win := "GGTACCATTGCAGTCAGGCTTAACGTAGCTAGGATCCATGCAAGTCGATCGGATTACAGCATCGACTAGCTTAGGCTAACGT"
	f.Add(ascii(win[10:70]), ascii(win), uint8(0), uint8(20), uint8(0))                                            // exact, band off centre
	f.Add(ascii(win[10:40]+"T"+win[40:55]+win[58:70]), ascii(win[5:]), uint8(0), uint8(12), uint8(0))              // insertion and deletion
	f.Add(ascii(win[20:50]+"N"+win[51:64]), ascii(win[12:]), uint8(0), uint8(16), uint8(0))                        // N in the read
	f.Add(ascii("ACGTTGCA"+win[:40]), ascii(win), uint8(20), uint8(10), uint8(0))                                  // overhangs the start
	f.Add(ascii(win[50:]+"TTGACCA"), ascii(win[40:]), uint8(0), uint8(15), uint8(0))                               // overhangs the end
	f.Add(ascii(win[5:75]), ascii(win[:30]+"N"+win[31:]), uint8(3), uint8(67), uint8(0))                           // N in the window, two blocks
	f.Add(ascii("AAAAAAAAAAAAAAAAAAAAAAAC"), ascii("TAAAAAAAAAAAAAAAAAAAAAAAAAAAG"), uint8(0), uint8(4), uint8(0)) // homopolymer ties
	f.Add([]byte{}, ascii(win), uint8(0), uint8(3), uint8(0))
	f.Add(ascii(win[:20]), []byte{}, uint8(0), uint8(3), uint8(0))
	f.Add(ascii(win[:30]+"G"+win[33:60]), ascii(win[:60]), uint8(5), uint8(5), uint8(pinStart|pinEnd))             // a gap between anchors
	f.Add(ascii(win[4:40]+"ACGTACGTAC"+win[40:82]), ascii(win[:82]), uint8(20), uint8(70), uint8(pinStart|pinEnd)) // two blocks, both pinned
	f.Add(ascii("TTGACA"+win[12:50]), ascii(win[:50]), uint8(10), uint8(20), uint8(pinEnd))                        // before the first anchor
	f.Add(ascii(win[30:70]+"CCATG"), ascii(win[30:]), uint8(8), uint8(8), uint8(pinStart))                         // after the last anchor
	f.Add([]byte{}, ascii(win[:7]), uint8(0), uint8(9), uint8(pinStart|pinEnd))                                    // a deletion only
	f.Add(ascii(win[:6]), []byte{}, uint8(9), uint8(0), uint8(pinStart|pinEnd))                                    // an insertion only
	f.Fuzz(func(t *testing.T, readBytes, windowBytes []byte, below, above, pins uint8) {
		if len(readBytes) > 400 || len(windowBytes) > 600 {
			t.Skip()
		}
		dLo, dHi, pin := -int(below), int(above), pinned(pins%4)
		read, window := make(genome.Seq, len(readBytes)), make(genome.Seq, len(windowBytes))
		for i, b := range readBytes {
			read[i] = b % 5
		}
		for i, b := range windowBytes {
			window[i] = b % 5
		}
		var got, want alignResult
		got.pos, got.edits, got.cost, got.ok = bandAlign(new(mapScratch), read, window, dLo, dHi, pin)
		sym := max(-dLo, dHi, 1)
		var err error
		want.pos, want.edits, want.cost, err = fitAlign(new(oracleScratch), read, window, sym, pin)
		want.ok = err == nil
		if _, err := checkAgainstOracle(window, read, diagBand{dLo, dHi, max(dLo, 0)}, diagBand{-sym, sym, 0}, got, want); err != nil {
			t.Fatal(err)
		}
		if err := checkStrictBand(read, window, dLo, dHi, pin, got); err != nil {
			t.Fatal(err)
		}
	})
}
