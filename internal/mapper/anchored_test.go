package mapper

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sage/internal/genome"
)

// segmentCost sums an alignment's segment costs.
func segmentCost(a Alignment) int {
	cost := 0
	for _, s := range a.Segments {
		cost += s.Cost
	}
	return cost
}

// TestAnchoredMatchesBand maps the repository benchmark's short and long
// read sets (BenchmarkMapWorkload's) at two seeds twice: with the
// anchored second tier, and with the whole-piece band it replaced. Every
// anchored alignment rebuilds its read; no read the band maps goes
// unmapped; and over the reads both map, the anchored costs sum to at
// most 1.001 × the band's.
func TestAnchoredMatchesBand(t *testing.T) {
	scale := 1
	if testing.Short() || raceEnabled {
		scale = 4
	}
	for _, seed := range []int64{2, 7} {
		for _, w := range []struct {
			name string
			long bool
			glen int
		}{{"short", false, 96000}, {"long", true, 160000}} {
			ref, reads := workloadReads(t, w.long, w.glen/scale, seed)
			m, err := New(ref, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			sc, osc := new(mapScratch), new(mapScratch)
			var cost, banded, bases, mapped int
			var back genome.Seq
			for _, r := range reads {
				got := m.mapWith(sc, r, m.alignAnchored)
				want := m.mapWith(osc, r, m.alignBanded)
				bases += len(r)
				if want.Mapped && !got.Mapped {
					t.Fatalf("%s seed %d: read %s maps in the band (%+v), not anchored", w.name, seed, r, want)
				}
				if !got.Mapped {
					continue
				}
				if back, err = AppendReconstructRead(back[:0], ref, got); err != nil || !back.Equal(r) {
					t.Fatalf("%s seed %d: anchored alignment does not rebuild read %s (err %v): %+v", w.name, seed, r, err, got)
				}
				if want.Mapped {
					cost += segmentCost(got)
					banded += segmentCost(want)
					mapped++
				}
			}
			t.Logf("%s seed %d: %d reads both map, cost %d anchored, %d in the band (%+.3f%%); kernel words per base %.2f anchored, %.2f in the band",
				w.name, seed, mapped, cost, banded, 100*(float64(cost)/float64(banded)-1),
				float64(sc.words)/float64(bases), float64(osc.words)/float64(bases))
			if float64(cost) > 1.001*float64(banded) {
				t.Errorf("%s seed %d: anchored alignments cost %d, more than 1.001 × the band's %d", w.name, seed, cost, banded)
			}
		}
	}
}

// checkAnchoredRead maps read and aligns pieces of it along each of its
// best clusters — the whole read, and a cut of it as a chimeric split
// makes — with the anchored tier, which must rebuild each piece exactly
// and align every piece the whole-piece band does.
func checkAnchoredRead(m *Mapper, sc *mapScratch, read genome.Seq, cutLo, cutHi int) error {
	if a := m.mapWith(sc, read, m.alignAnchored); a.Mapped {
		if back, err := ReconstructRead(m.idx.cons, a, len(read)); err != nil || !back.Equal(read) {
			return fmt.Errorf("Map does not rebuild read %s (err %v): %+v", read, err, a)
		}
	}
	if len(read) < m.idx.k {
		return nil
	}
	rc := read.ReverseComplement()
	clusters := m.collectClusters(nil, sc, read, false)
	clusters = m.collectClusters(clusters, sc, rc, true)
	slices.SortFunc(clusters, compareClusters)
	n := len(read)
	lo, hi := min(cutLo%(n+1), cutHi%(n+1)), max(cutLo%(n+1), cutHi%(n+1))
	for _, c := range clusters[:min(len(clusters), MaxChimericSegments)] {
		oriented := read
		if c.rev {
			oriented = rc
		}
		for _, iv := range [][2]int{{0, n}, {lo, hi}} {
			if iv[0] == iv[1] {
				continue
			}
			piece := oriented[iv[0]:iv[1]]
			_, _, _, bandOK := m.alignBanded(new(mapScratch), piece, iv[0], c)
			seg, ok := m.alignPiece(sc, oriented, iv[0], iv[1], c, m.alignAnchored)
			if bandOK && !ok {
				return fmt.Errorf("piece [%d,%d) of %s along %+v: the band aligns it, the anchored tier does not", iv[0], iv[1], oriented, c)
			}
			if !ok {
				continue
			}
			back, err := appendSegment(nil, m.idx.cons, seg.ConsPos, seg.ReadLen, seg.Edits)
			if err != nil || !back.Equal(piece) || editBases(seg.Edits) != seg.Cost {
				return fmt.Errorf("piece [%d,%d) of %s along %+v: segment %+v does not rebuild it at its cost (err %v)", iv[0], iv[1], oriented, c, seg, err)
			}
		}
	}
	return nil
}

// FuzzAnchoredAlign draws a read from an arbitrary consensus (bytes mod
// 5, so N on both sides), lets it overhang the consensus's ends, joins a
// second region to it as a chimera, mutates it by an arbitrary edit
// script, and checks checkAnchoredRead under an arbitrary k and seedStep.
func FuzzAnchoredAlign(f *testing.F) {
	rng := rand.New(rand.NewSource(31))
	cons := []byte(genome.Random(rng, 3000))
	f.Add(cons, uint16(200), uint16(400), []byte{9, 80, 141, 202, 33}, uint8(0), uint16(0), uint16(17), uint16(300), uint8(11), false)
	f.Add(cons, uint16(0), uint16(300), []byte{4, 5, 6, 7}, uint8(0x97), uint16(0), uint16(40), uint16(260), uint8(9), true)                // overhangs the start
	f.Add(cons, uint16(2800), uint16(500), []byte{12, 101, 102, 103}, uint8(0xa3), uint16(0), uint16(0), uint16(90), uint8(7), false)       // overhangs the end
	f.Add(cons, uint16(500), uint16(350), []byte{3, 7, 11, 15, 19, 23}, uint8(0), uint16(2100), uint16(340), uint16(900), uint8(12), false) // chimera, N
	f.Add(cons[:400], uint16(50), uint16(200), []byte{2, 6, 10, 14, 18, 22, 26, 30}, uint8(0x11), uint16(1), uint16(5), uint16(150), uint8(0), true)
	f.Fuzz(func(t *testing.T, raw []byte, at, length uint16, script []byte, overhang uint8, join uint16, cutLo, cutHi uint16, k uint8, rev bool) {
		if len(raw) > 6000 || len(script) > 400 || len(raw) == 0 {
			t.Skip()
		}
		cons := make(genome.Seq, len(raw))
		for i, b := range raw {
			cons[i] = b % 5
		}
		start := int(at) % len(cons)
		end := min(start+int(length), len(cons))
		var read genome.Seq
		// Overhangs: bases the consensus lacks, before a read that begins
		// at its first base and after one that ends at its last.
		orng := rand.New(rand.NewSource(int64(overhang)))
		if start == 0 {
			read = genome.Random(orng, int(overhang&15))
		}
		read = append(read, cons[start:end]...)
		if end == len(cons) {
			read = append(read, genome.Random(orng, int(overhang>>4))...)
		}
		if join != 0 {
			j := int(join) % len(cons)
			other := cons[j:min(j+int(length)/2, len(cons))].ReverseComplement()
			read = append(read, other...)
		}
		// Each script byte names a read position and what happens there:
		// a substitution, an insertion, a deletion or an N.
		for _, e := range script {
			if len(read) == 0 {
				break
			}
			p := int(e>>2) * 7 % len(read)
			switch e & 3 {
			case 0:
				read[p] = (read[p] + 1) % 4
			case 1:
				read = slices.Insert(read, p, e%4)
			case 2:
				read = slices.Delete(read, p, p+1)
			case 3:
				read[p] = genome.BaseN
			}
		}
		if rev {
			read = read.ReverseComplement()
		}
		cfg := DefaultConfig()
		cfg.index.k = 6 + int(k)%10
		cfg.seedStep = 1 + int(k>>4)%4
		m, err := New(cons, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkAnchoredRead(m, new(mapScratch), read, int(cutLo), int(cutHi)); err != nil {
			t.Fatal(err)
		}
	})
}
