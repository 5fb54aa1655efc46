package mapper

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sage/internal/genome"
	"sage/internal/simulate"
)

// mappedCost is a's alignmentCost; an unmapped read costs more than any
// alignment.
func mappedCost(a Alignment) int {
	if !a.Mapped {
		return math.MaxInt
	}
	return alignmentCost(a.Segments)
}

// checkVerifyFirst maps read with mapWith and with mapSeeded, the path
// every read took before verify-first. It reports whether verify-first
// mapped the read and whether the two alignments are equal. A read
// verify-first leaves must get mapSeeded's alignment; one it maps must
// get one segment of cost at most 1 that rebuilds the read and costs no
// more than mapSeeded's alignment.
func checkVerifyFirst(m *Mapper, sc *mapScratch, read genome.Seq) (took, same bool, err error) {
	before := sc.verified
	got := m.mapWith(sc, read, m.alignAnchored)
	took = sc.verified > before
	want := m.mapSeeded(sc, read, m.alignAnchored)
	same = reflect.DeepEqual(got, want)
	switch {
	case !took && !same:
		return took, same, fmt.Errorf("read %s: left by verify-first, mapped %+v, seeded path %+v", read, got, want)
	case !took:
		return took, same, nil
	case len(got.Segments) != 1 || got.Segments[0].Cost > 1:
		return took, same, fmt.Errorf("read %s: verify-first alignment %+v is not one segment of cost at most 1", read, got)
	}
	if back, err := AppendReconstructRead(nil, m.idx.cons, got); err != nil || !back.Equal(read) {
		return took, same, fmt.Errorf("read %s: verify-first alignment %+v does not rebuild it (err %v)", read, got, err)
	}
	if mappedCost(got) > mappedCost(want) {
		return took, same, fmt.Errorf("read %s: verify-first alignment %+v costs more than the seeded path's %+v", read, got, want)
	}
	return took, same, nil
}

// TestVerifyFirstMatchesSeeded maps the repository benchmark's short and
// long read sets at three seeds with and without verify-first: not one
// alignment differs, verify-first maps at least 85 % of the short reads
// and none of the long ones. On reads with an N, reads shorter than the
// mapper's verifyMin, reads at that length with one substitution, and
// reads of the tandem-repeat and N-run consensus, every verify-first
// alignment rebuilds its read and costs no more than the seeded path's.
func TestVerifyFirstMatchesSeeded(t *testing.T) {
	scale := 1
	if testing.Short() || raceEnabled {
		scale = 4
	}
	sc := new(mapScratch)
	for _, seed := range []int64{1, 2, 7} {
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
			took, differ := 0, 0
			for _, r := range reads {
				tk, same, err := checkVerifyFirst(m, sc, r)
				if err != nil {
					t.Fatalf("%s seed %d: %v", w.name, seed, err)
				}
				if tk {
					took++
				}
				if !same {
					differ++
					if differ <= 3 {
						t.Errorf("%s seed %d: read %s aligns differently with verify-first: %+v, seeded %+v",
							w.name, seed, r, m.Map(r), m.mapSeeded(sc, r, m.alignAnchored))
					}
				}
			}
			share := float64(took) / float64(len(reads))
			t.Logf("%s seed %d: verify-first maps %d of %d reads (%.1f%%), %d align differently", w.name, seed, took, len(reads), 100*share, differ)
			if differ > 0 {
				t.Errorf("%s seed %d: %d of %d reads align differently with verify-first", w.name, seed, differ, len(reads))
			}
			if !w.long && share < 0.85 {
				t.Errorf("%s seed %d: verify-first maps %.1f%% of the reads, want at least 85%%", w.name, seed, 100*share)
			}
			if w.long && took > 0 {
				t.Errorf("%s seed %d: verify-first maps %d long reads, want none", w.name, seed, took)
			}
		}
	}

	rng := rand.New(rand.NewSource(43))
	fixtures := indexFixtures(rng, 20000/scale)
	random := fixtures[0]
	m, err := New(random, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	draw := func(n int) genome.Seq {
		at := rng.Intn(len(random) - n + 1)
		return random[at : at+n].Clone()
	}
	oriented := func(r genome.Seq, i int) genome.Seq {
		if i%2 == 1 {
			return r.ReverseComplement()
		}
		return r
	}
	var short, atMin, oneN []genome.Seq
	for n := m.idx.k; n < m.verifyMin; n++ {
		short = append(short, draw(n), draw(n).ReverseComplement())
	}
	for i := range 200 {
		r := draw(m.verifyMin + i%8)
		r[rng.Intn(len(r))] = byte(rng.Intn(4))
		atMin = append(atMin, oriented(r, i))
		r = draw(60 + rng.Intn(200))
		r[rng.Intn(len(r))] = genome.BaseN
		oneN = append(oneN, oriented(r, i))
	}
	noisy := simulate.DefaultShortProfile()
	noisy.SubRate, noisy.InsRate, noisy.DelRate, noisy.NRate = 0.004, 0.001, 0.001, 0.004
	noisyReads, err := seqsOf(simulate.New(rng, random).ShortReads(200, noisy))
	if err != nil {
		t.Fatal(err)
	}
	// A substitution in an oriented read's first k-mer leaves that strand
	// to the seeded path, so about 15 of 35–42 reads at verifyMin do not
	// take the shortcut; those that do must still equal the seeded path.
	for _, set := range []struct {
		name        string
		cons        genome.Seq
		reads       []genome.Seq
		least, most float64 // bounds on the share verify-first maps
		same        bool    // every alignment equals the seeded path's
	}{
		{"shorter than verifyMin", random, short, 0, 0, true},
		{"verifyMin with one substitution", random, atMin, 0.5, 1, true},
		{"one N", random, oneN, 1, 1, true},
		{"noisy with N", random, noisyReads, 0.1, 1, false},
		{"tandem repeat", fixtures[1], mutatedReads(rng, fixtures[1], 200), 0, 1, false},
		{"N runs", fixtures[2], mutatedReads(rng, fixtures[2], 200), 0, 1, false},
	} {
		m, err := New(set.cons, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		took, differ := 0, 0
		for _, r := range set.reads {
			tk, same, err := checkVerifyFirst(m, sc, r)
			if err != nil {
				t.Fatalf("%s: %v", set.name, err)
			}
			if tk {
				took++
			}
			if !same {
				differ++
				if set.same {
					t.Errorf("%s: read %s aligns differently with verify-first", set.name, r)
				}
			}
		}
		share := float64(took) / float64(len(set.reads))
		t.Logf("%s: verify-first maps %d of %d reads, %d align differently", set.name, took, len(set.reads), differ)
		if share < set.least || share > set.most {
			t.Errorf("%s: verify-first maps %.1f%% of the reads, want %.0f–%.0f%%", set.name, 100*share, 100*set.least, 100*set.most)
		}
	}
}

// FuzzVerifyFirst draws a read from an arbitrary consensus (bytes taken
// mod 5 as base codes), mutates it by an arbitrary edit script, and
// holds verify-first to the seeded path (checkVerifyFirst) under an
// arbitrary k, seedStep and maxOcc.
func FuzzVerifyFirst(f *testing.F) {
	// An exact read, a reverse one with a substitution, one with an N and
	// one from a tandem repeat, at k = 15 and seedStep 4 (maxOcc 8).
	cons := []byte(genome.Random(rand.New(rand.NewSource(44)), 300))
	f.Add(cons, uint16(40), uint16(120), []byte{}, uint8(11), uint8(3), uint8(7), false)
	f.Add(cons, uint16(100), uint16(90), []byte{4 * 30}, uint8(11), uint8(3), uint8(7), true)
	f.Add(cons, uint16(7), uint16(200), []byte{4*50 + 3}, uint8(11), uint8(3), uint8(7), false)
	f.Add([]byte("ACGTACGTACGTACGTACGTAAAAAAAAAAAAAAAAAAAAAAAAACGGTCATTAGC"), uint16(3), uint16(40), []byte{7, 0, 1, 2}, uint8(0), uint8(3), uint8(0), false)
	f.Add([]byte{}, uint16(0), uint16(0), []byte{1}, uint8(27), uint8(1), uint8(2), false)
	f.Fuzz(func(t *testing.T, raw []byte, at, length uint16, script []byte, k, seedStep, maxOcc uint8, rev bool) {
		if len(raw) > 1500 || len(script) > 200 {
			t.Skip() // the seeded path's kernel is quadratic in a long read
		}
		cons, read := scriptedRead(raw, at, length, script, rev)
		cfg := DefaultConfig()
		cfg.index.k = 4 + int(k)%28
		cfg.index.maxOcc = 1 + int(maxOcc)%8
		cfg.seedStep = 1 + int(seedStep)%5
		m, err := New(cons, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := checkVerifyFirst(m, new(mapScratch), read); err != nil {
			t.Fatal(err)
		}
	})
}
