package mapper

import (
	"math/rand"
	"slices"
	"testing"

	"sage/internal/genome"
)

// forEachKmerPerWindow and mapIndex are the seed index as it was before
// the flat table — every window re-encoded from its bases, positions in
// one Go slice per k-mer under a map — kept as the reference the table
// and the rolling walk must equal.
func forEachKmerPerWindow(s genome.Seq, k, step int, fn func(pos int, code uint64)) {
	if len(s) < k {
		return
	}
	for p := 0; p+k <= len(s); p += step {
		code, ok := encodeKmer(s[p : p+k])
		if !ok {
			continue
		}
		fn(p, code)
	}
}

// encodeKmer packs an N-free k-mer into a 2-bit-per-base code; ok is
// false if the k-mer contains N.
func encodeKmer(s genome.Seq) (code uint64, ok bool) {
	for _, b := range s {
		if b > genome.BaseT {
			return 0, false
		}
		code = code<<2 | uint64(b)
	}
	return code, true
}

type mapIndex struct {
	pos    map[uint64][]int32
	maxOcc int
}

func newMapIndex(cons genome.Seq, cfg IndexConfig) *mapIndex {
	idx := &mapIndex{pos: map[uint64][]int32{}, maxOcc: cfg.MaxOcc}
	forEachKmerPerWindow(cons, cfg.K, cfg.Step, func(p int, code uint64) {
		idx.pos[code] = append(idx.pos[code], int32(p))
	})
	return idx
}

func (x *mapIndex) Lookup(code uint64) []int32 {
	hits := x.pos[code]
	if len(hits) > x.maxOcc {
		return nil
	}
	return hits
}

// checkIndexAgainstMap builds both indexes over cons and compares Lookup
// on every k-mer of the consensus and on absent random codes — the same
// ascending positions, and nil for the same codes — and the unique bit of
// every consensus position.
func checkIndexAgainstMap(t testing.TB, rng *rand.Rand, cons genome.Seq, cfg IndexConfig, absent int) *mapIndex {
	t.Helper()
	idx, err := NewIndex(cons, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := newMapIndex(cons, cfg)
	check := func(code uint64) {
		g, w := idx.Lookup(code), want.Lookup(code)
		if !slices.Equal(g, w) || (g == nil) != (w == nil) {
			t.Fatalf("%d bases, %+v: Lookup(%#x) = %v, the map index has %v", len(cons), cfg, code, g, w)
		}
	}
	for code := range want.pos {
		check(code)
	}
	for i := 0; i < absent; i++ {
		// Mostly codes of this K, most of them absent once K is large; a
		// few with bits no k-mer has.
		code := rng.Uint64()
		if i%16 != 0 {
			code >>= 64 - 2*uint(cfg.K)
		}
		check(code)
	}
	// unique[q] holds exactly for the indexed positions whose k-mer the
	// map index holds at q alone.
	once := make([]bool, len(cons))
	forEachKmerPerWindow(cons, cfg.K, cfg.Step, func(p int, code uint64) {
		once[p] = len(want.pos[code]) == 1
	})
	if len(idx.unique) != (len(cons)+63)/64 {
		t.Fatalf("%d bases: %d words of unique bits", len(cons), len(idx.unique))
	}
	for q, w := range once {
		if g := idx.unique[q>>6]&(1<<(q&63)) != 0; g != w {
			t.Fatalf("%d bases, %+v: unique[%d] = %v, the map index says %v", len(cons), cfg, q, g, w)
		}
	}
	return want
}

// indexFixtures are consensus sequences that load the table differently:
// random bases (nearly every k-mer once), a tandem repeat with a little
// noise (few k-mers, long position runs), and random bases broken by
// runs of N.
func indexFixtures(rng *rand.Rand, n int) []genome.Seq {
	random := genome.Random(rng, n)
	tandem := make(genome.Seq, n)
	unit := genome.Random(rng, 37)
	for i := range tandem {
		tandem[i] = unit[i%len(unit)]
		if rng.Intn(400) == 0 {
			tandem[i] = byte(rng.Intn(4))
		}
	}
	withN := genome.Random(rng, n)
	for i := 0; i < n; i += 1 + rng.Intn(300) {
		for j := i; j < min(n, i+1+rng.Intn(12)); j++ {
			withN[j] = genome.BaseN
		}
	}
	return []genome.Seq{random, tandem, withN}
}

func TestIndexMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	n, absent := 20000, 10000
	if testing.Short() {
		// At step 3 a k-mer of the 37-base tandem unit recurs every 111
		// bases: 10 000 bases still give it more than MaxOcc copies.
		n, absent = 10000, 2000
	}
	for f, cons := range indexFixtures(rng, n) {
		for _, k := range []int{4, 11, 15, 16, 17, 31} {
			for _, step := range []int{1, 3} {
				cfg := IndexConfig{K: k, Step: step, MaxOcc: 64}
				want := checkIndexAgainstMap(t, rng, cons, cfg, absent)
				// A k-mer that occurs exactly MaxOcc times is returned,
				// one that occurs MaxOcc+1 times is not: take the cap
				// from the most frequent k-mer of this very consensus.
				most := 0
				for _, hits := range want.pos {
					most = max(most, len(hits))
				}
				if f == 1 && most <= cfg.MaxOcc {
					t.Fatalf("k=%d step=%d: no k-mer of the tandem repeat exceeds MaxOcc", k, step)
				}
				if most >= 2 {
					cfg.MaxOcc = most
					checkIndexAgainstMap(t, rng, cons, cfg, 0)
					cfg.MaxOcc = most - 1
					checkIndexAgainstMap(t, rng, cons, cfg, 0)
				}
			}
		}
	}
	// Sequences at and under one k-mer.
	for _, n := range []int{0, 1, 14, 15, 16} {
		checkIndexAgainstMap(t, rng, genome.Random(rng, n), DefaultIndexConfig(), 100)
	}
}

func TestForEachKmerMatchesPerWindow(t *testing.T) {
	type visit struct {
		pos  int
		code uint64
	}
	rng := rand.New(rand.NewSource(21))
	seqs := []genome.Seq{nil, genome.MustFromString("N"), genome.MustFromString("ACGTN"), genome.MustFromString("NACGTACGTACGTACGTACGTACGTACGTACGTAN")}
	for _, cons := range indexFixtures(rng, 3000) {
		seqs = append(seqs, cons, cons[:31], cons[:32], cons[:33])
	}
	for _, s := range seqs {
		for _, k := range []int{4, 11, 15, 16, 17, 31, 32} {
			for _, step := range []int{1, 2, 3, 4, 7, 40} {
				var got, want []visit
				ForEachKmer(s, k, step, func(p int, code uint64) { got = append(got, visit{p, code}) })
				forEachKmerPerWindow(s, k, step, func(p int, code uint64) { want = append(want, visit{p, code}) })
				if !slices.Equal(got, want) {
					t.Fatalf("%d bases, k=%d step=%d: the rolling walk visits %d k-mers, the per-window walk %d, or not the same ones",
						len(s), k, step, len(got), len(want))
				}
			}
		}
	}
}

// FuzzIndexLookup builds both indexes over arbitrary bytes taken mod 5
// as base codes, under an arbitrary K, Step and a small MaxOcc, and
// compares every lookup.
func FuzzIndexLookup(f *testing.F) {
	f.Add([]byte("ACGTACGTACGTACGTACGTAAAAAAAAAAAAAAAAAAAAAAAAA"), uint8(0), uint8(0), uint8(3))
	f.Add([]byte{0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1, 2, 3}, uint8(1), uint8(2), uint8(0))
	f.Add([]byte{}, uint8(27), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, k, step, maxOcc uint8) {
		cons := make(genome.Seq, len(raw))
		for i, b := range raw {
			cons[i] = b % 5
		}
		cfg := IndexConfig{K: 4 + int(k)%28, Step: 1 + int(step)%5, MaxOcc: 1 + int(maxOcc)%8}
		checkIndexAgainstMap(t, rand.New(rand.NewSource(int64(len(raw)))), cons, cfg, 64)
	})
}
