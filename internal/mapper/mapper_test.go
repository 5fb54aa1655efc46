package mapper

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"sage/internal/genome"
)

func TestEncodeKmer(t *testing.T) {
	code, ok := encodeKmer(genome.MustFromString("ACGT"))
	if !ok {
		t.Fatal("ACGT should encode")
	}
	// A=00 C=01 G=10 T=11 -> 00011011
	if code != 0b00011011 {
		t.Fatalf("got %b", code)
	}
	if _, ok := encodeKmer(genome.MustFromString("ACNT")); ok {
		t.Fatal("k-mer with N must not encode")
	}
}

func TestIndexLookup(t *testing.T) {
	cons := genome.MustFromString("ACGTACGTACGT")
	idx, err := NewIndex(cons, IndexConfig{K: 4, Step: 1, MaxOcc: 64})
	if err != nil {
		t.Fatal(err)
	}
	code, _ := encodeKmer(genome.MustFromString("ACGT"))
	hits := idx.Lookup(code)
	if len(hits) != 3 {
		t.Fatalf("got %d hits want 3", len(hits))
	}
	if hits[0] != 0 || hits[1] != 4 || hits[2] != 8 {
		t.Fatalf("got %v", hits)
	}
}

func TestIndexMaxOcc(t *testing.T) {
	cons := make(genome.Seq, 100) // poly-A
	idx, err := NewIndex(cons, IndexConfig{K: 5, Step: 1, MaxOcc: 10})
	if err != nil {
		t.Fatal(err)
	}
	code, _ := encodeKmer(cons[:5])
	if idx.Lookup(code) != nil {
		t.Fatal("over-frequent k-mer should be suppressed")
	}
}

func TestIndexRejectsBadK(t *testing.T) {
	if _, err := NewIndex(genome.MustFromString("ACGT"), IndexConfig{K: 40}); err == nil {
		t.Fatal("expected error for k>31")
	}
	if _, err := NewIndex(genome.MustFromString("ACGT"), IndexConfig{K: 2}); err == nil {
		t.Fatal("expected error for k<4")
	}
}

// fitKernels are the two implementations of the fitting-alignment
// contract: the bit-parallel production kernel over the symmetric band
// the oracle uses, and the int32 DP oracle itself.
var fitKernels = []struct {
	name string
	fit  func(read, window genome.Seq, band int) (int, []Edit, int, error)
}{
	{"kernel", func(read, window genome.Seq, band int) (int, []Edit, int, error) {
		start, edits, cost, ok := bandAlign(new(mapScratch), read, window, -band, band, 0)
		if !ok {
			return 0, nil, 0, errors.New("no feasible path")
		}
		return start, edits, cost, nil
	}},
	{"oracle", func(read, window genome.Seq, band int) (int, []Edit, int, error) {
		return fitAlign(new(oracleScratch), read, window, band, 0)
	}},
}

func TestFitAlignExactMatch(t *testing.T) {
	cons := genome.MustFromString("TTTTACGTACGTTTTT")
	read := genome.MustFromString("ACGTACGT")
	for _, k := range fitKernels {
		start, edits, cost, err := k.fit(read, cons, 16)
		if err != nil {
			t.Fatal(k.name, err)
		}
		if cost != 0 || len(edits) != 0 {
			t.Fatalf("%s: cost=%d edits=%v", k.name, cost, edits)
		}
		if start != 4 {
			t.Fatalf("%s: start=%d want 4", k.name, start)
		}
	}
}

func TestFitAlignSubstitution(t *testing.T) {
	cons := genome.MustFromString("AAAACGTACGTAAAA")
	read := genome.MustFromString("CGTTCGT") // one substitution vs CGTACGT
	for _, k := range fitKernels {
		start, edits, cost, err := k.fit(read, cons, 15)
		if err != nil {
			t.Fatal(k.name, err)
		}
		if cost != 1 || len(edits) != 1 {
			t.Fatalf("%s: cost=%d edits=%+v", k.name, cost, edits)
		}
		e := edits[0]
		if e.Type != genome.Substitution || e.ReadPos != 3 || e.Bases[0] != genome.BaseT {
			t.Fatalf("%s: edit %+v", k.name, e)
		}
		got, err := appendSegment(nil, cons, start, len(read), edits)
		if err != nil {
			t.Fatal(k.name, err)
		}
		if !got.Equal(read) {
			t.Fatalf("%s: reconstructed %q want %q", k.name, got.String(), read.String())
		}
	}
}

func TestFitAlignIndelBlocks(t *testing.T) {
	cons := genome.MustFromString("GGGGACGTACGTACGTGGGG")
	// Read = cons[4:16] with "TT" inserted after 4 bases and 3 bases deleted later.
	read := genome.MustFromString("ACGTTTACG" + "CGT") // ACGT +TT ACG [TAC deleted] CGT
	for _, k := range fitKernels {
		start, edits, cost, err := k.fit(read, cons, 20)
		if err != nil {
			t.Fatal(k.name, err)
		}
		if cost == 0 {
			t.Fatal(k.name, "expected nonzero cost")
		}
		got, err := appendSegment(nil, cons, start, len(read), edits)
		if err != nil {
			t.Fatal(k.name, err)
		}
		if !got.Equal(read) {
			t.Fatalf("%s: reconstructed %q want %q (edits %+v)", k.name, got.String(), read.String(), edits)
		}
		// Insertion runs must be merged into blocks.
		for i := 1; i < len(edits); i++ {
			if edits[i].Type == genome.Insertion && edits[i-1].Type == genome.Insertion &&
				edits[i].ReadPos == edits[i-1].ReadPos+len(edits[i-1].Bases) {
				t.Fatal(k.name, "adjacent insertions were not merged into a block")
			}
		}
	}
}

func TestFitAlignEmptyWindow(t *testing.T) {
	for _, k := range fitKernels {
		if _, _, _, err := k.fit(genome.MustFromString("ACGT"), nil, 4); err == nil {
			t.Fatal(k.name, "expected error for empty window")
		}
	}
}

// Property: a fitting alignment + appendSegment is the identity on
// the read for arbitrary mutated fragments, regardless of alignment
// quality.
func TestQuickFitAlignRoundtrip(t *testing.T) {
	for _, k := range fitKernels {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			cons := genome.Random(rng, 600)
			// Take a fragment and mutate it heavily.
			fl := 80 + rng.Intn(200)
			start := rng.Intn(len(cons) - fl)
			read := cons[start : start+fl].Clone()
			for i := 0; i < len(read); i++ {
				switch rng.Intn(12) {
				case 0:
					read[i] = byte(rng.Intn(4))
				case 1:
					read = append(read[:i], read[i+1:]...)
				case 2:
					read = append(read[:i+1], read[i:]...)
					read[i] = byte(rng.Intn(4))
					i++
				}
			}
			if len(read) == 0 {
				return true
			}
			winLo := start - 40
			if winLo < 0 {
				winLo = 0
			}
			winHi := start + fl + 40
			if winHi > len(cons) {
				winHi = len(cons)
			}
			cs, edits, _, err := k.fit(read, cons[winLo:winHi], 80)
			if err != nil {
				return false
			}
			got, err := appendSegment(nil, cons[winLo:winHi], cs, len(read), edits)
			return err == nil && got.Equal(read)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Fatal(k.name, err)
		}
	}
}

func buildMapper(t *testing.T, cons genome.Seq) *Mapper {
	t.Helper()
	m, err := New(cons, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMapExactRead(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cons := genome.Random(rng, 20000)
	m := buildMapper(t, cons)
	read := cons[5000:5150].Clone()
	a := m.Map(read)
	if !a.Mapped || len(a.Segments) != 1 {
		t.Fatalf("alignment %+v", a)
	}
	seg := a.Segments[0]
	if seg.Rev || seg.ConsPos != 5000 || seg.Cost != 0 {
		t.Fatalf("segment %+v", seg)
	}
	got, err := ReconstructRead(cons, a, len(read))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(read) {
		t.Fatal("reconstruction mismatch")
	}
}

func TestMapReverseComplementRead(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cons := genome.Random(rng, 20000)
	m := buildMapper(t, cons)
	read := cons[7000:7150].ReverseComplement()
	a := m.Map(read)
	if !a.Mapped || len(a.Segments) != 1 || !a.Segments[0].Rev {
		t.Fatalf("alignment %+v", a)
	}
	got, err := ReconstructRead(cons, a, len(read))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(read) {
		t.Fatal("reconstruction mismatch")
	}
}

func TestMapMutatedRead(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cons := genome.Random(rng, 30000)
	m := buildMapper(t, cons)
	read := cons[9000:9200].Clone()
	read[50] = (read[50] + 1) % 4
	read[51] = (read[51] + 2) % 4
	read = append(read[:120], read[123:]...) // 3-base deletion
	a := m.Map(read)
	if !a.Mapped {
		t.Fatal("read should map")
	}
	if a.NumMismatches() == 0 {
		t.Fatal("expected mismatches")
	}
	got, err := ReconstructRead(cons, a, len(read))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(read) {
		t.Fatal("reconstruction mismatch")
	}
}

func TestMapChimericRead(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	cons := genome.Random(rng, 50000)
	m := buildMapper(t, cons)
	// Join two distant regions (Fig. 9).
	read := append(cons[3000:3400].Clone(), cons[40000:40400].Clone()...)
	a := m.Map(read)
	if !a.Mapped {
		t.Fatal("chimeric read should map")
	}
	if len(a.Segments) < 2 {
		t.Fatalf("expected >=2 segments, got %d (cost dominated alignment?)", len(a.Segments))
	}
	got, err := ReconstructRead(cons, a, len(read))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(read) {
		t.Fatal("reconstruction mismatch")
	}
}

func TestMapUnmappableRead(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	cons := genome.Random(rng, 20000)
	m := buildMapper(t, cons)
	// A random read is overwhelmingly unlikely to share 15-mers with cons.
	read := genome.Random(rand.New(rand.NewSource(999)), 150)
	a := m.Map(read)
	if a.Mapped {
		// If it mapped, reconstruction must still hold (the invariant
		// that matters for losslessness).
		got, err := ReconstructRead(cons, a, len(read))
		if err != nil || !got.Equal(read) {
			t.Fatal("mapped random read failed reconstruction")
		}
	}
}

func TestMapTooShortRead(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	cons := genome.Random(rng, 2000)
	m := buildMapper(t, cons)
	if a := m.Map(cons[10:14].Clone()); a.Mapped {
		t.Fatal("reads shorter than k must be unmapped")
	}
}

// Property: whatever the mapper returns, reconstruction is lossless.
func TestQuickMapReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cons := genome.Random(rng, 40000)
	m := buildMapper(t, cons)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		l := 100 + r.Intn(400)
		start := r.Intn(len(cons) - l)
		read := cons[start : start+l].Clone()
		// Random mutations, sometimes heavy.
		mutRate := []float64{0.001, 0.01, 0.05}[r.Intn(3)]
		for i := 0; i < len(read); i++ {
			if r.Float64() < mutRate {
				switch r.Intn(3) {
				case 0:
					read[i] = byte(r.Intn(4))
				case 1:
					if len(read) > 1 {
						read = append(read[:i], read[i+1:]...)
					}
				case 2:
					read = append(read[:i+1], read[i:]...)
					read[i] = byte(r.Intn(4))
				}
			}
		}
		if r.Intn(2) == 0 {
			read = read.ReverseComplement()
		}
		a := m.Map(read)
		if !a.Mapped {
			return true // unmapped is always safe
		}
		got, err := ReconstructRead(cons, a, len(read))
		return err == nil && got.Equal(read)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentsPartitionRead(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	cons := genome.Random(rng, 60000)
	m := buildMapper(t, cons)
	read := append(cons[1000:1500].Clone(), cons[30000:30500].ReverseComplement()...)
	a := m.Map(read)
	if !a.Mapped {
		t.Skip("chimera did not map under default config")
	}
	covered := 0
	next := 0
	for _, s := range a.Segments {
		if s.ReadStart != next {
			t.Fatalf("segment starts at %d, expected %d", s.ReadStart, next)
		}
		covered += s.ReadLen
		next = s.ReadStart + s.ReadLen
	}
	if covered != len(read) {
		t.Fatalf("segments cover %d of %d bases", covered, len(read))
	}
}

func TestEditLen(t *testing.T) {
	if (Edit{Type: genome.Substitution, Bases: genome.Seq{0}}).Len() != 1 {
		t.Fatal("sub len")
	}
	if (Edit{Type: genome.Insertion, Bases: genome.Seq{0, 1, 2}}).Len() != 3 {
		t.Fatal("ins len")
	}
	if (Edit{Type: genome.Deletion, DelLen: 5}).Len() != 5 {
		t.Fatal("del len")
	}
}

// A region that is its own reverse complement seeds the same diagonal
// with the same count on both strands. Which cluster is aligned decides
// Segment.Rev and so the container's bytes: it must be the forward one,
// and must not depend on the order the sort met the clusters in.
func TestClusterTieOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	half := genome.Random(rng, 100)
	palindrome := append(half.Clone(), half.ReverseComplement()...)
	cons := append(append(genome.Random(rng, 5000), palindrome...), genome.Random(rng, 5000)...)
	m := buildMapper(t, cons)
	sc := new(mapScratch)
	fwd := m.collectClusters(nil, sc, palindrome, false)
	rev := m.collectClusters(nil, sc, palindrome.ReverseComplement(), true)
	if len(fwd) != 1 || len(rev) != 1 || fwd[0].count != rev[0].count || fwd[0].minDiag != rev[0].minDiag {
		t.Fatalf("palindrome should seed both strands alike: fwd %+v rev %+v", fwd, rev)
	}
	a := m.Map(palindrome)
	if !a.Mapped || len(a.Segments) != 1 || a.Segments[0].Rev || a.Segments[0].ConsPos != 5000 {
		t.Fatalf("alignment %+v", a)
	}

	// More equal-count clusters than the sort's insertion-sort cutoff,
	// met in many orders, always leave in one.
	var clusters []cluster
	for i := 0; i < 48; i++ {
		clusters = append(clusters, cluster{rev: i%2 == 1, minDiag: 100 * (i / 2), maxDiag: 100 * (i / 2), count: 2 + i%3})
	}
	want := slices.Clone(clusters)
	slices.SortFunc(want, compareClusters)
	for i := 1; i < len(want); i++ {
		p, c := want[i-1], want[i]
		if p.count < c.count || (p.count == c.count && (p.rev && !c.rev || p.rev == c.rev && p.minDiag >= c.minDiag)) {
			t.Fatalf("order is not count desc, forward first, diagonal asc at %d: %+v then %+v", i, p, c)
		}
	}
	for trial := 0; trial < 20; trial++ {
		got := slices.Clone(clusters)
		rng.Shuffle(len(got), func(i, j int) { got[i], got[j] = got[j], got[i] })
		slices.SortFunc(got, compareClusters)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: sorted order depends on input order", trial)
		}
	}
}

// A lone mismatch on a pinned diagonal is a substitution wherever it
// falls. The banded kernel alone agrees on the first base but not on the
// last, where its lowest-end-column rule stops one consensus base early
// and inserts the read's last base — 6 bits of mismatch base and type
// where the substitution takes 2 — so the first tier's answer is kept.
func TestLoneMismatchIsSubstitution(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	cons := genome.Random(rng, 20000)
	m := buildMapper(t, cons)
	for _, at := range []int{0, 77, 149} {
		read := cons[6000:6150].Clone()
		read[at] = (read[at] + 1) % 4
		a := m.Map(read)
		if !a.Mapped || len(a.Segments) != 1 {
			t.Fatalf("mismatch at %d: alignment %+v", at, a)
		}
		seg := a.Segments[0]
		if seg.ConsPos != 6000 || seg.Cost != 1 || len(seg.Edits) != 1 ||
			seg.Edits[0].Type != genome.Substitution || seg.Edits[0].ReadPos != at || seg.Edits[0].Bases[0] != read[at] {
			t.Fatalf("mismatch at %d: segment %+v", at, seg)
		}
		pinned := cluster{minDiag: 6000, maxDiag: 6000}
		pos, edits, cost, ok := m.alignBanded(new(mapScratch), read, 0, pinned)
		if !ok || cost != 1 || pos != 6000 || len(edits) != 1 || edits[0].ReadPos != at {
			t.Fatalf("mismatch at %d: banded tier pos %d cost %d %+v", at, pos, cost, edits)
		}
		wantType := genome.Substitution
		if at == len(read)-1 {
			wantType = genome.Insertion
		}
		if edits[0].Type != wantType {
			t.Fatalf("mismatch at %d: banded tier chose %v, want %v", at, edits[0].Type, wantType)
		}
	}
}
