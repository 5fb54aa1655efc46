package consensus

import (
	"math/rand"
	"strings"
	"testing"

	"sage/internal/fastq"
	"sage/internal/genome"
	"sage/internal/simulate"
)

func TestRevCompCode(t *testing.T) {
	// ACGT -> its reverse complement is ACGT (palindrome).
	code, _ := kmerCode("ACGT")
	if revComp(code, 4) != code {
		t.Fatal("ACGT should be its own reverse complement")
	}
	// AAAA -> TTTT
	a, _ := kmerCode("AAAA")
	tt, _ := kmerCode("TTTT")
	if revComp(a, 4) != tt {
		t.Fatal("revComp(AAAA) != TTTT")
	}
}

func kmerCode(s string) (uint64, bool) {
	seq := genome.MustFromString(s)
	var code uint64
	for _, b := range seq {
		if b > genome.BaseT {
			return 0, false
		}
		code = code<<2 | uint64(b)
	}
	return code, true
}

func TestCanonicalSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		k := 7
		code := rng.Uint64() & kmerMask(k)
		if canonical(code, k) != canonical(revComp(code, k), k) {
			t.Fatal("canonical must be strand-symmetric")
		}
	}
}

func TestFromReadsReconstructsCleanGenome(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := genome.Random(rng, 20000)
	// Error-free 150bp reads at 20x depth.
	sim := simulate.New(rng, g)
	p := simulate.DefaultShortProfile()
	p.SubRate, p.InsRate, p.DelRate, p.NRate = 0, 0, 0, 0
	n := 20 * len(g) / p.ReadLen
	rs, err := sim.ShortReads(n, p)
	if err != nil {
		t.Fatal(err)
	}
	c, err := FromReads(rs)
	if err != nil {
		t.Fatal(err)
	}
	// The consensus should recover nearly the whole genome in one or
	// few unitigs (random genomes have almost no repeats).
	if len(c.Seq) < len(g)*8/10 {
		t.Fatalf("consensus covers %d of %d bases", len(c.Seq), len(g))
	}
	if len(c.Seq) > len(g)*12/10 {
		t.Fatalf("consensus %d bases is badly inflated vs genome %d", len(c.Seq), len(g))
	}
	// The longest unitig must be a genuine substring of the genome or
	// its reverse complement.
	gStr, gRC := g.String(), g.ReverseComplement().String()
	probe := c.Seq[:500].String()
	if !strings.Contains(gStr, probe) && !strings.Contains(gRC, probe) {
		t.Fatal("consensus prefix is not a genome substring")
	}
}

func TestFromReadsFiltersErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := genome.Random(rng, 15000)
	sim := simulate.New(rng, g)
	p := simulate.DefaultShortProfile()
	p.SubRate = 0.002 // typical Illumina
	n := 25 * len(g) / p.ReadLen
	rs, err := sim.ShortReads(n, p)
	if err != nil {
		t.Fatal(err)
	}
	c, err := FromReads(rs)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Seq) < len(g)/2 {
		t.Fatalf("consensus too small: %d of %d", len(c.Seq), len(g))
	}
	// With MinCount filtering, error k-mers must not inflate the
	// consensus beyond ~1.5x the genome.
	if len(c.Seq) > len(g)*3/2 {
		t.Fatalf("consensus inflated by error k-mers: %d vs genome %d", len(c.Seq), len(g))
	}
}

func TestFromReadsValidation(t *testing.T) {
	if _, err := FromReads(&fastq.ReadSet{}); err == nil {
		t.Fatal("expected error for empty read set")
	}
}

func TestFromReadsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := genome.Random(rng, 8000)
	sim := simulate.New(rng, g)
	p := simulate.DefaultShortProfile()
	p.SubRate, p.InsRate, p.DelRate, p.NRate = 0, 0, 0, 0
	rs, err := sim.ShortReads(1200, p)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := FromReads(rs)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := FromReads(rs)
	if err != nil {
		t.Fatal(err)
	}
	if !c1.Seq.Equal(c2.Seq) {
		t.Fatal("FromReads must be deterministic")
	}
}

func TestPathToSeq(t *testing.T) {
	// Path of 3-mers: ACG -> CGT -> GTA spells ACGTA.
	codes := []uint64{}
	for _, s := range []string{"ACG", "CGT", "GTA"} {
		c, _ := kmerCode(s)
		codes = append(codes, c)
	}
	got := pathToSeq(codes, 3)
	if got.String() != "ACGTA" {
		t.Fatalf("got %q want ACGTA", got.String())
	}
	if pathToSeq(nil, 3) != nil {
		t.Fatal("empty path should give nil")
	}
}
