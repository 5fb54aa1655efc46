package fastq

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"sage/internal/genome"
)

func sampleSet() *ReadSet {
	return &ReadSet{Records: []Record{
		{Header: "r1", Seq: genome.MustFromString("ACGT"), Qual: []byte{30, 30, 12, 40}},
		{Header: "r2 desc", Seq: genome.MustFromString("GGNTA"), Qual: []byte{2, 2, 2, 2, 2}},
		{Header: "r3", Seq: genome.MustFromString("T"), Qual: []byte{0}},
	}}
}

func TestWriteParseRoundtrip(t *testing.T) {
	rs := sampleSet()
	var buf bytes.Buffer
	if err := rs.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 3 {
		t.Fatalf("got %d records", len(got.Records))
	}
	for i := range rs.Records {
		a, b := rs.Records[i], got.Records[i]
		if a.Header != b.Header || !a.Seq.Equal(b.Seq) || !bytes.Equal(a.Qual, b.Qual) {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, a, b)
		}
	}
}

func TestUncompressedSizeMatchesBytes(t *testing.T) {
	rs := sampleSet()
	if got, want := rs.UncompressedSize(), len(rs.Bytes()); got != want {
		t.Fatalf("UncompressedSize %d, serialized %d", got, want)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"ACGT\n",                    // missing @
		"@r1\nACGT\n",               // truncated
		"@r1\nACGT\nX\nIIII\n",      // bad separator
		"@r1\nACGT\n+\nIII\n",       // quality length mismatch
		"@r1\nACXT\n+\nIIII\n",      // invalid base
		"@r1\nACGT\n+\nII\x01I\n",   // invalid quality char
		"@r1\nACGT\n+\nIIII\n@r2\n", // truncated second record
	}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c)); err == nil {
			t.Errorf("expected parse error for %q", c)
		}
	}
}

// TestParseEmptyQualityLine pins the truncation guard: a blank quality
// line under a non-empty sequence is how a file cut off mid-record (or
// corrupted in transit) usually reads, and the scanner used to accept
// it silently as an unscored record — turning scored reads into
// unscored ones and poisoning every downstream quality statistic. It is
// an error, named by line number.
func TestParseEmptyQualityLine(t *testing.T) {
	for _, in := range []string{
		"@r1\nACGT\n+\n\n",                    // truncated single record
		"@r1\nACGT\n+\n\n@r2\nTTT\n+\n\n",     // blank quality mid-file
		"@r1\nACGT\n+\nIIII\n@r2\nTTT\n+\n\n", // scored then truncated
	} {
		_, err := Parse(strings.NewReader(in))
		if err == nil {
			t.Errorf("blank quality line parsed silently: %q", in)
			continue
		}
		if !strings.Contains(err.Error(), "empty quality line") {
			t.Errorf("error does not name the blank quality line: %v", err)
		}
	}
	// The error points at the offending line.
	_, err := Parse(strings.NewReader("@r1\nACGT\n+\nIIII\n@r2\nTTT\n+\n\n"))
	if err == nil || !strings.Contains(err.Error(), "line 8") {
		t.Fatalf("error does not carry the line number: %v", err)
	}
	// A zero-length read with a zero-length quality line is degenerate
	// but internally consistent, not a truncation.
	rs, err := Parse(strings.NewReader("@empty\n\n+\n\n@r2\nTTT\n+\nIII\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Records) != 2 || len(rs.Records[0].Seq) != 0 {
		t.Fatalf("degenerate record parse: %+v", rs.Records)
	}
}

func TestValidate(t *testing.T) {
	r := Record{Header: "x", Seq: genome.MustFromString("ACG"), Qual: []byte{1, 2}}
	if err := r.Validate(); err == nil {
		t.Fatal("expected length mismatch error")
	}
	r = Record{Header: "x", Seq: genome.MustFromString("A"), Qual: []byte{200}}
	if err := r.Validate(); err == nil {
		t.Fatal("expected quality range error")
	}
}

func TestEquivalentIgnoresOrder(t *testing.T) {
	a := sampleSet()
	b := &ReadSet{Records: []Record{a.Records[2], a.Records[0], a.Records[1]}}
	b.Records[0].Seq = b.Records[0].Seq.Clone() // mutated below
	if !Equivalent(a, b) {
		t.Fatal("reordered sets must be equivalent")
	}
	b.Records[0].Seq[0] = genome.BaseC
	if Equivalent(a, b) {
		t.Fatal("mutated set must not be equivalent")
	}
}

func TestEquivalentCountsDuplicates(t *testing.T) {
	r := Record{Header: "d", Seq: genome.MustFromString("ACGT"), Qual: []byte{1, 1, 1, 1}}
	a := &ReadSet{Records: []Record{r, r}}
	b := &ReadSet{Records: []Record{r, {Header: "d", Seq: genome.MustFromString("ACGA"), Qual: []byte{1, 1, 1, 1}}}}
	if Equivalent(a, b) {
		t.Fatal("duplicate counting failed")
	}
}

func TestBatches(t *testing.T) {
	rs := &ReadSet{}
	for i := 0; i < 10; i++ {
		rs.Records = append(rs.Records, Record{Header: "r", Seq: genome.MustFromString("A")})
	}
	bs := rs.Batches(3)
	if len(bs) != 4 {
		t.Fatalf("got %d batches", len(bs))
	}
	total := 0
	for i, b := range bs {
		if b.Index != i {
			t.Fatalf("batch %d has index %d", i, b.Index)
		}
		total += len(b.Records)
	}
	if total != 10 {
		t.Fatalf("batches cover %d records", total)
	}
	if got := len(rs.Batches(0)); got != 10 {
		t.Fatalf("size 0 should clamp to 1, got %d batches", got)
	}
}

func TestTotalBasesAndSizes(t *testing.T) {
	rs := sampleSet()
	if rs.TotalBases() != 10 {
		t.Fatalf("TotalBases %d want 10", rs.TotalBases())
	}
	if got, want := rs.UncompressedSize(), len(rs.Bytes()); got != want {
		t.Fatalf("UncompressedSize %d want %d", got, want)
	}
}

func TestQuickWriteParse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rs := &ReadSet{}
		n := rng.Intn(20) + 1
		for i := 0; i < n; i++ {
			l := rng.Intn(50) + 1
			seq := make(genome.Seq, l)
			qual := make([]byte, l)
			for j := 0; j < l; j++ {
				seq[j] = byte(rng.Intn(5))
				qual[j] = byte(rng.Intn(MaxQuality + 1))
			}
			rs.Records = append(rs.Records, Record{
				Header: "read", Seq: seq, Qual: qual,
			})
		}
		got, err := Parse(bytes.NewReader(rs.Bytes()))
		if err != nil {
			return false
		}
		return Equivalent(rs, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
