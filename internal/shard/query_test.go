package shard

import (
	"bytes"
	"strings"
	"testing"

	"sage/internal/fastq"
	"sage/internal/genome"
)

func rec(seq string, quals ...byte) fastq.Record {
	r := fastq.Record{Header: "r", Seq: genome.MustFromString(seq)}
	if len(quals) > 0 {
		r.Qual = quals
	}
	return r
}

func TestComputeZoneMap(t *testing.T) {
	recs := []fastq.Record{
		rec("ACGTACGTAC", 30, 30, 30, 30, 30, 30, 30, 30, 30, 30), // avg 30, GC 0.5
		rec("GGGG", 5, 5, 5, 5),                                   // avg 5: low quality, GC 1
		rec("AATTAA"),                                             // unscored, GC 0
	}
	z := ComputeZoneMap(recs, 16, true)
	if z.MinLen != 4 || z.MaxLen != 10 {
		t.Fatalf("length envelope [%d,%d], want [4,10]", z.MinLen, z.MaxLen)
	}
	if z.QualReads != 2 || z.LowQualReads != 1 {
		t.Fatalf("QualReads=%d LowQualReads=%d, want 2, 1", z.QualReads, z.LowQualReads)
	}
	if z.MinPhred != 5 {
		t.Fatalf("MinPhred=%d, want 5", z.MinPhred)
	}
	if z.MinAvgPhredMilli != 5000 || z.MaxAvgPhredMilli != 30000 {
		t.Fatalf("avg Phred envelope [%d,%d], want [5000,30000]", z.MinAvgPhredMilli, z.MaxAvgPhredMilli)
	}
	if z.MinGCMilli != 0 || z.MaxGCMilli != 1000 {
		t.Fatalf("GC envelope [%d,%d], want [0,1000]", z.MinGCMilli, z.MaxGCMilli)
	}
	if z.MinEEMilli > z.MaxEEMilli {
		t.Fatalf("EE envelope inverted [%d,%d]", z.MinEEMilli, z.MaxEEMilli)
	}
	if len(z.Sketch) != 16 {
		t.Fatalf("sketch is %d bytes, want 16", len(z.Sketch))
	}

	// Quality-discarding writers must report unscored statistics.
	nq := ComputeZoneMap(recs, 0, false)
	if nq.QualReads != 0 || nq.MaxAvgPhredMilli != 0 || len(nq.Sketch) != 0 {
		t.Fatalf("withQuality=false leaked quality stats: %+v", nq)
	}
}

func TestPredicateMatchRecord(t *testing.T) {
	scored := rec("ACGTACGTACGT", 30, 30, 30, 30, 30, 30, 30, 30, 30, 30, 30, 30)
	unscored := rec("ACGTACGTACGT")
	scoredEE, _ := fastq.ExpectedError(scored.Qual, 0)
	cases := []struct {
		name string
		p    Predicate
		r    fastq.Record
		want bool
	}{
		{"min-len pass", Predicate{MinLen: 12}, scored, true},
		{"min-len fail", Predicate{MinLen: 13}, scored, false},
		{"max-len pass", Predicate{MaxLen: 12}, scored, true},
		{"max-len fail", Predicate{MaxLen: 11}, scored, false},
		{"min-avgphred pass", Predicate{MinAvgPhred: 30}, scored, true},
		{"min-avgphred fail", Predicate{MinAvgPhred: 30.5}, scored, false},
		{"min-avgphred unscored", Predicate{MinAvgPhred: 1}, unscored, false},
		{"max-ee pass", Predicate{MaxEE: 1}, scored, true},
		{"max-ee inclusive", Predicate{MaxEE: scoredEE}, scored, true},
		{"max-ee fail", Predicate{MaxEE: 0.001}, scored, false},
		{"max-ee unscored", Predicate{MaxEE: 100}, unscored, false},
		{"gc band pass", Predicate{MinGC: 0.4, MaxGC: 0.6}, scored, true},
		{"gc band fail", Predicate{MinGC: 0.6}, scored, false},
		{"gc bounds inclusive", Predicate{MinGC: 0.5, MaxGC: 0.5}, scored, true},
		{"max-gc fail", Predicate{MaxGC: 0.4}, scored, false},
		{"subseq forward", Predicate{Subseq: genome.MustFromString("GTAC")}, scored, true},
		{"subseq absent", Predicate{Subseq: genome.MustFromString("GGGG")}, scored, false},
	}
	for _, c := range cases {
		if got := c.p.MatchRecord(&c.r); got != c.want {
			t.Fatalf("%s: MatchRecord = %v, want %v", c.name, got, c.want)
		}
	}
	// Reverse-complement containment: the record holds AACCC, so the
	// probe GGGTT (its reverse complement) must match too.
	rcRec := rec("TTAACCCTT")
	p := Predicate{Subseq: genome.MustFromString("GGGTT")}
	if !p.MatchRecord(&rcRec) {
		t.Fatal("reverse-complement probe did not match")
	}
}

func TestPredicatePruneConservative(t *testing.T) {
	// Three shards with disjoint length bands; prune only what provably
	// cannot match, and never a shard whose records would match.
	mk := func(recs ...fastq.Record) Entry {
		return Entry{ReadCount: len(recs), Zone: ComputeZoneMap(recs, 64, true)}
	}
	short := mk(rec("ACGT", 30, 30, 30, 30), rec("ACGTA", 30, 30, 30, 30, 30))
	long := mk(rec("ACGTACGTACGTACGTACGT", 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10))
	for _, tc := range []struct {
		name  string
		p     Predicate
		entry Entry
		prune bool
	}{
		{"min-len prunes short", Predicate{MinLen: 10}, short, true},
		{"min-len keeps long", Predicate{MinLen: 10}, long, false},
		{"max-len prunes long", Predicate{MaxLen: 10}, long, true},
		{"max-len keeps short", Predicate{MaxLen: 10}, short, false},
		{"quality prunes low", Predicate{MinAvgPhred: 20}, long, true},
		{"quality keeps high", Predicate{MinAvgPhred: 20}, short, false},
		{"ee prunes noisy", Predicate{MaxEE: 0.01}, long, true},
		{"empty entry prunes", Predicate{}, Entry{ReadCount: 0}, true},
		{"unknown zone never prunes", Predicate{MinLen: 10}, Entry{ReadCount: 5}, false},
	} {
		if got := tc.p.PruneShard(&tc.entry); got != tc.prune {
			t.Fatalf("%s: PruneShard = %v, want %v", tc.name, got, tc.prune)
		}
	}
}

func TestSketchPruning(t *testing.T) {
	// Two shards over different k-mer content; a probe from one
	// must prune the other but never its own.
	a := strings.Repeat("ACGTTGCAACGT", 8)
	b := strings.Repeat("GGATCCGGATAT", 8)
	ea := Entry{ReadCount: 1, Zone: ComputeZoneMap([]fastq.Record{rec(a)}, 64, true)}
	eb := Entry{ReadCount: 1, Zone: ComputeZoneMap([]fastq.Record{rec(b)}, 64, true)}
	probe := Predicate{Subseq: genome.MustFromString(a[:2*SketchK])}
	if probe.PruneShard(&ea) {
		t.Fatal("probe pruned the shard that contains it")
	}
	if !probe.PruneShard(&eb) {
		t.Fatal("probe failed to prune a foreign shard (sketch too saturated for the test data?)")
	}
	// A reverse-complemented probe hits the same canonical k-mers.
	rcProbe := Predicate{Subseq: genome.MustFromString(a[:2*SketchK]).ReverseComplement()}
	if rcProbe.PruneShard(&ea) {
		t.Fatal("reverse-complement probe pruned the containing shard")
	}
	// Probes shorter than SketchK carry no k-mers: only the length rule
	// may prune.
	shortProbe := Predicate{Subseq: genome.MustFromString("ACG")}
	if shortProbe.PruneShard(&ea) {
		t.Fatal("sub-k probe pruned via the sketch")
	}
}

// TestFilterEndToEnd compresses a mixed container and checks Filter
// prunes, scans, and matches exactly as a full decode + record filter
// would.
func TestFilterEndToEnd(t *testing.T) {
	rs, ref := testSet(t, 120)
	opt := DefaultOptions(ref)
	opt.ShardReads = 20
	data, _, err := Compress(rs, opt)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth by full decode: the codec may reorder records
	// within a shard, so the reference order is the decoded one.
	dec, err := Decompress(data, 2)
	if err != nil {
		t.Fatal(err)
	}
	pred := &Predicate{Subseq: dec.Records[0].Seq[:24].Clone()}
	var want bytes.Buffer
	wantMatched := 0
	for i := range dec.Records {
		if pred.MatchRecord(&dec.Records[i]) {
			wantMatched++
			(&fastq.ReadSet{Records: dec.Records[i : i+1]}).Write(&want)
		}
	}
	if wantMatched == 0 {
		t.Fatal("test probe matches nothing; pick a different record")
	}

	var got bytes.Buffer
	st, err := c.Filter(&got, pred, 3)
	if err != nil {
		t.Fatal(err)
	}
	if st.ReadsMatched != wantMatched {
		t.Fatalf("Filter matched %d reads, full scan says %d", st.ReadsMatched, wantMatched)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("Filter output diverges from the full-decode filter (%d vs %d bytes)",
			got.Len(), want.Len())
	}
	if st.ShardsPruned+st.ShardsScanned != st.ShardsTotal || st.ShardsTotal != c.NumShards() {
		t.Fatalf("inconsistent stats: %+v", st)
	}
	// An inactive predicate is a plain full decompression.
	var all bytes.Buffer
	ast, err := c.Filter(&all, &Predicate{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ast.ShardsPruned != 0 || ast.ReadsMatched != len(rs.Records) {
		t.Fatalf("inactive predicate stats: %+v", ast)
	}
	if !bytes.Equal(all.Bytes(), dec.Bytes()) {
		t.Fatal("inactive Filter output differs from the full decompression")
	}
}
