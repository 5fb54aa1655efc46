package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sage/internal/bitio"
	"sage/internal/fastq"
	"sage/internal/genome"
)

func TestInspect(t *testing.T) {
	ref, rs := makeShortSet(t, 31, 30000, 200)
	enc, err := Compress(rs, DefaultOptions(ref))
	if err != nil {
		t.Fatal(err)
	}
	info, err := Inspect(enc.Data)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"SAGe container", "reads: 200", "MPGA", "MBTA", "matchDelta"} {
		if !strings.Contains(info, want) {
			t.Fatalf("inspect output missing %q:\n%s", want, info)
		}
	}
	if _, err := Inspect([]byte("garbage")); err == nil {
		t.Fatal("inspect must reject garbage")
	}
}

// TestScanUnitStreams drives a ScanUnit directly over hand-built guide
// and position streams, the way the hardware consumes them (Fig. 11).
func TestScanUnitStreams(t *testing.T) {
	matchTab, err := NewAssociationTable([]uint8{4, 12})
	if err != nil {
		t.Fatal(err)
	}
	countTab, err := NewAssociationTable([]uint8{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	misTab, err := NewAssociationTable([]uint8{3, 8})
	if err != nil {
		t.Fatal(err)
	}
	lenTab, err := NewAssociationTable([]uint8{8}) // read lengths
	if err != nil {
		t.Fatal(err)
	}
	indelTab, err := NewAssociationTable([]uint8{4})
	if err != nil {
		t.Fatal(err)
	}
	var tables [numTables]*AssociationTable
	tables[tabMatchDelta] = matchTab
	tables[tabMismatchCount] = countTab
	tables[tabMismatchDelta] = misTab
	tables[tabReadLen] = lenTab
	tables[tabIndelLen] = indelTab

	mpga := bitio.NewWriter(64)
	mpa := bitio.NewWriter(64)
	mmpga := bitio.NewWriter(64)
	mmpa := bitio.NewWriter(64)
	// One read record: match delta 9, fwd strand, 1 segment, length 40.
	if err := matchTab.EncodeValue(mpga, mpa, 9); err != nil {
		t.Fatal(err)
	}
	mpga.WriteBool(false)
	mpga.WriteUnary(0)
	if err := lenTab.EncodeValue(mpga, mpa, 40); err != nil {
		t.Fatal(err)
	}
	// Two mismatches at deltas 5 and 7; the second is a 3-long indel.
	if err := countTab.EncodeValue(mmpga, mmpga, 2); err != nil {
		t.Fatal(err)
	}
	if err := misTab.EncodeValue(mmpga, mmpa, 5); err != nil {
		t.Fatal(err)
	}
	if err := misTab.EncodeValue(mmpga, mmpa, 7); err != nil {
		t.Fatal(err)
	}
	mmpga.WriteBit(0) // not single-base
	if err := indelTab.EncodeValue(mmpga, mmpa, 3); err != nil {
		t.Fatal(err)
	}

	su := &ScanUnit{
		tables: tables,
		mpga:   bitio.NewReader(mpga.Bytes(), mpga.Len()),
		mpa:    bitio.NewReader(mpa.Bytes(), mpa.Len()),
		mmpga:  bitio.NewReader(mmpga.Bytes(), mmpga.Len()),
		mmpa:   bitio.NewReader(mmpa.Bytes(), mmpa.Len()),
	}
	if d, err := su.MatchDelta(); err != nil || d != 9 {
		t.Fatalf("match delta %d,%v", d, err)
	}
	if rev, err := su.Rev(); err != nil || rev {
		t.Fatalf("rev %v,%v", rev, err)
	}
	if n, err := su.SegCount(); err != nil || n != 1 {
		t.Fatalf("segments %d,%v", n, err)
	}
	if l, err := su.ReadLen(); err != nil || l != 40 {
		t.Fatalf("read len %d,%v", l, err)
	}
	if c, err := su.MismatchCount(); err != nil || c != 2 {
		t.Fatalf("count %d,%v", c, err)
	}
	if d, err := su.MismatchDelta(); err != nil || d != 5 {
		t.Fatalf("delta %d,%v", d, err)
	}
	if d, err := su.MismatchDelta(); err != nil || d != 7 {
		t.Fatalf("delta %d,%v", d, err)
	}
	if l, err := su.IndelLen(); err != nil || l != 3 {
		t.Fatalf("indel len %d,%v", l, err)
	}
}

func TestRCUConsBaseClamping(t *testing.T) {
	rcu := &ReadConstructionUnit{cons: genome.MustFromString("ACGT")}
	if rcu.ConsBase(-5) != genome.BaseA {
		t.Fatal("negative cursor must clamp to start")
	}
	if rcu.ConsBase(100) != genome.BaseT {
		t.Fatal("overflow cursor must clamp to end")
	}
	if rcu.ConsBase(2) != genome.BaseG {
		t.Fatal("in-range cursor")
	}
}

func TestRCURejectsBadBaseCode(t *testing.T) {
	w := bitio.NewWriter(1)
	w.WriteBits(7, 3) // invalid 3-bit base code
	rcu := &ReadConstructionUnit{
		cons: genome.MustFromString("ACGT"),
		mbta: bitio.NewReader(w.Bytes(), w.Len()),
	}
	if _, err := rcu.Base(3); err == nil {
		t.Fatal("base code 7 must be rejected")
	}
}

// TestDecodeRejectsCorruptGuideCodes flips guide-stream bits and checks
// the decoder fails cleanly rather than mis-reconstructing silently or
// panicking. (Some corruptions still decode to a syntactically valid but
// different read set; those are outside the format's error model, like
// any compressor without checksums.)
func TestDecodeRejectsCorruptGuideCodes(t *testing.T) {
	ref, rs := makeShortSet(t, 32, 20000, 150)
	opt := DefaultOptions(ref)
	// DNA streams only: corruption in the quality range coder is
	// undetectable by construction (adaptive arithmetic decoding).
	opt.IncludeQuality = false
	opt.IncludeHeaders = false
	opt.EmbedConsensus = false
	enc, err := Compress(rs, opt)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(33))
	failures := 0
	const trials = 60
	for trial := 0; trial < trials; trial++ {
		data := append([]byte(nil), enc.Data...)
		pos := len(data)/4 + rng.Intn(len(data)/2)
		data[pos] ^= 1 << uint(rng.Intn(8))
		if _, err := Decompress(data, ref); err != nil {
			failures++
		}
	}
	if failures < trials/4 {
		t.Fatalf("only %d/%d corruptions detected; the decoder's bounds checks are not firing", failures, trials)
	}
}

func BenchmarkCoreCompressShort(b *testing.B) {
	rng := rand.New(rand.NewSource(41))
	ref := genome.Random(rng, 60000)
	rs := makeBenchReads(rng, ref, 800)
	opt := DefaultOptions(ref)
	b.SetBytes(int64(rs.TotalBases()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compress(rs, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// consCopyPerBase is consCopy as it was before it copied in bulk: one
// range test and one append per base.
func consCopyPerBase(out, cons genome.Seq, cursor *int, target int) (genome.Seq, error) {
	for len(out) < target {
		if *cursor < 0 || *cursor >= len(cons) {
			return out, fmt.Errorf("core: consensus cursor %d out of range", *cursor)
		}
		out = append(out, cons[*cursor])
		*cursor++
	}
	return out, nil
}

// consCopy equals the per-base loop — output, cursor and error text —
// with the cursor before, inside, at and past either end of the
// consensus, targets already met, and an empty consensus.
func TestConsCopyMatchesPerBase(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 5000; trial++ {
		cons := genome.Random(rng, rng.Intn(30))
		prefix := genome.Random(rng, rng.Intn(6))
		start := rng.Intn(len(cons)+8) - 4
		target := len(prefix) + rng.Intn(40) - 4
		wantCur, gotCur := start, start
		want, wantErr := consCopyPerBase(prefix.Clone(), cons, &wantCur, target)
		got, gotErr := consCopy(prefix.Clone(), cons, &gotCur, target)
		if !genome.Seq(got).Equal(want) || gotCur != wantCur || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("cons %d, cursor %d, %d -> %d bases: got %v cursor %d (%v), want %v cursor %d (%v)",
				len(cons), start, len(prefix), target, got, gotCur, gotErr, want, wantCur, wantErr)
		}
	}
}

func BenchmarkCoreDecompressShort(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	ref := genome.Random(rng, 60000)
	rs := makeBenchReads(rng, ref, 800)
	enc, err := Compress(rs, DefaultOptions(ref))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(rs.TotalBases()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompress(enc.Data, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// makeBenchReads samples error-bearing short reads for the codec
// benchmarks.
func makeBenchReads(rng *rand.Rand, ref genome.Seq, n int) *fastq.ReadSet {
	rs := &fastq.ReadSet{}
	for i := 0; i < n; i++ {
		start := rng.Intn(len(ref) - 150)
		seq := ref[start : start+150].Clone()
		if rng.Float64() < 0.2 {
			seq[rng.Intn(len(seq))] = byte(rng.Intn(4))
		}
		qual := make([]byte, len(seq))
		for j := range qual {
			qual[j] = byte(30 + rng.Intn(10))
		}
		rs.Records = append(rs.Records, fastq.Record{Header: "b", Seq: seq, Qual: qual})
	}
	return rs
}
