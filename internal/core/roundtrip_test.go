package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"sage/internal/fastq"
	"sage/internal/freelist"
	"sage/internal/genome"
	"sage/internal/simulate"
)

// makeDonorReads builds a (reference, read set) pair with the given
// simulator profile.
func makeShortSet(t *testing.T, seed int64, genomeLen, nReads int) (genome.Seq, *fastq.ReadSet) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ref := genome.Random(rng, genomeLen)
	donor, _ := genome.Donor(rng, ref, genome.HumanLikeProfile())
	sim := simulate.New(rng, donor)
	rs, err := sim.ShortReads(nReads, simulate.DefaultShortProfile())
	if err != nil {
		t.Fatal(err)
	}
	return ref, rs
}

func makeLongSet(t *testing.T, seed int64, genomeLen, nReads int) (genome.Seq, *fastq.ReadSet) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ref := genome.Random(rng, genomeLen)
	donor, _ := genome.Donor(rng, ref, genome.HumanLikeProfile())
	sim := simulate.New(rng, donor)
	p := simulate.DefaultLongProfile()
	p.MeanLen, p.MaxLen = 2000, 6000
	rs, err := sim.LongReads(nReads, p)
	if err != nil {
		t.Fatal(err)
	}
	return ref, rs
}

func roundtripSet(t *testing.T, ref genome.Seq, rs *fastq.ReadSet, opt Options) *Encoded {
	t.Helper()
	enc, err := Compress(rs, opt)
	if err != nil {
		t.Fatal(err)
	}
	var extern genome.Seq
	if !opt.EmbedConsensus {
		extern = opt.Consensus
	}
	got, err := Decompress(enc.Data, extern)
	if err != nil {
		t.Fatal(err)
	}
	if !fastq.Equivalent(rs, got) {
		t.Fatal("decompressed read set is not equivalent to the input")
	}
	return enc
}

func TestRoundtripShortReads(t *testing.T) {
	ref, rs := makeShortSet(t, 1, 60000, 800)
	enc := roundtripSet(t, ref, rs, DefaultOptions(ref))
	if enc.Stats.NumMapped < len(rs.Records)*9/10 {
		t.Fatalf("only %d/%d reads mapped", enc.Stats.NumMapped, len(rs.Records))
	}
}

func TestRoundtripLongReads(t *testing.T) {
	ref, rs := makeLongSet(t, 2, 120000, 60)
	enc := roundtripSet(t, ref, rs, DefaultOptions(ref))
	if enc.Stats.NumMapped < len(rs.Records)*8/10 {
		t.Fatalf("only %d/%d reads mapped", enc.Stats.NumMapped, len(rs.Records))
	}
	if enc.Stats.NumChimeric == 0 {
		t.Log("note: no chimeric reads detected in this sample")
	}
}

func TestRoundtripWithoutQuality(t *testing.T) {
	ref, rs := makeShortSet(t, 3, 30000, 200)
	opt := DefaultOptions(ref)
	opt.IncludeQuality = false
	opt.IncludeHeaders = false
	enc, err := Compress(rs, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(enc.Data, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Compare sequence multisets only.
	bare := &fastq.ReadSet{Records: make([]fastq.Record, len(rs.Records))}
	for i := range rs.Records {
		bare.Records[i] = fastq.Record{Seq: rs.Records[i].Seq}
	}
	if !fastq.Equivalent(bare, got) {
		t.Fatal("sequence multiset mismatch")
	}
	if enc.Stats.QualityBytes != 0 || enc.Stats.HeaderBytes != 0 {
		t.Fatal("quality/header bytes should be zero when disabled")
	}
}

func TestRoundtripExternalConsensus(t *testing.T) {
	ref, rs := makeShortSet(t, 4, 30000, 300)
	opt := DefaultOptions(ref)
	opt.EmbedConsensus = false
	enc := roundtripSet(t, ref, rs, opt)
	if enc.Stats.ConsensusBytes != 0 {
		t.Fatal("external consensus must not be counted")
	}
	// Decoding with a wrong-length consensus must fail loudly.
	if _, err := Decompress(enc.Data, ref[:len(ref)-1]); err == nil {
		t.Fatal("expected error for mismatched consensus length")
	}
}

func TestRoundtripReadsWithN(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ref := genome.Random(rng, 20000)
	sim := simulate.New(rng, ref)
	p := simulate.DefaultShortProfile()
	p.NRate = 0.02 // force many N corner cases
	rs, err := sim.ShortReads(300, p)
	if err != nil {
		t.Fatal(err)
	}
	enc := roundtripSet(t, ref, rs, DefaultOptions(ref))
	if enc.Stats.NumCorner == 0 {
		t.Fatal("expected corner-case reads with a 2% N rate")
	}
}

func TestRoundtripUnmappableReads(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ref := genome.Random(rng, 20000)
	sim := simulate.New(rng, ref)
	rs, err := sim.ShortReads(100, simulate.DefaultShortProfile())
	if err != nil {
		t.Fatal(err)
	}
	// Add alien reads from an unrelated genome.
	alien := genome.Random(rand.New(rand.NewSource(999)), 5000)
	alienSim := simulate.New(rand.New(rand.NewSource(998)), alien)
	alienReads, err := alienSim.ShortReads(20, simulate.DefaultShortProfile())
	if err != nil {
		t.Fatal(err)
	}
	rs.Records = append(rs.Records, alienReads.Records...)
	enc := roundtripSet(t, ref, rs, DefaultOptions(ref))
	if enc.Stats.NumUnmapped < 15 {
		t.Fatalf("expected >=15 unmapped alien reads, got %d", enc.Stats.NumUnmapped)
	}
}

func TestRoundtripChimericLongReads(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ref := genome.Random(rng, 150000)
	sim := simulate.New(rng, ref)
	p := simulate.DefaultLongProfile()
	p.MeanLen, p.MaxLen = 1500, 4000
	p.ChimeraRate = 0.5 // stress the top-N matching positions path
	rs, err := sim.LongReads(60, p)
	if err != nil {
		t.Fatal(err)
	}
	enc := roundtripSet(t, ref, rs, DefaultOptions(ref))
	if enc.Stats.NumChimeric == 0 {
		t.Fatal("expected chimeric alignments at a 50% chimera rate")
	}
}

func TestRoundtripVariableLengths(t *testing.T) {
	ref, rs := makeLongSet(t, 8, 50000, 30)
	// Mix in some short reads so lengths vary wildly.
	rng := rand.New(rand.NewSource(9))
	sim := simulate.New(rng, ref)
	short, err := sim.ShortReads(50, simulate.DefaultShortProfile())
	if err != nil {
		t.Fatal(err)
	}
	rs.Records = append(rs.Records, short.Records...)
	roundtripSet(t, ref, rs, DefaultOptions(ref))
}

func TestRoundtripEmptySet(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	ref := genome.Random(rng, 5000)
	rs := &fastq.ReadSet{}
	roundtripSet(t, ref, rs, DefaultOptions(ref))
}

func TestRoundtripSingleRead(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ref := genome.Random(rng, 5000)
	rs := &fastq.ReadSet{Records: []fastq.Record{{
		Header: "solo",
		Seq:    ref[100:250].Clone(),
		Qual:   make([]byte, 150),
	}}}
	roundtripSet(t, ref, rs, DefaultOptions(ref))
}

func TestRoundtripDuplicateReads(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ref := genome.Random(rng, 10000)
	rec := fastq.Record{Header: "dup", Seq: ref[500:650].Clone(), Qual: make([]byte, 150)}
	rs := &fastq.ReadSet{}
	for i := 0; i < 20; i++ {
		rs.Records = append(rs.Records, rec)
	}
	enc := roundtripSet(t, ref, rs, DefaultOptions(ref))
	// 19 of the matching-position deltas must be zero (Property 6).
	if enc.Stats.MatchDeltaHist[0] < 19 {
		t.Fatalf("expected >=19 zero deltas, histogram %v", enc.Stats.MatchDeltaHist[:4])
	}
}

func TestCompressRequiresConsensus(t *testing.T) {
	if _, err := Compress(&fastq.ReadSet{}, Options{}); err == nil {
		t.Fatal("expected error without consensus")
	}
}

func TestCompressRequiresQualWhenEnabled(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ref := genome.Random(rng, 5000)
	rs := &fastq.ReadSet{Records: []fastq.Record{{Header: "x", Seq: ref[0:100].Clone()}}}
	opt := DefaultOptions(ref)
	if _, err := Compress(rs, opt); err == nil {
		t.Fatal("expected error for missing quality scores")
	}
}

// A record whose quality string is not as long as its bases cannot be
// decoded (the decoder takes score counts from the bases), so it must
// not be written.
func TestCompressRejectsQualLengthMismatch(t *testing.T) {
	ref, rs := makeShortSet(t, 13, 5000, 10)
	q := rs.Records[4].Qual
	for _, qual := range [][]byte{q[1:], append(q[:len(q):len(q)], 30), {}} {
		bad := &fastq.ReadSet{Records: append([]fastq.Record(nil), rs.Records...)}
		bad.Records[4].Qual = qual
		_, err := Compress(bad, DefaultOptions(ref))
		want := fmt.Sprintf("record 4: %d bases but %d quality scores", len(bad.Records[4].Seq), len(qual))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("error %v, want one naming %q", err, want)
		}
		opt := DefaultOptions(ref)
		opt.IncludeQuality = false
		if _, err := Compress(bad, opt); err != nil {
			t.Fatalf("without quality the mismatch does not matter: %v", err)
		}
	}
}

func TestDecompressRejectsGarbage(t *testing.T) {
	if _, err := Decompress([]byte("not a container"), nil); err == nil {
		t.Fatal("expected error for bad magic")
	}
	if _, err := Decompress(nil, nil); err == nil {
		t.Fatal("expected error for empty input")
	}
}

// The three unassigned flag bits are rejected in both directions: a
// block that sets one does not parse, and a container that carries one
// does not marshal. The block without them still decodes.
func TestBlockRejectsReservedFlags(t *testing.T) {
	ref, rs := makeShortSet(t, 16, 20000, 50)
	enc, err := Compress(rs, DefaultOptions(ref))
	if err != nil {
		t.Fatal(err)
	}
	for bit := 5; bit < 8; bit++ {
		_, err := Decompress(withFlagBit(enc.Data, bit), nil)
		if err == nil || !strings.Contains(err.Error(), "reserved flag bits") {
			t.Errorf("bit %d set: Decompress says %v", bit, err)
		}
		c, err := parseContainer(enc.Data)
		if err != nil {
			t.Fatal(err)
		}
		c.hdr.flags |= 1 << bit
		if _, err := c.marshal(); err == nil || !strings.Contains(err.Error(), "reserved flag bits") {
			t.Errorf("bit %d set: marshal says %v", bit, err)
		}
	}
	if _, err := Decompress(enc.Data, nil); err != nil {
		t.Fatalf("the unmodified block: %v", err)
	}
}

// A header stream whose template has no slots claims any header count
// for free; both decoders check it against the block's read count
// before growing anything for it.
func TestDecodeRejectsHeaderCount(t *testing.T) {
	ref, rs := makeShortSet(t, 17, 20000, 20)
	enc, err := Compress(rs, DefaultOptions(ref))
	if err != nil {
		t.Fatal(err)
	}
	c, err := parseContainer(enc.Data)
	if err != nil {
		t.Fatal(err)
	}
	// Templated (mode 1), 2^40 headers, template "r", no slots, no body.
	c.headers = []byte{1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20, 1, 'r', 0, 0}
	block, err := c.marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(block, nil); err == nil || !strings.Contains(err.Error(), "headers") {
		t.Errorf("Decompress: %v", err)
	}
	if _, _, err := AppendFASTQ(nil, block, nil); err == nil || !strings.Contains(err.Error(), "headers") {
		t.Errorf("AppendFASTQ: %v", err)
	}
}

func TestDecompressRejectsTruncation(t *testing.T) {
	ref, rs := makeShortSet(t, 14, 20000, 100)
	enc, err := Compress(rs, DefaultOptions(ref))
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{len(enc.Data) / 4, len(enc.Data) / 2, len(enc.Data) - 3} {
		if _, err := Decompress(enc.Data[:cut], nil); err == nil {
			t.Fatalf("expected error for truncation at %d", cut)
		}
	}
}

func TestCompressionRatioBeatsRaw(t *testing.T) {
	ref, rs := makeShortSet(t, 15, 120000, 4000)
	opt := DefaultOptions(ref)
	opt.IncludeQuality = false
	opt.IncludeHeaders = false
	enc, err := Compress(rs, opt)
	if err != nil {
		t.Fatal(err)
	}
	dnaRaw := rs.TotalBases() + len(rs.Records) // ASCII DNA lines with their newlines
	ratio := float64(dnaRaw) / float64(enc.Stats.DNABytes)
	// 4000 accurate 150bp reads over a 120kb genome at ~5x depth; with
	// the embedded consensus amortized we still expect >3x over raw
	// ASCII FASTQ DNA lines.
	if ratio < 3 {
		t.Fatalf("DNA compression ratio %.2f too low", ratio)
	}
}

func TestStatsComponentsSumToStreams(t *testing.T) {
	ref, rs := makeLongSet(t, 16, 80000, 40)
	enc, err := Compress(rs, DefaultOptions(ref))
	if err != nil {
		t.Fatal(err)
	}
	var streams uint64
	for _, b := range enc.Stats.StreamBits {
		streams += b
	}
	if got := enc.Stats.Components.Total(); got != streams {
		t.Fatalf("component bits %d != stream bits %d", got, streams)
	}
}

func TestFormatReads(t *testing.T) {
	rs := &fastq.ReadSet{Records: []fastq.Record{
		{Seq: genome.MustFromString("ACGT")},
		{Seq: genome.MustFromString("NNA")},
	}}
	if _, err := FormatReads(rs, genome.Format2Bit); err == nil {
		t.Fatal("2-bit formatting must fail on N reads")
	}
	enc, err := FormatReads(rs, genome.Format3Bit)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != 2 {
		t.Fatalf("got %d formatted reads", len(enc))
	}
}

// Property: compression is lossless for arbitrary simulated read sets
// across profiles, N injection, chimeras and alien reads.
func TestQuickRoundtrip(t *testing.T) {
	if testing.Short() {
		t.Skip("slow property test")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ref := genome.Random(rng, 20000+rng.Intn(20000))
		donor, _ := genome.Donor(rng, ref, genome.HumanLikeProfile())
		sim := simulate.New(rng, donor)
		var rs *fastq.ReadSet
		var err error
		if rng.Intn(2) == 0 {
			p := simulate.DefaultShortProfile()
			p.NRate = []float64{0, 0.001, 0.02}[rng.Intn(3)]
			rs, err = sim.ShortReads(rng.Intn(200)+20, p)
		} else {
			p := simulate.DefaultLongProfile()
			p.MeanLen, p.MaxLen = 1000, 3000
			p.ChimeraRate = []float64{0, 0.1, 0.4}[rng.Intn(3)]
			rs, err = sim.LongReads(rng.Intn(30)+5, p)
		}
		if err != nil {
			return false
		}
		enc, err := Compress(rs, DefaultOptions(ref))
		if err != nil {
			return false
		}
		got, err := Decompress(enc.Data, nil)
		if err != nil {
			return false
		}
		return fastq.Equivalent(rs, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// A block whose scratch outgrows freelist.MaxKeep is decoded, and the
// scratch is dropped rather than kept for the life of the process.
func TestDecoderScratchBounded(t *testing.T) {
	ref, rs := makeShortSet(t, 19, 50_000, 14_000)
	enc, err := Compress(rs, DefaultOptions(ref))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(enc.Data, nil); err != nil {
		t.Fatal(err)
	}
	text, _, err := AppendFASTQ(nil, enc.Data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(text) <= freelist.MaxKeep {
		t.Fatalf("the block renders to %d bytes, not past MaxKeep", len(text))
	}
	for len(decoders) > 0 {
		d := <-decoders
		if n := cap(d.bases) + cap(d.quals) + cap(d.names); n > freelist.MaxKeep {
			t.Fatalf("a decoder holding %d bytes of scratch was kept", n)
		}
	}
}

// The parsed block aliases its input (wire.Codec.Raw does not copy), so
// nothing Decompress or AppendFASTQ returns may point into it: with the
// block overwritten after each returns, the records and the text stay
// what they were.
func TestDecodeOwnsItsOutput(t *testing.T) {
	ref, rs := makeShortSet(t, 23, 20_000, 300)
	for _, embed := range []bool{true, false} {
		opt := DefaultOptions(ref)
		opt.EmbedConsensus = embed
		enc, err := Compress(rs, opt)
		if err != nil {
			t.Fatal(err)
		}
		var extern genome.Seq
		if !embed {
			extern = ref
		}
		blk := slices.Clone(enc.Data)
		got, err := Decompress(blk, extern)
		if err != nil {
			t.Fatal(err)
		}
		want := got.Bytes()
		text, _, err := AppendFASTQ(nil, blk, genome.AppendASCII(nil, extern))
		if err != nil {
			t.Fatal(err)
		}
		wantText := slices.Clone(text)
		for i := range blk {
			blk[i] = 0xA5
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("embed=%v: Decompress's records changed with the block", embed)
		}
		if !bytes.Equal(text, wantText) {
			t.Fatalf("embed=%v: AppendFASTQ's text changed with the block", embed)
		}
	}
}
