package springc

import (
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"sage/internal/fastq"
	"sage/internal/genome"
	"sage/internal/simulate"
)

func makeSet(t *testing.T, seed int64, genomeLen, nReads int, long bool) (genome.Seq, *fastq.ReadSet) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ref := genome.Random(rng, genomeLen)
	donor, _ := genome.Donor(rng, ref, genome.HumanLikeProfile())
	sim := simulate.New(rng, donor)
	var rs *fastq.ReadSet
	var err error
	if long {
		p := simulate.DefaultLongProfile()
		p.MeanLen, p.MaxLen = 1500, 4000
		rs, err = sim.LongReads(nReads, p)
	} else {
		rs, err = sim.ShortReads(nReads, simulate.DefaultShortProfile())
	}
	if err != nil {
		t.Fatal(err)
	}
	return ref, rs
}

func TestRoundtripShort(t *testing.T) {
	ref, rs := makeSet(t, 1, 50000, 600, false)
	enc, err := Compress(rs, ref)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(enc.Data)
	if err != nil {
		t.Fatal(err)
	}
	if !fastq.Equivalent(rs, got) {
		t.Fatal("roundtrip mismatch")
	}
	if enc.Stats.NumMapped < 500 {
		t.Fatalf("only %d mapped", enc.Stats.NumMapped)
	}
}

func TestRoundtripLong(t *testing.T) {
	ref, rs := makeSet(t, 2, 100000, 50, true)
	enc, err := Compress(rs, ref)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(enc.Data)
	if err != nil {
		t.Fatal(err)
	}
	if !fastq.Equivalent(rs, got) {
		t.Fatal("roundtrip mismatch")
	}
}

func TestCompressionBeatsGzipStyle(t *testing.T) {
	ref, rs := makeSet(t, 4, 120000, 4000, false)
	enc, err := Compress(rs, ref)
	if err != nil {
		t.Fatal(err)
	}
	dnaLines := rs.TotalBases() + len(rs.Records) // bases + newline per read
	ratio := float64(dnaLines) / float64(enc.Stats.DNABytes)
	if ratio < 3 {
		t.Fatalf("DNA ratio %.2f too low for a genomic compressor", ratio)
	}
}

func TestRejectsGarbage(t *testing.T) {
	if _, err := Decompress([]byte("bogus!")); err == nil {
		t.Fatal("expected error")
	}
	if _, err := Compress(&fastq.ReadSet{}, nil); err == nil {
		t.Fatal("expected error without consensus")
	}
}

// TestRejectsHeaderCount: a header stream claiming more headers than
// the container has reads fails before the claimed count sizes
// anything. The stream is the one core's TestDecodeRejectsHeaderCount
// feeds the SAGe decoder: templated, 2^40 headers, template "r", no
// slots and no body, which costs no bits per header.
func TestRejectsHeaderCount(t *testing.T) {
	ref, rs := makeSet(t, 6, 20000, 20, false)
	enc, err := Compress(rs, ref)
	if err != nil {
		t.Fatal(err)
	}
	// The header stream ends the container, after its uvarint length.
	var lenBuf [binary.MaxVarintLen64]byte
	tail := binary.PutUvarint(lenBuf[:], uint64(enc.Stats.HeaderBytes)) + enc.Stats.HeaderBytes
	hostile := []byte{1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20, 1, 'r', 0, 0}
	data := append([]byte(nil), enc.Data[:len(enc.Data)-tail]...)
	data = binary.AppendUvarint(data, uint64(len(hostile)))
	data = append(data, hostile...)
	if _, err := Decompress(data); err == nil || !strings.Contains(err.Error(), "headers") {
		t.Fatalf("Decompress: %v, want a header count error", err)
	}
}

func TestTruncation(t *testing.T) {
	ref, rs := makeSet(t, 5, 20000, 100, false)
	enc, err := Compress(rs, ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{10, len(enc.Data) / 2, len(enc.Data) - 2} {
		if _, err := Decompress(enc.Data[:cut]); err == nil {
			t.Fatalf("expected error at cut %d", cut)
		}
	}
}

func TestQuickRoundtrip(t *testing.T) {
	if testing.Short() {
		t.Skip("slow property test")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ref := genome.Random(rng, 15000+rng.Intn(15000))
		sim := simulate.New(rng, ref)
		p := simulate.DefaultShortProfile()
		p.NRate = []float64{0, 0.01}[rng.Intn(2)]
		rs, err := sim.ShortReads(rng.Intn(150)+10, p)
		if err != nil {
			return false
		}
		enc, err := Compress(rs, ref)
		if err != nil {
			return false
		}
		got, err := Decompress(enc.Data)
		return err == nil && fastq.Equivalent(rs, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
