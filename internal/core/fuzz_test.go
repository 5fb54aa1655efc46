package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"sage/internal/fastq"
	"sage/internal/genome"
	"sage/internal/simulate"
)

// fuzzConsensus is the fixed consensus fuzz roundtrips compress against.
// Arbitrary fuzz-generated reads mostly land in the unmapped stream,
// which is exactly the path a hostile input exercises.
func fuzzConsensus() genome.Seq {
	rng := rand.New(rand.NewSource(99))
	return genome.Random(rng, 4096)
}

// fuzzSeeds compresses one small simulated read set two ways — a full
// self-contained block, and a DNA-only block against an external
// consensus — the valid starting points both fuzz targets mutate from.
func fuzzSeeds(f *testing.F, cons genome.Seq) (rs *fastq.ReadSet, full, bare []byte) {
	rng := rand.New(rand.NewSource(2))
	donor, _ := genome.Donor(rng, cons, genome.HumanLikeProfile())
	rs, err := simulate.New(rng, donor).ShortReads(40, simulate.DefaultShortProfile())
	if err != nil {
		f.Fatal(err)
	}
	enc, err := Compress(rs, DefaultOptions(cons))
	if err != nil {
		f.Fatal(err)
	}
	opt := DefaultOptions(cons)
	opt.EmbedConsensus = false
	opt.IncludeQuality = false
	opt.IncludeHeaders = false
	encBare, err := Compress(rs, opt)
	if err != nil {
		f.Fatal(err)
	}
	return rs, enc.Data, encBare.Data
}

// FuzzParseBlock drives parseContainer alone over arbitrary bytes, the
// way FuzzParseHeader drives the SAGS header parser. The invariants:
// never panic; never hold more than a small multiple of the input (a
// 2-bit consensus unpacks to four bases per byte, nothing else grows);
// and any accepted block re-marshals to bytes that parse back to an
// equal container.
func FuzzParseBlock(f *testing.F) {
	_, full, bare := fuzzSeeds(f, fuzzConsensus())
	f.Add(full)
	f.Add(bare)
	f.Add(full[:len(full)/2])
	f.Add([]byte("SAGe\x01\xff\xff\xff\xff\xff\xff"))
	for bit := 5; bit < 8; bit++ {
		f.Add(withFlagBit(full, bit))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := parseContainer(data)
		if err != nil {
			return
		}
		held := len(c.hdr.consensus) + len(c.quality) + len(c.headers)
		for _, s := range c.streams {
			held += len(s.data)
		}
		if held > 4*len(data) {
			t.Fatalf("a %d-byte block parsed into %d bytes", len(data), held)
		}
		re, err := c.marshal()
		if err != nil {
			t.Fatalf("re-marshal of an accepted block failed: %v", err)
		}
		c2, err := parseContainer(re)
		if err != nil {
			t.Fatalf("re-marshaled block does not parse: %v", err)
		}
		if !reflect.DeepEqual(c, c2) {
			t.Fatalf("block changed across re-marshal:\n%+v\n%+v", c.hdr, c2.hdr)
		}
	})
}

// FuzzRoundtrip drives both halves of the codec:
//
//  1. The input bytes are fed to Decompress as a (usually corrupt)
//     container. Any outcome but a clean error is a bug: the decoder
//     must never panic or over-allocate on hostile input.
//  2. If the input bytes parse as FASTQ, the read set is compressed and
//     decompressed, and the roundtrip must be fastq.Equivalent.
//
// The seed corpus holds valid containers (so mutations explore the
// container format) and valid FASTQ text (so mutations explore the
// compression path).
func FuzzRoundtrip(f *testing.F) {
	cons := fuzzConsensus()
	rs, full, bare := fuzzSeeds(f, cons)
	// Seeds 1-2: a full self-contained container and a DNA-only one
	// with an external consensus.
	f.Add(full)
	f.Add(bare)
	// Seed 3: FASTQ text.
	f.Add(rs.Bytes())
	// Seed 4: tiny hand-written FASTQ.
	f.Add([]byte("@r1\nACGTN\n+\n!!!!!\n@r2\nGG\n+\n##\n"))
	// Seed 5: a truncated container and raw garbage.
	f.Add(bare[:len(bare)/2])
	f.Add([]byte("SAGe\x01\xff\xff\xff\xff\xff\xff"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		// Arm 1: hostile container bytes. Errors are expected; panics
		// and runaway allocations are not.
		if got, err := Decompress(data, nil); err == nil && got == nil {
			t.Fatal("Decompress returned nil set with nil error")
		}
		checkRender(t, data, cons)

		// Arm 2: valid FASTQ must survive a compress/decompress cycle.
		in, err := fastq.Parse(bytes.NewReader(data))
		if err != nil || len(in.Records) == 0 || in.TotalBases() > 1<<14 {
			return
		}
		opt := DefaultOptions(cons)
		opt.IncludeQuality = fullQuality(in)
		enc, err := Compress(in, opt)
		if err != nil {
			// Compress may reject degenerate sets (e.g. records with
			// missing qualities); rejecting is fine, corrupting is not.
			return
		}
		out, err := Decompress(enc.Data, nil)
		if err != nil {
			t.Fatalf("valid container failed to decompress: %v", err)
		}
		checkRender(t, enc.Data, nil)
		if !fastq.Equivalent(in, out) {
			t.Fatalf("roundtrip not equivalent: %d reads in, %d out", len(in.Records), len(out.Records))
		}
	})
}

// checkRender holds AppendFASTQ to Decompress on one block: both fail
// with the same error, or the text is the records' text and every
// record is valid — a parseable block never renders a quality line
// that is not as long as its bases.
func checkRender(t *testing.T, data []byte, cons genome.Seq) {
	t.Helper()
	rs, rerr := Decompress(data, cons)
	text, n, terr := AppendFASTQ(nil, data, genome.AppendASCII(nil, cons))
	if fmt.Sprint(rerr) != fmt.Sprint(terr) {
		t.Fatalf("Decompress: %v; AppendFASTQ: %v", rerr, terr)
	}
	if rerr != nil {
		return
	}
	if n != len(rs.Records) {
		t.Fatalf("AppendFASTQ rendered %d reads, Decompress decoded %d", n, len(rs.Records))
	}
	var want []byte
	for i := range rs.Records {
		if err := rs.Records[i].Validate(); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		want = rs.Records[i].AppendText(want)
	}
	if !bytes.Equal(text, want) {
		t.Fatalf("AppendFASTQ wrote %d bytes, the records' text is %d", len(text), len(want))
	}
}

// fullQuality reports whether every non-empty record carries quality
// scores, the precondition for IncludeQuality.
func fullQuality(rs *fastq.ReadSet) bool {
	for i := range rs.Records {
		if rs.Records[i].Qual == nil && len(rs.Records[i].Seq) > 0 {
			return false
		}
	}
	return true
}

// withFlagBit returns a copy of block with flag bit set; the flags byte
// follows the magic and the version.
func withFlagBit(block []byte, bit int) []byte {
	out := bytes.Clone(block)
	out[len(magic)+1] |= 1 << bit
	return out
}
