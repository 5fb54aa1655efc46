package genome

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestFromStringRoundtrip(t *testing.T) {
	in := "ACGTNacgtn"
	s, err := FromString(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.String(); got != "ACGTNACGTN" {
		t.Fatalf("got %q", got)
	}
}

func TestFromStringInvalid(t *testing.T) {
	if _, err := FromString("ACGX"); err == nil {
		t.Fatal("expected error for invalid base")
	}
}

func TestComplement(t *testing.T) {
	pairs := map[byte]byte{BaseA: BaseT, BaseT: BaseA, BaseC: BaseG, BaseG: BaseC, BaseN: BaseN}
	for b, want := range pairs {
		if got := Complement(b); got != want {
			t.Errorf("Complement(%c)=%c want %c", BaseToChar(b), BaseToChar(got), BaseToChar(want))
		}
	}
}

func TestReverseComplement(t *testing.T) {
	s := MustFromString("AACGT")
	rc := s.ReverseComplement()
	if got := rc.String(); got != "ACGTT" {
		t.Fatalf("got %q want ACGTT", got)
	}
	// Involution.
	if !rc.ReverseComplement().Equal(s) {
		t.Fatal("reverse complement is not an involution")
	}
}

// AppendReverseComplement equals the per-base loop it replaced — append
// the Complement of each base, last to first — on random sequences with
// N, on empty ones, and on a dst with and without room for the result;
// with room it extends dst in place.
func TestAppendReverseComplementMatchesPerBase(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 2000; trial++ {
		src := make(Seq, rng.Intn(40))
		for i := range src {
			src[i] = byte(rng.Intn(BaseN + 1))
		}
		prefix := Random(rng, rng.Intn(5))
		want := prefix.Clone()
		for i := len(src) - 1; i >= 0; i-- {
			want = append(want, Complement(src[i]))
		}
		spare := rng.Intn(2) * (len(src) + rng.Intn(3))
		dst := append(make(Seq, 0, len(prefix)+spare), prefix...)
		got := AppendReverseComplement(dst, src)
		if !got.Equal(want) {
			t.Fatalf("prefix %v src %v: got %v want %v", prefix, src, got, want)
		}
		if spare >= len(src) && len(got) > 0 && &got[0] != &dst[:1][0] {
			t.Fatalf("reallocated a dst with %d spare bytes for %d", spare, len(src))
		}
	}
	for b := 0; b < 256; b++ {
		if got := AppendReverseComplement(nil, Seq{byte(b)})[0]; got != Complement(byte(b)) {
			t.Fatalf("code %d complements to %d, Complement says %d", b, got, Complement(byte(b)))
		}
	}
}

func TestHasN(t *testing.T) {
	if MustFromString("ACGT").HasN() {
		t.Fatal("ACGT should not report N")
	}
	if !MustFromString("ACNT").HasN() {
		t.Fatal("ACNT should report N")
	}
}

func TestEncode2BitRejectsN(t *testing.T) {
	if _, err := Encode(MustFromString("ACN"), Format2Bit); err == nil {
		t.Fatal("expected error encoding N in 2-bit format")
	}
}

func TestEncodeDecodeAllFormats(t *testing.T) {
	seqs := []string{"", "A", "ACGT", "ACGTACGTA", "NNNN", "ACGNTAGCTANNGT"}
	for _, f := range []Format{FormatASCII, Format3Bit, FormatOneHot} {
		for _, str := range seqs {
			s := MustFromString(str)
			enc, err := Encode(s, f)
			if err != nil {
				t.Fatalf("%v %q: %v", f, str, err)
			}
			dec, err := Decode(enc, len(s), f)
			if err != nil {
				t.Fatalf("%v %q: %v", f, str, err)
			}
			if !dec.Equal(s) {
				t.Fatalf("%v %q: got %q", f, str, dec.String())
			}
		}
	}
	// 2-bit only for N-free.
	for _, str := range []string{"", "A", "ACGT", "ACGTACGTA"} {
		s := MustFromString(str)
		enc, err := Encode(s, Format2Bit)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := Decode(enc, len(s), Format2Bit)
		if err != nil {
			t.Fatal(err)
		}
		if !dec.Equal(s) {
			t.Fatalf("2bit %q: got %q", str, dec.String())
		}
	}
}

func TestBitsPerBase(t *testing.T) {
	if Format2Bit.BitsPerBase() != 2 || Format3Bit.BitsPerBase() != 3 ||
		FormatOneHot.BitsPerBase() != 4 || FormatASCII.BitsPerBase() != 8 {
		t.Fatal("unexpected bits per base")
	}
}

func TestQuickEncodeDecode(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw % 512)
		s := make(Seq, n)
		for i := range s {
			s[i] = byte(rng.Intn(5)) // include N
		}
		for _, fmt := range []Format{FormatASCII, Format3Bit, FormatOneHot} {
			enc, err := Encode(s, fmt)
			if err != nil {
				return false
			}
			dec, err := Decode(enc, n, fmt)
			if err != nil || !dec.Equal(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomIsNFree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := Random(rng, 10000)
	if g.HasN() {
		t.Fatal("Random genome must be N-free")
	}
	if len(g) != 10000 {
		t.Fatalf("len %d", len(g))
	}
}

func TestDonorAppliesVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ref := Random(rng, 50000)
	p := HumanLikeProfile()
	donor, variants := Donor(rng, ref, p)
	if len(variants) == 0 {
		t.Fatal("expected some variants at human-like rates over 50kb")
	}
	// Donor length differs from ref by net indel length.
	net := 0
	nSub := 0
	for _, v := range variants {
		switch v.Type {
		case Insertion:
			net += len(v.Bases)
		case Deletion:
			net -= len(v.Bases)
		case Substitution:
			nSub++
			if len(v.Bases) != 1 {
				t.Fatal("substitution must carry exactly one base")
			}
			if v.Bases[0] == ref[v.Pos] {
				t.Fatal("substitution must change the base")
			}
		}
	}
	if len(donor) != len(ref)+net {
		t.Fatalf("donor len %d want %d", len(donor), len(ref)+net)
	}
	if nSub == 0 {
		t.Fatal("expected substitutions")
	}
	// SNP rate should be within a loose factor of the configured rate
	// (hotspots raise the effective rate above the base rate).
	rate := float64(nSub) / float64(len(ref))
	if rate < p.SNPRate*0.5 || rate > p.SNPRate*8 {
		t.Fatalf("snp rate %.5f far from configured %.5f", rate, p.SNPRate)
	}
}

func TestDonorVariantsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ref := Random(rng, 20000)
	_, variants := Donor(rng, ref, DivergentProfile())
	for i := 1; i < len(variants); i++ {
		if variants[i].Pos < variants[i-1].Pos {
			t.Fatal("variants not sorted by position")
		}
	}
}

func TestDonorDeterministicGivenSeed(t *testing.T) {
	ref := Random(rand.New(rand.NewSource(9)), 5000)
	d1, _ := Donor(rand.New(rand.NewSource(42)), ref, HumanLikeProfile())
	d2, _ := Donor(rand.New(rand.NewSource(42)), ref, HumanLikeProfile())
	if !d1.Equal(d2) {
		t.Fatal("Donor must be deterministic for a fixed seed")
	}
}

func TestGeometricLenSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n1, total := 0, 20000
	for i := 0; i < total; i++ {
		l := geometricLen(rng, 20)
		if l < 1 || l > 20 {
			t.Fatalf("length %d out of range", l)
		}
		if l == 1 {
			n1++
		}
	}
	// ~70% should be single-base (Property 3 skew).
	frac := float64(n1) / float64(total)
	if frac < 0.6 || frac > 0.8 {
		t.Fatalf("single-base fraction %.2f outside [0.6,0.8]", frac)
	}
}

// TestDecodeMatchesPerBit holds the byte-at-a-time 2-bit and 3-bit
// unpacking to a bit-at-a-time oracle on random bytes of every length
// around a group boundary: the same bases, and for 3-bit data the same
// first invalid code rejected.
func TestDecodeMatchesPerBit(t *testing.T) {
	oracle := func(data []byte, n, bits int) (Seq, int) {
		out := make(Seq, n)
		for i := range out {
			for k := 0; k < bits; k++ {
				pos := i*bits + k
				out[i] = out[i]<<1 | (data[pos/8]>>uint(7-pos%8))&1
			}
			if out[i] > BaseN {
				return nil, i
			}
		}
		return out, -1
	}
	rng := rand.New(rand.NewSource(5))
	for n := 0; n <= 70; n++ {
		for trial := 0; trial < 20; trial++ {
			for _, f := range []Format{Format2Bit, Format3Bit} {
				bits := f.BitsPerBase()
				data := make([]byte, (n*bits+7)/8)
				rng.Read(data)
				if f == Format3Bit && trial%2 == 0 {
					// Valid codes only, so the whole sequence compares.
					s := make(Seq, n)
					for i := range s {
						s[i] = byte(rng.Intn(5))
					}
					data, _ = Encode(s, f)
				}
				want, bad := oracle(data, n, bits)
				got, err := Decode(data, n, f)
				if bad >= 0 {
					if err == nil || !strings.HasSuffix(err.Error(), fmt.Sprintf(" at %d", bad)) {
						t.Fatalf("%v n=%d: err %v, want the invalid code at %d", f, n, err, bad)
					}
					continue
				}
				if err != nil || !got.Equal(want) {
					t.Fatalf("%v n=%d: got %v (%v), want %v", f, n, got, err, want)
				}
			}
		}
	}
}

func TestAppendASCIIMatchesBaseToChar(t *testing.T) {
	s := Seq{BaseA, BaseC, BaseG, BaseT, BaseN, 5, 0xff}
	got := AppendASCII([]byte(">"), s)
	want := []byte(">")
	for _, b := range s {
		want = append(want, BaseToChar(b))
	}
	if string(got) != string(want) {
		t.Fatalf("got %q, want %q", got, want)
	}
}
