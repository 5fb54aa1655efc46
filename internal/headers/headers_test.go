package headers

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"sage/internal/bitio"
)

func roundtrip(t *testing.T, hs []string) []byte {
	t.Helper()
	data, err := Compress(hs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(hs) {
		t.Fatalf("got %d headers want %d", len(got), len(hs))
	}
	for i := range hs {
		if got[i] != hs[i] {
			t.Fatalf("header %d: %q want %q", i, got[i], hs[i])
		}
	}
	return data
}

func TestTemplatedRoundtrip(t *testing.T) {
	var hs []string
	for i := 0; i < 1000; i++ {
		hs = append(hs, fmt.Sprintf("SRR870667.%d length=150", i+1))
	}
	data := roundtrip(t, hs)
	if data[0] != modeTemplated {
		t.Fatal("expected templated mode")
	}
	// Sequential numbering should compress to ~2-3 bits/header.
	raw := 0
	for _, h := range hs {
		raw += len(h) + 1
	}
	if len(data)*4 > raw {
		t.Fatalf("templated compression too weak: %d vs raw %d", len(data), raw)
	}
}

// TestDecoderKeepsSlotTable: a Decoder reused on templated streams
// decodes into the slot table it kept, so with dst and ends reused too
// a decode allocates nothing, and a smaller stream after a larger one
// reads none of the larger one's slots.
func TestDecoderKeepsSlotTable(t *testing.T) {
	var big, small []string
	for i := 0; i < 500; i++ {
		big = append(big, fmt.Sprintf("run%d.%d tile%04d", i%3, i+1, 7*i))
	}
	for i := 0; i < 20; i++ {
		small = append(small, fmt.Sprintf("run%d.%d tile%04d", 9, 1000-i, i))
	}
	var d Decoder
	var names []byte
	var ends []int
	for _, hs := range [][]string{big, small} {
		data := roundtrip(t, hs)
		var err error
		if names, ends, err = d.Append(names[:0], ends[:0], data, len(hs)); err != nil {
			t.Fatal(err)
		}
		start := 0
		for i, end := range ends {
			if string(names[start:end]) != hs[i] {
				t.Fatalf("header %d = %q, want %q", i, names[start:end], hs[i])
			}
			start = end
		}
	}
	data := roundtrip(t, big)
	if n := testing.AllocsPerRun(10, func() {
		names, ends, _ = d.Append(names[:0], ends[:0], data, len(big))
	}); n != 0 {
		t.Fatalf("a reused Decoder allocated %v times per decode", n)
	}
}

func TestLeadingZerosPreserved(t *testing.T) {
	roundtrip(t, []string{"run007 tile0001", "run008 tile0002", "run009 tile0010"})
}

func TestMixedTemplatesFallBackToRaw(t *testing.T) {
	hs := []string{"alpha.1", "beta two", "gamma-3-x", "12start"}
	data := roundtrip(t, hs)
	if data[0] != modeRaw {
		t.Fatal("expected raw mode for mixed templates")
	}
}

func TestEmptyAndSingleHeader(t *testing.T) {
	roundtrip(t, nil)
	roundtrip(t, []string{"only.1"})
	roundtrip(t, []string{""})
}

func TestDecreasingNumbers(t *testing.T) {
	roundtrip(t, []string{"r.100", "r.50", "r.200", "r.1"})
}

func TestHugeDigitRunsAreLiterals(t *testing.T) {
	h := "x.12345678901234567890123456789" // > 18 digits: literal
	roundtrip(t, []string{h, h})
}

func TestDecompressErrors(t *testing.T) {
	if _, err := Decompress(nil); err == nil {
		t.Fatal("expected error for empty stream")
	}
	if _, err := Decompress([]byte{99}); err == nil {
		t.Fatal("expected error for unknown mode")
	}
	if _, err := Decompress([]byte{modeTemplated}); err == nil {
		t.Fatal("expected error for truncated stream")
	}
	// One header whose template has two slots where the stream codes one.
	if _, err := Decompress([]byte{modeTemplated, 1, 2, 0, 0, 1, 16, 0x01, 0x00}); err == nil {
		t.Fatal("expected error for a template with more slots than the stream")
	}
	// A template without slots costs no body bits per header, so its
	// count is bounded only by the caller's: 2^40 headers of "r" must
	// fail before anything is grown for them.
	huge := []byte{modeTemplated, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20, 1, 'r', 0, 0}
	if _, _, err := new(Decoder).Append(nil, nil, huge, 3); err == nil {
		t.Fatal("expected error for a stream claiming 2^40 headers where 3 were asked for")
	}
	raw, err := Compress([]string{"a b", "c d e"})
	if err != nil || raw[0] != modeRaw {
		t.Fatalf("raw stream: mode %d, %v", raw[0], err)
	}
	if _, _, err := new(Decoder).Append(nil, nil, raw, 3); err == nil {
		t.Fatal("expected error for a raw stream of 2 headers where 3 were asked for")
	}
	// One header "x" followed by a slot zero-padded to 2^40 digits, a
	// width no tokenization produces.
	bw := bitio.NewWriter(16)
	bitio.PutUvarint64(bw, 1<<40)
	bitio.PutUvarint64(bw, 0)
	wide := append([]byte{modeTemplated, 1, 2, 'x', 0, 1, byte(bw.Len())}, bw.Bytes()...)
	if _, err := Decompress(wide); err == nil || !strings.Contains(err.Error(), "width") {
		t.Fatalf("a slot 2^40 digits wide: %v", err)
	}
}

func TestQuickTemplated(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(50) + 1
		hs := make([]string, n)
		for i := range hs {
			hs[i] = fmt.Sprintf("inst%d:%d:%d flow=%d", rng.Intn(10000), rng.Intn(100), i, rng.Intn(1<<30))
		}
		data, err := Compress(hs)
		if err != nil {
			return false
		}
		got, err := Decompress(data)
		if err != nil || len(got) != n {
			return false
		}
		for i := range hs {
			if got[i] != hs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickArbitraryStrings(t *testing.T) {
	f := func(raw [][]byte) bool {
		hs := make([]string, len(raw))
		for i, b := range raw {
			// Strip newlines (headers never contain them).
			s := make([]byte, 0, len(b))
			for _, c := range b {
				if c != '\n' && c != 0 {
					s = append(s, c)
				}
			}
			hs[i] = string(s)
		}
		data, err := Compress(hs)
		if err != nil {
			return false
		}
		got, err := Decompress(data)
		if err != nil || len(got) != len(hs) {
			return false
		}
		for i := range hs {
			if got[i] != hs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 2, -2, 1 << 40, -(1 << 40)} {
		if unzigzag(zigzag(v)) != v {
			t.Fatalf("zigzag roundtrip failed for %d", v)
		}
	}
}

// TestUvarintMatchesReadUvarint: uvarint reads the same value, leaves
// the same bytes and fails with the same error as binary.ReadUvarint
// over a reader of the same bytes, on empty, truncated, overlong,
// overflowing and well-formed input.
func TestUvarintMatchesReadUvarint(t *testing.T) {
	cont := bytes.Repeat([]byte{0x80}, 9)
	for _, b := range [][]byte{
		{}, {0x80}, {0x80, 0x80}, {0}, {1, 7}, {0xff, 0x01, 9},
		{0x80, 0x00},                     // overlong zero
		append(slices.Clone(cont), 1),    // 1<<63, the largest tenth byte
		append(slices.Clone(cont), 2),    // tenth byte past 64 bits
		append(slices.Clone(cont), 0x80), // ten continuation bytes
		append(slices.Clone(cont), 0x80, 0),
		binary.AppendUvarint(nil, 1<<64-1),
	} {
		rd := bytes.NewReader(b)
		want, werr := binary.ReadUvarint(rd)
		got, rest, err := uvarint(b)
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("% x: error %v, ReadUvarint's %v", b, err, werr)
		}
		if err == nil && (got != want || len(rest) != rd.Len()) {
			t.Fatalf("% x: %d with %d bytes left, ReadUvarint %d with %d", b, got, len(rest), want, rd.Len())
		}
	}
}
