package shard

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"sage/internal/genome"
)

// FuzzParseHeader drives parseHeader over arbitrary prefixes, seeded
// with real v1/v2/v3 headers (manifest included) so the fuzzer starts
// inside every version's happy path and mutates the manifest fields
// from there. The invariants: never panic, never allocate past the
// claimed container size, and anything that parses must re-marshal to a
// consistent index (reads, sources, offsets).
func FuzzParseHeader(f *testing.F) {
	ix := &Index{TotalReads: 5, ShardReads: 2,
		Sources: []SourceFile{
			{Name: "lane1_R1.fq", Mate: "lane1_R2.fq", Reads: 4},
			{Name: "lane2.fq", Reads: 1},
		},
		Entries: []Entry{
			{ReadCount: 2, Offset: 0, Length: 30, Source: 0, Checksum: 0xDEADBEEF},
			{ReadCount: 2, Offset: 30, Length: 28, Source: 0, Checksum: 0x01020304},
			{ReadCount: 1, Offset: 58, Length: 13, Source: 1, Checksum: 0xCAFEF00D},
		}}
	hdr, err := marshalHeader(ix, genome.MustFromString("ACGTACGTNN"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(hdr)
	plain, err := marshalHeader(&Index{}, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(plain)
	// A v4 header with populated zone maps and a non-zero sketch, so the
	// fuzzer mutates the zone fields and their semantic caps from a
	// valid starting point.
	zoned := &Index{TotalReads: 3, ShardReads: 2, SketchBytes: 4,
		Entries: []Entry{
			{ReadCount: 2, Offset: 0, Length: 30,
				Zone: ZoneMap{MinLen: 10, MaxLen: 12, QualReads: 2, LowQualReads: 1,
					MinPhred: 2, AvgPhredMilli: 30500, MinAvgPhredMilli: 12000,
					MaxAvgPhredMilli: 38000, MinEEMilli: 20, MaxEEMilli: 2500,
					MinGCMilli: 400, MaxGCMilli: 600, Sketch: []byte{1, 2, 3, 4}},
				Checksum: 0xDEADBEEF},
			{ReadCount: 1, Offset: 30, Length: 13,
				Zone: ZoneMap{MinLen: 8, MaxLen: 8, MinGCMilli: 250, MaxGCMilli: 250,
					Sketch: []byte{0xff, 0, 0xff, 0}},
				Checksum: 0xCAFEF00D},
		}}
	zhdr, err := marshalHeader(zoned, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(zhdr)
	// A v5 header with a reorder permutation, so the fuzzer mutates the
	// perm block (mode, length, deltas, CRC) from a valid start.
	reordered := &Index{TotalReads: 3, ShardReads: 2,
		ReorderMode: ReorderClump, Perm: []int64{2, 0, 1},
		Entries: []Entry{
			{ReadCount: 2, Offset: 0, Length: 30, Checksum: 0xDEADBEEF},
			{ReadCount: 1, Offset: 30, Length: 13, Checksum: 0xCAFEF00D},
		}}
	rhdr, err := marshalHeader(reordered, genome.MustFromString("ACGT"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rhdr)
	for _, name := range []string{"golden_v1.sage", "golden_v2.sage", "golden_v3.sage",
		"golden_v4.sage", "golden_v5.sage"} {
		if data, err := os.ReadFile(filepath.Join("testdata", name)); err == nil {
			f.Add(data)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		c, hdrLen, err := parseHeader(data, int64(len(data)))
		if err != nil {
			return
		}
		if hdrLen > len(data) {
			t.Fatalf("header length %d exceeds input %d", hdrLen, len(data))
		}
		if c.Version < 1 || c.Version > FormatVersion {
			t.Fatalf("accepted version %d", c.Version)
		}
		reads := 0
		for i, e := range c.Index.Entries {
			reads += e.ReadCount
			if len(c.Index.Sources) > 0 && e.Source >= len(c.Index.Sources) {
				t.Fatalf("entry %d source %d out of manifest range %d", i, e.Source, len(c.Index.Sources))
			}
			z := e.Zone
			if z.MinLen > z.MaxLen || z.MinAvgPhredMilli > z.MaxAvgPhredMilli ||
				z.MinEEMilli > z.MaxEEMilli || z.MinGCMilli > z.MaxGCMilli {
				t.Fatalf("entry %d accepted an inverted zone envelope: %+v", i, z)
			}
			if z.QualReads > e.ReadCount || z.LowQualReads > e.ReadCount {
				t.Fatalf("entry %d zone counts %d/%d scored reads for %d records",
					i, z.QualReads, z.LowQualReads, e.ReadCount)
			}
			if c.Version >= 4 && len(z.Sketch) != c.Index.SketchBytes {
				t.Fatalf("entry %d sketch is %d bytes, header says %d", i, len(z.Sketch), c.Index.SketchBytes)
			}
		}
		if reads != c.Index.TotalReads {
			t.Fatalf("accepted inconsistent read totals: %d vs %d", reads, c.Index.TotalReads)
		}
		switch c.Index.ReorderMode {
		case ReorderNone:
			if c.Version >= reorderVersion {
				t.Fatalf("v%d container accepted with reorder mode none", c.Version)
			}
			if len(c.Index.Perm) != 0 {
				t.Fatalf("identity container carries a %d-entry perm", len(c.Index.Perm))
			}
		case ReorderClump:
			if c.Version < 5 {
				t.Fatalf("v%d container claims a reorder mode", c.Version)
			}
			if len(c.Index.Perm) != c.Index.TotalReads {
				t.Fatalf("perm holds %d entries for %d reads", len(c.Index.Perm), c.Index.TotalReads)
			}
			seen := make(map[int64]bool, len(c.Index.Perm))
			for i, p := range c.Index.Perm {
				if p < 0 || p >= int64(c.Index.TotalReads) || seen[p] {
					t.Fatalf("accepted invalid perm entry %d at %d", p, i)
				}
				seen[p] = true
			}
		default:
			t.Fatalf("accepted unknown reorder mode %d", c.Index.ReorderMode)
		}
		if len(c.Index.Sources) > 0 {
			per := make([]int, len(c.Index.Sources))
			for _, e := range c.Index.Entries {
				per[e.Source] += e.ReadCount
			}
			for i, s := range c.Index.Sources {
				if per[i] != s.Reads {
					t.Fatalf("accepted inconsistent manifest: source %d has %d reads, manifest says %d", i, per[i], s.Reads)
				}
			}
		}
		// A successfully parsed header must round-trip through the
		// writer into bytes that parse to the same index.
		re, err := marshalHeader(&c.Index, c.Consensus)
		if err != nil {
			t.Fatalf("re-marshal of accepted header failed: %v", err)
		}
		c2, _, err := parseHeader(re, int64(len(re))+c.Index.BlockBytes())
		if err != nil {
			t.Fatalf("re-marshaled header does not parse: %v", err)
		}
		if len(c2.Index.Entries) != len(c.Index.Entries) || c2.Index.TotalReads != c.Index.TotalReads {
			t.Fatal("index changed across re-marshal")
		}
		if !bytes.Equal([]byte(c2.Consensus), []byte(c.Consensus)) {
			t.Fatal("consensus changed across re-marshal")
		}
	})
}

// FuzzDecodePerm drives decodePerm directly: a mutated permutation
// inside a whole header almost never passes its CRC, so FuzzParseHeader
// seldom reaches it. Entry counts run up to the block's length, the
// bound the header parser checks before the call. The invariants: never
// panic, allocate no more than the permutation and its seen-bitmap
// plus a fixed allowance (measured once more before failing, since the
// fuzzing engine's goroutines add to the process-wide count), and a
// block that decodes is a permutation of [0,total) that encodePerm and
// decodePerm carry back unchanged.
func FuzzDecodePerm(f *testing.F) {
	long := make([]int64, 300) // multi-byte deltas
	for i := range long {
		long[i] = int64(i*7) % 300
	}
	for _, perm := range [][]int64{nil, {0}, {2, 0, 1}, {4, 3, 2, 1, 0}, long} {
		enc, err := encodePerm(perm)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc, uint16(len(perm)))
	}
	f.Add([]byte{2, 2, 2}, uint16(3))          // a repeat
	f.Add([]byte{0x80, 0x80, 0x80}, uint16(2)) // truncated varint
	f.Add([]byte{0, 2, 2, 0}, uint16(3))       // trailing byte

	f.Fuzz(func(t *testing.T, enc []byte, n uint16) {
		total := min(int(n), len(enc))
		ceiling := 10*uint64(total) + 1<<10
		var perm []int64
		var err error
		measure := func() uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			perm, err = decodePerm(enc, total)
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		if got := measure(); got > ceiling {
			if got = min(got, measure()); got > ceiling {
				t.Fatalf("decodePerm of %d entries from %d bytes allocated %d bytes, ceiling %d",
					total, len(enc), got, ceiling)
			}
		}
		if err != nil {
			return
		}
		if len(perm) != total {
			t.Fatalf("decoded %d entries, want %d", len(perm), total)
		}
		seen := make([]bool, total)
		for i, v := range perm {
			if v < 0 || v >= int64(total) || seen[v] {
				t.Fatalf("accepted invalid entry %d at %d", v, i)
			}
			seen[v] = true
		}
		again, err := encodePerm(perm)
		if err != nil {
			t.Fatalf("encodePerm rejects a decoded permutation: %v", err)
		}
		if back, err := decodePerm(again, total); err != nil || !slices.Equal(back, perm) {
			t.Fatalf("re-encoded permutation decodes to %v, %v", back, err)
		}
	})
}
