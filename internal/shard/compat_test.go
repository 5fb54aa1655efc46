package shard

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"sage/internal/fastq"
	"sage/internal/reorder"
)

// The golden containers under testdata/ pin every historical wire
// version of the same 12-read read set and must stay decodable
// forever: docs/FORMAT.md's compatibility rule is that a reader
// accepts every version up to its own. golden_v1.sage was written by
// the pre-v3 writer; golden_v2.sage is the same container with the
// version byte set to 2 (and the header CRC fixed up) — versions 1
// and 2 share the manifest-less wire layout. golden_v3.sage was
// written by the v3 writer (source-manifest era, no zone maps),
// golden_v4.sage by the v4 writer (zone maps + k-mer sketch), and
// golden_v5.sage by the v5 writer (clump-reordered, with the inverse
// permutation in the header); all must keep decoding byte-for-byte
// alongside the current writer.

func readTestdata(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestLegacyContainersDecode proves every historical golden container
// decodes byte-for-byte to the pinned FASTQ under the current reader,
// via both the in-memory (Parse/Decompress) and lazy (Open) paths.
func TestLegacyContainersDecode(t *testing.T) {
	wantFASTQ := readTestdata(t, "golden_v1.fastq")
	for _, tc := range []struct {
		file    string
		version int
	}{
		{"golden_v1.sage", 1},
		{"golden_v2.sage", 2},
		{"golden_v3.sage", 3},
		{"golden_v4.sage", 4},
	} {
		t.Run(tc.file, func(t *testing.T) {
			data := readTestdata(t, tc.file)
			c, err := Parse(data)
			if err != nil {
				t.Fatal(err)
			}
			if c.Version != tc.version {
				t.Fatalf("parsed version %d, want %d", c.Version, tc.version)
			}
			if len(c.Index.Sources) != 0 {
				t.Fatalf("legacy container grew a manifest: %+v", c.Index.Sources)
			}
			if c.NumShards() != 3 || c.Index.TotalReads != 12 {
				t.Fatalf("index = %+v", c.Index)
			}
			rs, err := Decompress(data, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rs.Bytes(), wantFASTQ) {
				t.Fatalf("legacy container no longer decodes byte-for-byte:\n got %d bytes\nwant %d bytes",
					len(rs.Bytes()), len(wantFASTQ))
			}

			// Lazy path: Open must handle legacy headers the same way.
			oc, err := Open(bytes.NewReader(data), int64(len(data)))
			if err != nil {
				t.Fatal(err)
			}
			if oc.Version != tc.version {
				t.Fatalf("Open parsed version %d, want %d", oc.Version, tc.version)
			}
			var got bytes.Buffer
			for i := 0; i < oc.NumShards(); i++ {
				srs, err := oc.DecompressShard(i, nil)
				if err != nil {
					t.Fatal(err)
				}
				got.Write(srs.Bytes())
			}
			if !bytes.Equal(got.Bytes(), wantFASTQ) {
				t.Fatal("lazily opened legacy container decodes differently")
			}

			// Legacy containers re-render under Inspect with their own
			// version number and no source column.
			info, err := Inspect(data)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains([]byte(info), []byte("container v"+string(rune('0'+tc.version)))) {
				t.Fatalf("Inspect does not report v%d:\n%s", tc.version, info)
			}
			if bytes.Contains([]byte(info), []byte("source")) {
				t.Fatalf("Inspect invented a source column for a legacy container:\n%s", info)
			}
		})
	}
}

// TestUnsupportedVersion checks versions beyond the reader's are
// rejected by name, not misparsed.
func TestUnsupportedVersion(t *testing.T) {
	data := append([]byte(nil), readTestdata(t, "golden_v1.sage")...)
	data[4] = FormatVersion + 1
	_, err := Parse(data)
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("unsupported version")) {
		t.Fatalf("future version parsed: %v", err)
	}
	data[4] = 0
	if _, err := Parse(data); err == nil {
		t.Fatal("version 0 parsed")
	}
}

// TestLegacyGoldenImmutable pins the testdata bytes themselves (by
// length and header CRC position) so a regeneration that silently
// rewrites them in the new format is caught.
func TestLegacyGoldenImmutable(t *testing.T) {
	v1 := readTestdata(t, "golden_v1.sage")
	v2 := readTestdata(t, "golden_v2.sage")
	if v1[4] != 1 || v2[4] != 2 {
		t.Fatalf("golden version bytes changed: v1=%d v2=%d", v1[4], v2[4])
	}
	if len(v1) != len(v2) {
		t.Fatalf("golden containers diverged in size: %d vs %d", len(v1), len(v2))
	}
	// They differ only in the version byte and the 4 header-CRC bytes.
	diff := 0
	for i := range v1 {
		if v1[i] != v2[i] {
			diff++
		}
	}
	if diff == 0 || diff > 5 {
		t.Fatalf("golden v1/v2 differ at %d bytes, want 1-5 (version byte + header CRC)", diff)
	}
	v3 := readTestdata(t, "golden_v3.sage")
	v4 := readTestdata(t, "golden_v4.sage")
	if v3[4] != 3 || v4[4] != 4 {
		t.Fatalf("golden version bytes changed: v3=%d v4=%d", v3[4], v4[4])
	}
	if len(v3) != 542 || len(v4) != 795 {
		t.Fatalf("golden v3/v4 sizes changed: %d, %d (want 542, 795) — regenerated in a new format?",
			len(v3), len(v4))
	}
	v5 := readTestdata(t, "golden_v5.sage")
	if v5[4] != 5 {
		t.Fatalf("golden v5 version byte changed: %d", v5[4])
	}
	if len(v5) != 813 {
		t.Fatalf("golden v5 size changed: %d (want 813) — regenerated in a new format?", len(v5))
	}
}

// TestGoldenV5Decodes pins the reordered golden: golden_v5.sage holds
// the same 12 reads as golden_v1.fastq, clump-sorted at compress time.
// A plain decode yields the stored (permuted) order; the original-order
// path must reproduce golden_v1.fastq byte-for-byte.
func TestGoldenV5Decodes(t *testing.T) {
	wantFASTQ := readTestdata(t, "golden_v1.fastq")
	data := readTestdata(t, "golden_v5.sage")
	c, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if c.Version != 5 || c.Index.ReorderMode != ReorderClump {
		t.Fatalf("version %d reorder %d, want 5/clump", c.Version, c.Index.ReorderMode)
	}
	if len(c.Index.Perm) != c.Index.TotalReads || c.Index.TotalReads != 12 {
		t.Fatalf("perm holds %d entries for %d reads", len(c.Index.Perm), c.Index.TotalReads)
	}

	// Stored order: a valid decode that is NOT the input order.
	var stored bytes.Buffer
	if err := c.DecompressTo(&stored, nil, 2); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(stored.Bytes(), wantFASTQ) {
		t.Fatal("stored order equals input order — golden not actually reordered")
	}

	// Original order: byte-for-byte the source FASTQ.
	var orig bytes.Buffer
	if err := c.DecompressOriginalTo(&orig, nil, 2, reorder.SortConfig{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig.Bytes(), wantFASTQ) {
		t.Fatalf("original-order decode diverged:\n got %d bytes\nwant %d bytes",
			orig.Len(), len(wantFASTQ))
	}

	// The stored order is exactly the permutation the header claims.
	permuted, err := Decompress(data, 2)
	if err != nil {
		t.Fatal(err)
	}
	origSet, err := fastq.Parse(bytes.NewReader(wantFASTQ))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range c.Index.Perm {
		if permuted.Records[i].Header != origSet.Records[p].Header {
			t.Fatalf("stored record %d is %q, perm says original %d = %q",
				i, permuted.Records[i].Header, p, origSet.Records[p].Header)
		}
	}

	// Inspect names the reorder mode and the recovery path.
	info, err := Inspect(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains([]byte(info), []byte("container v5")) ||
		!bytes.Contains([]byte(info), []byte("clump")) {
		t.Fatalf("Inspect does not surface v5 reorder:\n%s", info)
	}
}

// TestZoneMapCompat pins the version gate of query push-down: only v4
// containers carry zone maps, so a predicate prunes shards of the v4
// golden but must scan every shard of the older ones — and pruning
// must never drop a record the full decode would have matched.
func TestZoneMapCompat(t *testing.T) {
	// golden reads are 32 bases long; min-len 100 can match nothing.
	pred := &Predicate{MinLen: 100}
	for _, tc := range []struct {
		file   string
		zoned  bool
		pruned int
	}{
		{"golden_v1.sage", false, 0},
		{"golden_v2.sage", false, 0},
		{"golden_v3.sage", false, 0},
		{"golden_v4.sage", true, 3},
	} {
		c, err := Parse(readTestdata(t, tc.file))
		if err != nil {
			t.Fatal(err)
		}
		if c.HasZoneMaps() != tc.zoned {
			t.Fatalf("%s: HasZoneMaps = %v", tc.file, c.HasZoneMaps())
		}
		scan, pruned := c.QueryPlan(pred)
		if pruned != tc.pruned || len(scan) != c.NumShards()-tc.pruned {
			t.Fatalf("%s: plan scanned %d pruned %d, want pruned %d",
				tc.file, len(scan), pruned, tc.pruned)
		}
		var out bytes.Buffer
		st, err := c.Filter(&out, pred, 2)
		if err != nil {
			t.Fatal(err)
		}
		if st.ReadsMatched != 0 || out.Len() != 0 {
			t.Fatalf("%s: impossible predicate matched %d reads", tc.file, st.ReadsMatched)
		}
	}
}
