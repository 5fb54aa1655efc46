package shard

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"sage/internal/fastq"
	"sage/internal/genome"
	"sage/internal/reorder"
)

// reorderCompress runs input FASTQ text through the full v5 pipeline:
// BatchReader → clump Stage → CompressPipeline.
func reorderCompress(t testing.TB, input []byte, opt Options, paired bool, sc reorder.SortConfig) ([]byte, *Stats, []int64) {
	t.Helper()
	var src fastq.BatchSource = fastq.NewBatchReader(bytes.NewReader(input), opt.shardReads())
	st, err := reorder.NewStage(src, reorder.Config{
		Mode: reorder.ModeClump, BatchSize: opt.shardReads(), Paired: paired, Sort: sc})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var buf bytes.Buffer
	stats, err := CompressPipeline(st, &buf, opt)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), stats, st.Perm()
}

// TestReorderRoundtrip is the core v5 contract: a reordered container
// stores a permutation of the input, and the original-order decode
// reproduces the input FASTQ byte-for-byte.
func TestReorderRoundtrip(t *testing.T) {
	rs, ref := testSet(t, 300)
	input := rs.Bytes()
	opt := DefaultOptions(ref)
	opt.ShardReads = 64

	data, stats, perm := reorderCompress(t, input, opt, false, reorder.SortConfig{})
	if stats.Reads != 300 || stats.ReorderMode != ReorderClump {
		t.Fatalf("stats: %+v", stats)
	}
	c, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if c.Version != FormatVersion || c.Index.ReorderMode != ReorderClump {
		t.Fatalf("version %d reorder %d", c.Version, c.Index.ReorderMode)
	}
	if len(c.Index.Perm) != 300 {
		t.Fatalf("container perm has %d entries", len(c.Index.Perm))
	}
	// The container perm composes the stage's ingest permutation with
	// the codec's in-shard position sort, so it is generally NOT the
	// stage perm — but it must still be a permutation of the same set.
	seen := make([]bool, len(perm))
	for _, p := range c.Index.Perm {
		if p < 0 || p >= int64(len(seen)) || seen[p] {
			t.Fatalf("container perm entry %d invalid or duplicate", p)
		}
		seen[p] = true
	}

	// Plain decode: the stored order, decoded record i being original
	// record Perm[i].
	stored, err := Decompress(data, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range c.Index.Perm {
		want := rs.Records[p]
		got := stored.Records[i]
		if got.Header != want.Header || !bytes.Equal(got.Seq, want.Seq) || !bytes.Equal(got.Qual, want.Qual) {
			t.Fatalf("stored record %d is not original %d", i, p)
		}
	}

	// Original-order decode: byte-identical input.
	var out bytes.Buffer
	if err := c.DecompressOriginalTo(&out, nil, 2, reorder.SortConfig{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), input) {
		t.Fatalf("original-order decode diverged: %d vs %d bytes", out.Len(), len(input))
	}

	// The same restore under a forced external sort spills and still
	// reproduces the input exactly.
	out.Reset()
	if err := c.DecompressOriginalTo(&out, nil, 2, reorder.SortConfig{MemBudget: 4 << 10, TmpDir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), input) {
		t.Fatal("spilled original-order decode diverged")
	}
}

// originalOracle is what DecompressOriginalTo must write for data: the
// records Decompress returns, each placed at its original index by the
// stored permutation, written with ReadSet.Write.
func originalOracle(t *testing.T, data []byte) []byte {
	t.Helper()
	c, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := Decompress(data, 1)
	if err != nil {
		t.Fatal(err)
	}
	orig := &fastq.ReadSet{Records: make([]fastq.Record, len(stored.Records))}
	for i, p := range c.Index.Perm {
		orig.Records[p] = stored.Records[i]
	}
	var b bytes.Buffer
	if err := orig.Write(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestOriginalOrderBudgets restores reordered containers — scored, without
// quality, without headers, written with Core.EmbedConsensus off (the
// consensus is embedded all the same), with empty reads among the rest,
// and golden_v5.sage — on 1, 3 and 8 workers at four budgets: the
// default, which never spills; a quarter of the input, what the
// repository benchmark's 1 MiB is to its reads; a 64th, which makes more
// than 50 key ranges; and one byte, which makes every record its own
// range — more ranges than a process may have files open, all in the
// one spill file. Every restore is
// byte-identical to originalOracle, and to the input where the
// container keeps everything; none leaves a file behind. A record
// counts for more than its FASTQ text against the budget, so a budget
// of len(input)/k gives at least about k ranges. Each container's twin
// without a consensus (stripConsensus) fails with errNoConsensus before
// anything is restored.
func TestOriginalOrderBudgets(t *testing.T) {
	rs, ref := testSet(t, 1200)
	// Every 97th read is empty: no bases and no scores.
	for i := 0; i < len(rs.Records); i += 97 {
		rs.Records[i].Seq, rs.Records[i].Qual = genome.Seq{}, []byte{}
	}
	input := rs.Bytes()
	type restoreCase struct {
		name  string
		data  []byte
		input []byte // what the restore must equal, when it keeps it all
	}
	var cases []restoreCase
	add := func(name string, lossless bool, edit func(*Options)) {
		opt := DefaultOptions(ref)
		opt.ShardReads = 64
		if edit != nil {
			edit(&opt)
		}
		rc := restoreCase{name: name}
		rc.data, _, _ = reorderCompress(t, input, opt, false, reorder.SortConfig{})
		if lossless {
			rc.input = input
		}
		cases = append(cases, rc)
	}
	add("scored", true, nil)
	add("no-quality", false, func(o *Options) { o.Core.IncludeQuality = false })
	add("no-headers", false, func(o *Options) { o.Core.IncludeHeaders = false })
	add("embed-off", true, func(o *Options) { o.Core.EmbedConsensus = false })
	cases = append(cases, restoreCase{name: "golden_v5.sage", data: readTestdata(t, "golden_v5.sage")})
	for _, rc := range cases {
		want := originalOracle(t, rc.data)
		if rc.input != nil && !bytes.Equal(want, rc.input) {
			t.Fatalf("%s: the oracle is not the input", rc.name)
		}
		c, err := Parse(rc.data)
		if err != nil {
			t.Fatal(err)
		}
		bare, err := Parse(stripConsensus(t, rc.data))
		if err != nil {
			t.Fatal(err)
		}
		var none bytes.Buffer
		if err := bare.DecompressOriginalTo(&none, nil, 3, reorder.SortConfig{TmpDir: t.TempDir()}); !errors.Is(err, errNoConsensus) || none.Len() != 0 {
			t.Fatalf("%s without its consensus: %v after %d bytes, want %v and none", rc.name, err, none.Len(), errNoConsensus)
		}
		for _, budget := range []int64{0, int64(len(want) / 4), int64(len(want) / 64), 1} {
			for _, workers := range []int{1, 3, 8} {
				tmp := t.TempDir()
				var out bytes.Buffer
				if err := c.DecompressOriginalTo(&out, nil, workers, reorder.SortConfig{MemBudget: budget, TmpDir: tmp}); err != nil {
					t.Fatalf("%s, budget %d, %d workers: %v", rc.name, budget, workers, err)
				}
				if !bytes.Equal(out.Bytes(), want) {
					t.Fatalf("%s, budget %d, %d workers: original-order decode diverged", rc.name, budget, workers)
				}
				if left, _ := filepath.Glob(filepath.Join(tmp, "*")); len(left) != 0 {
					t.Fatalf("%s, budget %d left %v behind", rc.name, budget, left)
				}
			}
		}
	}
}

// TestDecompressOriginalIdentity: on an identity (never reordered)
// container the original-order path is just DecompressTo.
func TestDecompressOriginalIdentity(t *testing.T) {
	rs, ref := testSet(t, 100)
	opt := DefaultOptions(ref)
	opt.ShardReads = 32
	data, _, err := Compress(rs, opt)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if c.Index.ReorderMode != ReorderNone {
		t.Fatalf("identity container claims reorder mode %d", c.Index.ReorderMode)
	}
	var a, b bytes.Buffer
	if err := c.DecompressTo(&a, nil, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.DecompressOriginalTo(&b, nil, 2, reorder.SortConfig{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identity original-order decode differs from plain decode")
	}
}

// randomFASTQ builds a reproducible random FASTQ text with n reads:
// variable lengths, occasional Ns, and (when withQual is false for a
// read) records rendered without usable quality are avoided — the
// container path needs per-record consistency, so we keep quality on
// all records but vary its values.
func randomFASTQ(rng *rand.Rand, n int) []byte {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		ln := 24 + rng.Intn(40)
		sb.WriteString(fmt.Sprintf("@rnd.%d\n", i))
		for j := 0; j < ln; j++ {
			if rng.Intn(16) == 0 {
				sb.WriteByte('N')
			} else {
				sb.WriteByte("ACGT"[rng.Intn(4)])
			}
		}
		sb.WriteByte('\n')
		sb.WriteString("+\n")
		for j := 0; j < ln; j++ {
			sb.WriteByte(byte(fastq.QualityOffset + 2 + rng.Intn(40)))
		}
		sb.WriteByte('\n')
	}
	return []byte(sb.String())
}

// TestReorderProperty is the randomized acceptance property: across
// dataset shapes — including paired mode and degenerate one-read
// shards — reorder → compress → decompress -original-order is
// byte-identical to the input on 1, 3 and 8 workers, and so is the
// plain decode placed by the header's permutation.
func TestReorderProperty(t *testing.T) {
	cases := []struct {
		name       string
		seed       int64
		reads      int
		shardReads int
		paired     bool
	}{
		{"small", 1, 30, 8, false},
		{"single-read-shards", 2, 17, 1, false},
		{"paired", 3, 40, 10, true},
		{"paired-single-pair-shards", 4, 12, 2, true},
		{"large", 5, 500, 64, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			input := randomFASTQ(rng, tc.reads)
			opt := DefaultOptions(genome.Random(rng, 4000))
			opt.ShardReads = tc.shardReads

			data, stats, perm := reorderCompress(t, input, opt, tc.paired, reorder.SortConfig{})
			if stats.Reads != tc.reads {
				t.Fatalf("compressed %d reads, want %d", stats.Reads, tc.reads)
			}
			c, err := Parse(data)
			if err != nil {
				t.Fatal(err)
			}

			if !bytes.Equal(originalOracle(t, data), input) {
				t.Fatal("the stored records under the permutation are not the input")
			}
			for _, workers := range []int{1, 3, 8} {
				var out bytes.Buffer
				if err := c.DecompressOriginalTo(&out, nil, workers, reorder.SortConfig{}); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(out.Bytes(), input) {
					t.Fatalf("%d workers: original-order decode is not the input", workers)
				}
			}

			orig, err := fastq.Parse(bytes.NewReader(input))
			if err != nil {
				t.Fatal(err)
			}
			stored, err := Decompress(data, 2)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range c.Index.Perm {
				if stored.Records[i].Header != orig.Records[p].Header {
					t.Fatalf("stored %d is %q, perm says %q",
						i, stored.Records[i].Header, orig.Records[p].Header)
				}
			}
			// The stage perm (pre-codec) keeps mates adjacent as units.
			if tc.paired {
				for i := 0; i+1 < len(perm); i += 2 {
					if perm[i+1] != perm[i]+1 || perm[i]%2 != 0 {
						t.Fatalf("pair split across stage positions %d,%d: %d %d",
							i, i+1, perm[i], perm[i+1])
					}
				}
				// And in the container, both mates land in the same
				// shard (the codec may interleave them within it).
				shardOf := make([]int, tc.reads)
				pos := 0
				for s, e := range c.Index.Entries {
					for j := 0; j < e.ReadCount; j++ {
						shardOf[c.Index.Perm[pos]] = s
						pos++
					}
				}
				for k := 0; k+1 < tc.reads; k += 2 {
					if shardOf[k] != shardOf[k+1] {
						t.Fatalf("mates %d/%d split across shards %d/%d",
							k, k+1, shardOf[k], shardOf[k+1])
					}
				}
			}
		})
	}
}

// TestPermCodec unit-tests encodePerm/decodePerm validation: the
// decoder must reject every malformed permutation by name.
func TestPermCodec(t *testing.T) {
	perm := []int64{2, 0, 3, 1}
	enc, err := encodePerm(perm)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodePerm(enc, len(perm))
	if err != nil {
		t.Fatal(err)
	}
	for i := range perm {
		if got[i] != perm[i] {
			t.Fatalf("roundtrip diverged at %d: %d != %d", i, got[i], perm[i])
		}
	}

	bad := []struct {
		name string
		perm []int64
	}{
		{"duplicate", []int64{1, 1, 2, 3}},
		{"out of range", []int64{0, 1, 2, 4}},
		{"negative", []int64{0, 1, 2, -1}},
	}
	for _, tc := range bad {
		enc, err := encodePerm(tc.perm)
		if err != nil {
			// encodePerm may reject outright; that is also a pass.
			continue
		}
		if _, err := decodePerm(enc, len(tc.perm)); err == nil {
			t.Errorf("%s permutation decoded", tc.name)
		}
	}

	// Truncated and trailing bytes.
	if _, err := decodePerm(enc[:1], len(perm)); err == nil {
		t.Error("truncated perm decoded")
	}
	if _, err := decodePerm(append(append([]byte(nil), enc...), 0), len(perm)); err == nil {
		t.Error("perm with trailing bytes decoded")
	}
}

// TestPermHeaderCorruption flips bytes inside the golden v5 header's
// permutation block and checks the parser rejects each corruption
// rather than silently reordering reads.
func TestPermHeaderCorruption(t *testing.T) {
	good := readTestdata(t, "golden_v5.sage")
	if _, err := Parse(good); err != nil {
		t.Fatal(err)
	}

	// The perm block sits between the SketchBytes field and the header
	// CRC; rather than chase exact offsets, flip every byte of the
	// header one at a time — the parser must never accept a mutated
	// header AND deliver a different permutation without error. (Most
	// flips die on the header CRC; flips inside the perm encoding that
	// survive would be caught by the perm CRC or validation.)
	c0, err := Parse(good)
	if err != nil {
		t.Fatal(err)
	}
	limit := 200 // the v5 header region (magic through perm CRC) is well under this
	for off := 4; off < limit; off++ {
		mut := append([]byte(nil), good...)
		mut[off] ^= 0x5a
		c, err := Parse(mut)
		if err != nil {
			continue
		}
		if c.Index.ReorderMode != c0.Index.ReorderMode || len(c.Index.Perm) != len(c0.Index.Perm) {
			t.Fatalf("flip at %d parsed with a different reorder state", off)
		}
		for i := range c.Index.Perm {
			if c.Index.Perm[i] != c0.Index.Perm[i] {
				t.Fatalf("flip at %d silently changed the permutation", off)
			}
		}
	}

	// Truncating inside the perm block must read as a short header for
	// the growing-prefix Open protocol, not as corruption.
	_, _, err = parseHeader(good[:60], int64(len(good)))
	if err == nil {
		t.Fatal("truncated v5 header parsed")
	}
}

// TestReorderStreamOpen: the lazy Open path reads the same perm and
// serves DecompressShard consistently with the eager parser.
func TestReorderStreamOpen(t *testing.T) {
	data := readTestdata(t, "golden_v5.sage")
	eager, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := Open(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if lazy.Version != 5 || lazy.Index.ReorderMode != ReorderClump {
		t.Fatalf("Open: version %d mode %d", lazy.Version, lazy.Index.ReorderMode)
	}
	if len(lazy.Index.Perm) != len(eager.Index.Perm) {
		t.Fatalf("Open perm %d entries, Parse %d", len(lazy.Index.Perm), len(eager.Index.Perm))
	}
	for i := range eager.Index.Perm {
		if lazy.Index.Perm[i] != eager.Index.Perm[i] {
			t.Fatalf("Open perm diverges at %d", i)
		}
	}
}

// TestMarshalRejectsBadPerm: the writer refuses inconsistent reorder
// state instead of emitting a container readers would reject.
func TestMarshalRejectsBadPerm(t *testing.T) {
	if _, err := marshalHeader(&Index{TotalReads: 3, ShardReads: 2,
		ReorderMode: ReorderClump, Perm: []int64{0, 1}}, nil); err == nil {
		t.Fatal("short perm marshaled")
	}
	if _, err := marshalHeader(&Index{TotalReads: 2, ShardReads: 2,
		Perm: []int64{1, 0}}, nil); err == nil {
		t.Fatal("perm without a mode marshaled")
	}
	if _, err := marshalHeader(&Index{TotalReads: 2, ShardReads: 2,
		ReorderMode: 9, Perm: []int64{1, 0}}, nil); err == nil {
		t.Fatal("unknown mode marshaled")
	}
}
