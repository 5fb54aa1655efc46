package bench

import (
	"bytes"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"sage/internal/core"
	"sage/internal/fastq"
	"sage/internal/genome"
	"sage/internal/qual"
	"sage/internal/reorder"
	"sage/internal/shard"
	"sage/internal/simulate"
)

// Allocation budgets for the five hot loops, in allocations per read,
// enforced by TestAllocBudgets. The gate exists so a regression that
// reintroduces per-read allocation (a stray Clone, a sort.Slice, a
// byte-slice-to-string conversion in a loop) fails CI instead of
// silently eroding throughput.
//
// Each budget is a ceiling over the measured post-optimization cost
// (headroom for runtime/toolchain drift) and is at most half of the
// pre-optimization measurement, recorded below from the same fixture
// (2048 simulated short reads, 20 kb reference, single worker):
//
//	loop                 before     after    budget
//	fastq batch scan      4.006     0.022      0.50
//	qual compress         0.013     0.000      0.01
//	qual decompress       1.000     0.001      0.05
//	core compress        37.607     3.773      4.34
//	core decompress      11.369     0.034      1.00
//	shard assemble      109.436     4.226      4.86
//	shard stream-decode  15.542     0.047     0.054
//	shard restore         7.268     0.074     0.085
//
// "before" figures predate the arena batch reader, pooled range-coder
// state, pooled mapper scratch, shared per-container mapper, decode
// arenas, and the sort.Slice→slices.Sort* conversions. The two
// write-path rows were measured again when the bit-parallel kernel
// replaced the mapper's DP matrices (16.468 → 16.214 and 19.701 →
// 19.454: an edit list is now one slice plus one base array, not one
// array per edit), and again when the mapper's k-mer map — one slice
// per distinct k-mer, built per core.Compress call here — became a flat
// table, Algorithm 1's cost function stopped allocating and the planner
// began validating into one buffer per worker (16.214 → 3.773 and
// 19.440 → 4.226; what is left is Map's candidate, segment and edit
// slices). Their budgets are 1.15× the last measurement. The
// stream-decode row fell again, 0.214 → 0.104, when DecompressTo began
// rendering FASTQ in the decoder: no records, block and text buffers and
// decoder scratch kept between shards; its budget is 1.15× the new
// figure. The restore row is a decode to records plus the
// original-order restore, spilled under a quarter of the input: its
// "before" is the comparison external sort, which allocated a group and
// a fresh record per read; "after" is the dense-key scatter, which
// allocates per key range (0.230, of which the decode 0.214; 0.186 once
// a block's bases decode into the kept scratch and are copied out in one
// allocation; 0.174 before and 0.130 after the restore took the
// decoder's FASTQ text), and its budget is 1.15× the last figure. Both
// rows fell again when the block parse stopped copying the block's
// streams (wire.Codec.Raw aliases its input) and the text list came to
// hold a buffer for every shard the decode pool keeps in flight:
// stream-decode 0.104 → 0.054, restore 0.130 → 0.081. Stream-decode
// fell to 0.051 when the header decoder's slot table moved onto the
// kept decoder scratch. Both fell again when the header decoder began
// parsing its uvarints from the block instead of through a reader that
// escaped, one allocation per block: stream-decode 0.051 → 0.047,
// restore 0.078 → 0.074; their budgets are 1.15× those. If an
// intentional change raises a number, update the budget alongside the
// code change and say why in the commit.
const (
	budgetFastqScanAllocsPerRead      = 0.50
	budgetQualCompressAllocsPerRead   = 0.01
	budgetQualDecompressAllocsPerRead = 0.05
	budgetCoreCompressAllocsPerRead   = 4.34
	budgetCoreDecompressAllocsPerRead = 1.00
	budgetShardAssembleAllocsPerRead  = 4.86
	budgetShardStreamAllocsPerRead    = 0.054
	budgetRestoreAllocsPerRead        = 0.085
)

// budgetDecodeBytesPerByte bounds the bytes a streaming decode
// (shard.Container.DecompressTo) allocates per byte of FASTQ it writes,
// enforced by TestDecodeAllocBytes on short and long reads, and on short
// reads restored to original order (DecompressOriginalTo). The
// repository benchmark's shard.decode_alloc_mb_per_mb read 3.2 (short)
// and 4.5 (long) when decoding went through records; rendering in the
// decoder left each shard's parsed block streams and little else (0.382
// short, 0.406 long); parsing blocks without copying their streams and
// keeping a text buffer per shard in flight left 0.108 and 0.011;
// keeping the header decoder's slot table in the decoder scratch left
// 0.009 on both, with an occasional run at 0.011 (short) or 0.013
// (long). The budget is 1.15× the highest of those.
const budgetDecodeBytesPerByte = 0.015

// budgetRestoreBytesPerByte is the same gate for the original-order row,
// restored under a quarter of the input: on top of the decode's own
// bytes, each restore allocates its arena, range buffers, read-back
// buffer and writer afresh, about four of its budgets. It read 3.09 while
// the restore took records, 1.41 since it takes the decoder's text, and
// 1.13 since the decode's own bytes fell as above; the budget is 1.15×
// that.
const budgetRestoreBytesPerByte = 1.30

// allocFixture is the shared workload for the alloc gate: simulated
// short reads over a small donor genome, the same shape the end-to-end
// pipeline compresses.
type allocFixture struct {
	rs   *fastq.ReadSet
	ref  genome.Seq
	text []byte
	n    float64
}

func newAllocFixture(t *testing.T, reads int) *allocFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	ref := genome.Random(rng, 20000)
	donor, _ := genome.Donor(rng, ref, genome.HumanLikeProfile())
	rs, err := simulate.New(rng, donor).ShortReads(reads, simulate.DefaultShortProfile())
	if err != nil {
		t.Fatal(err)
	}
	return &allocFixture{rs: rs, ref: ref, text: rs.Bytes(), n: float64(len(rs.Records))}
}

// gate fails the test when measured allocations per read exceed the
// committed budget above.
func gate(t *testing.T, loop string, perRead, budget float64) {
	t.Helper()
	if perRead > budget {
		t.Errorf("%s: %.3f allocs/read exceeds budget %.2f", loop, perRead, budget)
	} else {
		t.Logf("%s: %.3f allocs/read (budget %.2f)", loop, perRead, budget)
	}
}

// TestAllocBudgets is the allocation gate over the five hot loops:
// fastq scanning, quality-stream range coding, core diff
// encode/decode, shard block assembly/stream decode, and the
// original-order restore. CI runs it in
// a dedicated step with GOGC pinned so pool behaviour is stable; see
// README "Performance" for how to run it locally.
func TestAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated under the race detector")
	}
	if testing.Short() {
		t.Skip("alloc gate needs the full fixture")
	}
	fx := newAllocFixture(t, 2048)

	// Hot loop 1: fastq batch scanning (arena-backed batch builder).
	scan := testing.AllocsPerRun(5, func() {
		br := fastq.NewBatchReader(bytes.NewReader(fx.text), 256)
		for {
			if _, err := br.Next(); err != nil {
				if err == io.EOF {
					break
				}
				t.Fatal(err)
			}
		}
	})
	gate(t, "fastq scan", scan/fx.n, budgetFastqScanAllocsPerRead)

	// Hot loop 2: quality range coder (pooled encoder + probs table,
	// flat decode buffer).
	quals := make([][]byte, len(fx.rs.Records))
	lengths := make([]int, len(fx.rs.Records))
	for i := range fx.rs.Records {
		quals[i] = fx.rs.Records[i].Qual
		lengths[i] = len(fx.rs.Records[i].Qual)
	}
	qc := testing.AllocsPerRun(5, func() {
		if _, err := qual.Compress(quals); err != nil {
			t.Fatal(err)
		}
	})
	gate(t, "qual compress", qc/fx.n, budgetQualCompressAllocsPerRead)
	qdata, err := qual.Compress(quals)
	if err != nil {
		t.Fatal(err)
	}
	qd := testing.AllocsPerRun(5, func() {
		if _, err := qual.Decompress(qdata, lengths); err != nil {
			t.Fatal(err)
		}
	})
	gate(t, "qual decompress", qd/fx.n, budgetQualDecompressAllocsPerRead)

	// Hot loop 3: core diff encode/decode (pooled mapper scratch,
	// decode arena).
	opt := core.DefaultOptions(fx.ref)
	opt.Workers = 1
	cc := testing.AllocsPerRun(2, func() {
		if _, err := core.Compress(fx.rs, opt); err != nil {
			t.Fatal(err)
		}
	})
	gate(t, "core compress", cc/fx.n, budgetCoreCompressAllocsPerRead)
	enc, err := core.Compress(fx.rs, opt)
	if err != nil {
		t.Fatal(err)
	}
	cd := testing.AllocsPerRun(5, func() {
		if _, err := core.Decompress(enc.Data, nil); err != nil {
			t.Fatal(err)
		}
	})
	gate(t, "core decompress", cd/fx.n, budgetCoreDecompressAllocsPerRead)

	// Hot loop 4: shard block assembly and streaming decode (shared
	// per-container mapper, windowed shard decode).
	sopt := shard.DefaultOptions(fx.ref)
	sopt.ShardReads = 256
	sopt.Workers = 1
	sc := testing.AllocsPerRun(2, func() {
		if _, _, err := shard.Compress(fx.rs, sopt); err != nil {
			t.Fatal(err)
		}
	})
	gate(t, "shard assemble", sc/fx.n, budgetShardAssembleAllocsPerRead)
	data, _, err := shard.Compress(fx.rs, sopt)
	if err != nil {
		t.Fatal(err)
	}
	c, err := shard.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	sd := testing.AllocsPerRun(5, func() {
		if err := c.DecompressTo(io.Discard, nil, 1); err != nil {
			t.Fatal(err)
		}
	})
	gate(t, "shard stream-decode", sd/fx.n, budgetShardStreamAllocsPerRead)

	// Hot loop 5: original-order restore of a reordered container, spilled
	// under a quarter of the input (what the repository benchmark's 1 MiB
	// is to its reads) — the decode above plus the dense-key scatter.
	st, err := reorder.NewStage(fastq.NewBatchReader(bytes.NewReader(fx.text), 256),
		reorder.Config{Mode: reorder.ModeClump, BatchSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var rbuf bytes.Buffer
	if _, err := shard.CompressPipeline(st, &rbuf, sopt); err != nil {
		t.Fatal(err)
	}
	rc, err := shard.Parse(rbuf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	rsc := reorder.SortConfig{MemBudget: int64(len(fx.text) / 4), TmpDir: t.TempDir()}
	ro := testing.AllocsPerRun(5, func() {
		if err := rc.DecompressOriginalTo(io.Discard, nil, 1, rsc); err != nil {
			t.Fatal(err)
		}
	})
	gate(t, "shard original-order restore", ro/fx.n, budgetRestoreAllocsPerRead)
}

// TestDecodeAllocBytes is the byte gate of a streaming decode, short and
// long reads, and of an original-order decode of short reads: bytes
// allocated per byte of FASTQ written, over five decodes after one that
// fills the scratch free lists.
func TestDecodeAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated under the race detector")
	}
	if testing.Short() {
		t.Skip("alloc gate needs the full fixture")
	}
	fx := newAllocFixture(t, 2048)
	rng := rand.New(rand.NewSource(43))
	ref := genome.Random(rng, 60_000)
	donor, _ := genome.Donor(rng, ref, genome.HumanLikeProfile())
	lp := simulate.DefaultLongProfile()
	lp.MeanLen, lp.MaxLen, lp.ErrRate = 5000, 16000, 0.10
	long, err := simulate.New(rng, donor).LongReads(32, lp)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		rs         *fastq.ReadSet
		ref        genome.Seq
		shardReads int
		original   bool
	}{
		{"short", fx.rs, fx.ref, 256, false},
		{"long", long, ref, 8, false},
		{"short original-order", fx.rs, fx.ref, 256, true},
	} {
		opt := shard.DefaultOptions(tc.ref)
		opt.ShardReads = tc.shardReads
		var src fastq.BatchSource = fastq.NewBatchReader(bytes.NewReader(tc.rs.Bytes()), tc.shardReads)
		if tc.original {
			st, err := reorder.NewStage(src, reorder.Config{Mode: reorder.ModeClump, BatchSize: tc.shardReads})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			src = st
		}
		var buf bytes.Buffer
		if _, err := shard.CompressPipeline(src, &buf, opt); err != nil {
			t.Fatal(err)
		}
		c, err := shard.Parse(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		// The original-order decode restores under a quarter of the
		// input, what the repository benchmark's 1 MiB is to its reads.
		sc := reorder.SortConfig{MemBudget: int64(tc.rs.UncompressedSize() / 4), TmpDir: t.TempDir()}
		decode := func() error {
			if tc.original {
				return c.DecompressOriginalTo(io.Discard, nil, 1, sc)
			}
			return c.DecompressTo(io.Discard, nil, 1)
		}
		if err := decode(); err != nil {
			t.Fatal(err)
		}
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			if err := decode(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perByte := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(tc.rs.UncompressedSize())
		budget := budgetDecodeBytesPerByte
		if tc.original {
			budget = budgetRestoreBytesPerByte
		}
		if perByte > budget {
			t.Errorf("%s: the decode allocated %.3f bytes per FASTQ byte, budget %.2f", tc.name, perByte, budget)
		} else {
			t.Logf("%s: %.3f bytes per FASTQ byte (budget %.2f)", tc.name, perByte, budget)
		}
	}
}
