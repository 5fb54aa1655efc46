package bench

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"sage/internal/core"
	"sage/internal/fastq"
	"sage/internal/genome"
	"sage/internal/qual"
	"sage/internal/reorder"
	"sage/internal/shard"
	"sage/internal/simulate"
)

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
// committed budget from allocs.go.
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
