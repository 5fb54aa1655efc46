package shard

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"sage/internal/fastq"
	"sage/internal/genome"
	"sage/internal/simulate"
)

// renderCase is one container of the render differential.
type renderCase struct {
	name string
	data []byte
}

// renderCases covers every branch of the decode loop: short and long
// reads, chimeric reads (extra segments, reverse ones among them),
// indel-heavy long reads, N bases (the 3-bit corner alphabet), unmapped
// and clipped reads (raw payloads), containers without quality or
// headers, one whose options ask not to embed the consensus (the writer
// embeds it all the same), and every committed golden container.
func renderCases(t *testing.T) []renderCase {
	t.Helper()
	rng := rand.New(rand.NewSource(36))
	ref := genome.Random(rng, 60_000)
	donor, _ := genome.Donor(rng, ref, genome.HumanLikeProfile())
	sim := simulate.New(rng, donor)
	short := func(n int, p simulate.ShortReadProfile) *fastq.ReadSet {
		rs, err := sim.ShortReads(n, p)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	long := func(n int, p simulate.LongReadProfile) *fastq.ReadSet {
		rs, err := sim.LongReads(n, p)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	chimeric := simulate.DefaultLongProfile()
	chimeric.MeanLen, chimeric.MaxLen, chimeric.ChimeraRate = 3000, 9000, 0.6
	indels := simulate.DefaultLongProfile()
	indels.MeanLen, indels.MaxLen = 2000, 6000
	indels.ErrRate, indels.ErrSubFrac, indels.MaxIndelBlock = 0.08, 0.1, 40
	withN := simulate.DefaultShortProfile()
	withN.NRate = 0.02
	corner := simulate.DefaultLongProfile()
	corner.MeanLen, corner.MaxLen, corner.ClipRate, corner.ClipMaxLen = 1500, 4000, 1, 600
	// Reads from nowhere in the reference are stored unmapped.
	unmapped := short(40, simulate.DefaultShortProfile())
	for i := range unmapped.Records {
		if i%2 == 0 {
			copy(unmapped.Records[i].Seq, genome.Random(rng, len(unmapped.Records[i].Seq)))
		}
	}
	unmapped.Records = append(unmapped.Records, long(12, corner).Records...)

	var cases []renderCase
	add := func(name string, rs *fastq.ReadSet, shardReads int, edit func(*Options)) {
		opt := DefaultOptions(ref)
		opt.ShardReads = shardReads
		if edit != nil {
			edit(&opt)
		}
		data, _, err := Compress(rs, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases = append(cases, renderCase{name: name, data: data})
	}
	shortSet := short(700, simulate.DefaultShortProfile())
	add("short", shortSet, 100, nil)
	add("long-chimeric", long(30, chimeric), 7, nil)
	add("indel-heavy", long(20, indels), 6, nil)
	add("N-containing", short(300, withN), 64, nil)
	add("unmapped-corner", unmapped, 16, nil)
	add("no-quality", shortSet, 128, func(o *Options) { o.Core.IncludeQuality = false })
	add("no-header", shortSet, 128, func(o *Options) { o.Core.IncludeHeaders = false })
	add("bare", shortSet, 256, func(o *Options) {
		o.Core.IncludeQuality, o.Core.IncludeHeaders, o.Core.EmbedConsensus = false, false, false
	})
	for v := 1; v <= 5; v++ {
		name := fmt.Sprintf("golden_v%d.sage", v)
		cases = append(cases, renderCase{name: name, data: readTestdata(t, name)})
	}
	return cases
}

// TestRenderMatchesRecords: the text DecompressTo writes straight from the
// decoder is byte for byte what ReadSet.Write writes for the records
// DecompressShard decodes, at every worker count, and so is each shard's
// AppendFASTQ.
func TestRenderMatchesRecords(t *testing.T) {
	for _, tc := range renderCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Open(bytes.NewReader(tc.data), int64(len(tc.data)))
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			for i := 0; i < c.NumShards(); i++ {
				rs, err := c.DecompressShard(i, nil)
				if err != nil {
					t.Fatal(err)
				}
				shardText := rs.Bytes()
				got, err := c.AppendFASTQ([]byte("kept"), i)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, append([]byte("kept"), shardText...)) {
					t.Fatalf("shard %d: AppendFASTQ differs from the records' text (%d bytes, want %d)", i, len(got)-4, len(shardText))
				}
				want.Write(shardText)
			}
			if want.Len() == 0 {
				t.Fatal("fixture decodes to nothing")
			}
			for _, workers := range []int{1, 3, 8} {
				var got bytes.Buffer
				if err := c.DecompressTo(&got, nil, workers); err != nil {
					t.Fatalf("%d workers: %v", workers, err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("%d workers: DecompressTo wrote %d bytes, the records %d, first difference at %d",
						workers, got.Len(), want.Len(), firstDiff(got.Bytes(), want.Bytes()))
				}
			}
		})
	}
}

// firstDiff returns the first index at which a and b differ.
func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
