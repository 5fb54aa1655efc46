package bench

import (
	"bytes"
	"compress/gzip"
	"io"
	"testing"
	"time"

	"sage/internal/core"
	"sage/internal/fastq"
	"sage/internal/pargz"
	"sage/internal/reorder"
	"sage/internal/shard"
)

// decodeGateWorkers is the pool size the compressed-ingest gates model.
const decodeGateWorkers = 8

// TestIngestDecodeGates pins the acceptance gates for compressed ingest
// on the RS2 dataset: member-parallel decode is at least 2x serial
// stdlib on multi-member input (modeled on the measured per-member
// times, so the gate is stable on throttled CI hosts), decode is never
// the pipeline critical path at decodeGateWorkers shard workers, and
// recompress output is byte-identical in both identity and reorder +
// original-order modes.
func TestIngestDecodeGates(t *testing.T) {
	m, err := testSuite(t).Measurement("RS2")
	if err != nil {
		t.Fatal(err)
	}
	plain := m.Gen.FASTQ
	bg := bgzfFixture(t, plain, 32)
	members, err := pargz.SplitMembers(bg)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) < 16 {
		t.Errorf("BGZF fixture has only %d members; too few for a meaningful parallel gate", len(members))
	}

	r, err := pargz.NewReader(bytes.NewReader(bg), pargz.Options{Workers: decodeGateWorkers})
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, plain) {
		t.Fatalf("member-parallel decode differs from the input (%d vs %d bytes)", len(got), len(plain))
	}
	if r.Tier() != pargz.TierBGZF {
		t.Fatalf("BGZF fixture decoded via tier %v", r.Tier())
	}

	// Per-member inflate times: exactly the work one pargz pool worker does.
	memberTimes := make([]time.Duration, len(members))
	for i, mb := range members {
		start := time.Now()
		zr, err := gzip.NewReader(bytes.NewReader(mb))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, zr); err != nil {
			t.Fatal(err)
		}
		memberTimes[i] = time.Since(start)
	}
	if sp := ShardSpeedup(memberTimes, decodeGateWorkers); sp < 2 {
		t.Errorf("member-parallel decode speedup %.2fx at %d workers; gate requires >= 2x", sp, decodeGateWorkers)
	}

	// Critical path: the same schedule model for both stages, per-shard
	// compress times vs per-member decode times on one pool.
	shardReads := len(m.Gen.Reads.Records) / 16
	if shardReads < 1 {
		shardReads = 1
	}
	copt := core.DefaultOptions(m.Gen.Ref)
	copt.EmbedConsensus = false
	copt.Workers = 1
	var shardTimes []time.Duration
	src := fastq.NewBatchReader(bytes.NewReader(plain), shardReads)
	for {
		b, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if _, err := core.Compress(&fastq.ReadSet{Records: b.Records}, copt); err != nil {
			t.Fatal(err)
		}
		shardTimes = append(shardTimes, time.Since(start))
	}
	decodeSpan := ShardMakespan(memberTimes, decodeGateWorkers)
	compressSpan := ShardMakespan(shardTimes, decodeGateWorkers)
	if decodeSpan >= compressSpan {
		t.Errorf("decode is the pipeline critical path at %d workers: decode makespan %v, compress makespan %v",
			decodeGateWorkers, decodeSpan, compressSpan)
	}

	opt := shard.DefaultOptions(m.Gen.Ref)
	opt.ShardReads = shardReads
	if !recompressRoundtrip(t, bg, plain, opt, false) {
		t.Error("identity recompress is not byte-identical to compressing the plain FASTQ")
	}
	if !recompressRoundtrip(t, bg, plain, opt, true) {
		t.Error("reorder recompress + original-order restore is not byte-identical to the input")
	}
}

// bgzfFixture compresses data as BGZF sized for about the given number
// of members (clamped to BGZF's 64 KiB member ceiling).
func bgzfFixture(t *testing.T, data []byte, members int) []byte {
	t.Helper()
	blockSize := len(data) / members
	if blockSize < 4<<10 {
		blockSize = 4 << 10
	}
	if blockSize > pargz.DefaultBlockSize {
		blockSize = pargz.DefaultBlockSize
	}
	var buf bytes.Buffer
	w, err := pargz.NewWriterLevel(&buf, gzip.DefaultCompression, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// recompressRoundtrip streams a compressed input through the recompress
// pipeline (pargz decode → batch source → optional reorder stage →
// CompressPipeline). Identity-mode containers must be byte-identical to
// compressing the plain FASTQ; reorder-mode containers must restore the
// exact original bytes via DecompressOriginalTo.
func recompressRoundtrip(t *testing.T, in, plain []byte, opt shard.Options, doReorder bool) bool {
	t.Helper()
	zr, err := pargz.NewReader(bytes.NewReader(in), pargz.Options{Workers: decodeGateWorkers})
	if err != nil {
		t.Fatal(err)
	}
	defer zr.Close()
	var src fastq.BatchSource = fastq.NewBatchReader(zr, opt.ShardReads)
	if doReorder {
		st, err := reorder.NewStage(src, reorder.Config{
			Mode: reorder.ModeClump, BatchSize: opt.ShardReads,
			Sort: reorder.SortConfig{MemBudget: int64(len(plain)) / 8}})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		src = st
	}
	var got bytes.Buffer
	if _, err := shard.CompressPipeline(src, &got, opt); err != nil {
		t.Fatal(err)
	}
	if doReorder {
		c, err := shard.Parse(got.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		var restored bytes.Buffer
		if err := c.DecompressOriginalTo(&restored, nil, 0, reorder.SortConfig{}); err != nil {
			t.Fatal(err)
		}
		return bytes.Equal(restored.Bytes(), plain)
	}
	var want bytes.Buffer
	if _, err := shard.CompressPipeline(
		fastq.NewBatchReader(bytes.NewReader(plain), opt.ShardReads), &want, opt); err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(got.Bytes(), want.Bytes())
}
