package bench

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"time"

	"sage/internal/fastq"
	"sage/internal/pargz"
	"sage/internal/reorder"
	"sage/internal/shard"
)

// This file benchmarks the compressed-ingest decode stage (PR 10): the
// paper's §2 warning applied to ourselves — gzipped FASTQ decoding on
// one stdlib core becomes the writer's critical path at high shard
// worker counts. The experiment proves the two pargz claims that close
// ROADMAP item 1: member-parallel decode beats serial stdlib on
// multi-member input, and at ingestWorkers shard workers the decode
// stage is never the pipeline's critical path. Speedup gates use the
// same deterministic schedule model as the shard/ingest experiments —
// per-unit times measured single-threaded on the host, the pool
// schedule computed by ShardMakespan — so they hold on a throttled
// 2-core CI runner; measured wall clocks are reported as anchors.

// ingestDecodeMembers is the member-count target for the BGZF fixture:
// enough members that an 8-worker schedule has real parallel slack.
const ingestDecodeMembers = 32

// bgzfFixture compresses data as BGZF sized for ~ingestDecodeMembers
// members (clamped to BGZF's 64 KiB member ceiling).
func bgzfFixture(data []byte) ([]byte, error) {
	blockSize := len(data) / ingestDecodeMembers
	if blockSize < 4<<10 {
		blockSize = 4 << 10
	}
	if blockSize > pargz.DefaultBlockSize {
		blockSize = pargz.DefaultBlockSize
	}
	var buf bytes.Buffer
	w, err := pargz.NewWriterLevel(&buf, gzip.DefaultCompression, blockSize)
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(data); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// measureMemberTimes inflates each compressed member once,
// single-threaded — exactly the work one pargz pool worker does —
// returning per-member wall times for the schedule model.
func measureMemberTimes(members [][]byte) ([]time.Duration, error) {
	out := make([]time.Duration, 0, len(members))
	for i, m := range members {
		start := time.Now()
		zr, err := gzip.NewReader(bytes.NewReader(m))
		if err != nil {
			return nil, fmt.Errorf("bench: member %d: %w", i, err)
		}
		if _, err := io.Copy(io.Discard, zr); err != nil {
			return nil, fmt.Errorf("bench: member %d: %w", i, err)
		}
		out = append(out, time.Since(start))
	}
	return out, nil
}

// parallelDecodeWall times a full pargz decode of in at the given
// worker count, verifying the output, and returns the wall time.
func parallelDecodeWall(in, want []byte, workers int) (time.Duration, pargz.Tier, error) {
	start := time.Now()
	r, err := pargz.NewReader(bytes.NewReader(in), pargz.Options{Workers: workers})
	if err != nil {
		return 0, 0, err
	}
	got, err := io.ReadAll(r)
	if err != nil {
		return 0, 0, err
	}
	wall := time.Since(start)
	if !bytes.Equal(got, want) {
		return 0, 0, fmt.Errorf("bench: parallel decode output differs from input (%d vs %d bytes)", len(got), len(want))
	}
	return wall, r.Tier(), nil
}

// recompressRoundtrip streams a compressed input through the full
// recompress pipeline (pargz decode → batch source → optional reorder
// stage → CompressPipeline) and verifies the result: identity-mode
// containers must be byte-identical to compressing the plain FASTQ,
// and reorder-mode containers must restore the exact original bytes
// via DecompressOriginalTo.
func recompressRoundtrip(in, plain []byte, opt shard.Options, doReorder bool) (bool, error) {
	zr, err := pargz.NewReader(bytes.NewReader(in), pargz.Options{Workers: ingestWorkers})
	if err != nil {
		return false, err
	}
	defer zr.Close()
	var src fastq.BatchSource = fastq.NewBatchReader(zr, opt.ShardReads)
	if doReorder {
		st, err := reorder.NewStage(src, reorder.Config{
			Mode: reorder.ModeClump, BatchSize: opt.ShardReads,
			Sort: reorder.SortConfig{MemBudget: int64(len(plain)) / 8}})
		if err != nil {
			return false, err
		}
		defer st.Close()
		src = st
	}
	var got bytes.Buffer
	if _, err := shard.CompressPipeline(src, &got, opt); err != nil {
		return false, err
	}
	if doReorder {
		c, err := shard.Parse(got.Bytes())
		if err != nil {
			return false, err
		}
		var restored bytes.Buffer
		if err := c.DecompressOriginalTo(&restored, nil, 0, reorder.SortConfig{}); err != nil {
			return false, err
		}
		return bytes.Equal(restored.Bytes(), plain), nil
	}
	var want bytes.Buffer
	if _, err := shard.CompressPipeline(
		fastq.NewBatchReader(bytes.NewReader(plain), opt.ShardReads), &want, opt); err != nil {
		return false, err
	}
	return bytes.Equal(got.Bytes(), want.Bytes()), nil
}

// IngestDecodeExperiment builds the "ingestdecode" table on the RS2
// dataset: member-parallel decode speedup over serial stdlib on a
// multi-member BGZF fixture, the decode-vs-compress critical-path
// check at ingestWorkers shard workers, and the recompress byte-level
// round-trips (identity and reorder + original-order).
func (s *Suite) IngestDecodeExperiment() (*Table, error) {
	m, err := s.Measurement("RS2")
	if err != nil {
		return nil, err
	}
	plain := m.Gen.FASTQ

	bg, err := bgzfFixture(plain)
	if err != nil {
		return nil, err
	}
	members, err := pargz.SplitMembers(bg)
	if err != nil {
		return nil, err
	}
	memberTimes, err := measureMemberTimes(members)
	if err != nil {
		return nil, err
	}
	var serial time.Duration
	for _, d := range memberTimes {
		serial += d
	}
	decodeMakespan := ShardMakespan(memberTimes, ingestWorkers)
	modelSpeedup := ShardSpeedup(memberTimes, ingestWorkers)

	// Wall-clock anchors (not gated: CI runners may have 2 cores).
	serialWallStart := time.Now()
	zr, err := gzip.NewReader(bytes.NewReader(bg))
	if err != nil {
		return nil, err
	}
	stdOut, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(stdOut, plain) {
		return nil, fmt.Errorf("bench: stdlib decode of the BGZF fixture is not byte-identical")
	}
	serialWall := time.Since(serialWallStart)
	parWall, tier, err := parallelDecodeWall(bg, plain, ingestWorkers)
	if err != nil {
		return nil, err
	}
	if tier != pargz.TierBGZF {
		return nil, fmt.Errorf("bench: BGZF fixture decoded via tier %v", tier)
	}

	// Critical-path check: the same schedule model for both stages —
	// per-shard compress times vs per-member decode times, each on an
	// ingestWorkers pool. Decode must finish first with headroom.
	n := len(m.Gen.Reads.Records)
	shardReads := n / 16
	if shardReads < 1 {
		shardReads = 1
	}
	shardTimes, err := MeasureShardTimes(fastq.NewBatchReader(bytes.NewReader(plain), shardReads), m.Gen.Ref)
	if err != nil {
		return nil, err
	}
	compressMakespan := ShardMakespan(shardTimes, ingestWorkers)
	decodeCritical := 0
	if decodeMakespan >= compressMakespan {
		decodeCritical = 1
	}
	headroom := 0.0
	if decodeMakespan > 0 {
		headroom = float64(compressMakespan) / float64(decodeMakespan)
	}

	// Recompress round-trips at the byte level.
	opt := shard.DefaultOptions(m.Gen.Ref)
	opt.ShardReads = shardReads
	identOK, err := recompressRoundtrip(bg, plain, opt, false)
	if err != nil {
		return nil, err
	}
	reordOK, err := recompressRoundtrip(bg, plain, opt, true)
	if err != nil {
		return nil, err
	}

	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	raw := float64(len(plain))
	t := &Table{
		ID:     "ingestdecode",
		Title:  "Compressed-ingest decode: member-parallel gzip vs serial stdlib (RS2)",
		Header: []string{"path", "time (ms)", "MB/s", "vs serial"},
		Rows: [][]string{
			{"serial stdlib (sum of members)", f1(ms(serial)), f1(raw / serial.Seconds() / 1e6), "1.00x"},
			{fmt.Sprintf("pargz model @%dw", ingestWorkers), f1(ms(decodeMakespan)),
				f1(raw / decodeMakespan.Seconds() / 1e6), fmt.Sprintf("%.2fx", modelSpeedup)},
			{"serial stdlib (wall)", f1(ms(serialWall)), f1(raw / serialWall.Seconds() / 1e6), "—"},
			{fmt.Sprintf("pargz wall @%dw", ingestWorkers), f1(ms(parWall)),
				f1(raw / parWall.Seconds() / 1e6), fmt.Sprintf("%.2fx", float64(serialWall)/float64(parWall))},
		},
		Notes: []string{
			fmt.Sprintf("%d B FASTQ -> %d B BGZF in %d members; model rows use measured per-member times + the %d-worker pool schedule",
				len(plain), len(bg), len(members), ingestWorkers),
			fmt.Sprintf("critical path @%dw: decode makespan %v vs compress makespan %v (%.1fx headroom) — decode critical: %v",
				ingestWorkers, decodeMakespan.Round(time.Microsecond), compressMakespan.Round(time.Microsecond), headroom, decodeCritical == 1),
			fmt.Sprintf("recompress byte-identity: identity container=%v, reorder+original-order=%v",
				identOK, reordOK),
		},
	}
	t.Metric("members", float64(len(members)))
	t.Metric("decode_serial_ms", ms(serial))
	t.Metric("decode_makespan_8w_ms", ms(decodeMakespan))
	t.Metric("decode_model_speedup_8w", modelSpeedup)
	t.Metric("decode_wall_serial_ms", ms(serialWall))
	t.Metric("decode_wall_parallel_ms", ms(parWall))
	t.Metric("compress_makespan_8w_ms", ms(compressMakespan))
	t.Metric("decode_headroom_8w", headroom)
	t.Metric("decode_critical", float64(decodeCritical))
	t.Metric("roundtrip_identity", boolMetric(identOK))
	t.Metric("roundtrip_reorder_original", boolMetric(reordOK))
	return t, nil
}

func boolMetric(ok bool) float64 {
	if ok {
		return 1
	}
	return 0
}
