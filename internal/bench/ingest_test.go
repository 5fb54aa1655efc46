package bench

import (
	"io"
	"math/rand"
	"testing"

	"sage/internal/fastq"
	"sage/internal/genome"
	"sage/internal/simulate"
)

func ingestSet(t *testing.T, nReads int) (*fastq.ReadSet, genome.Seq) {
	t.Helper()
	rng := rand.New(rand.NewSource(13))
	ref := genome.Random(rng, 30_000)
	donor, _ := genome.Donor(rng, ref, genome.HumanLikeProfile())
	rs, err := simulate.New(rng, donor).ShortReads(nReads, simulate.DefaultShortProfile())
	if err != nil {
		t.Fatal(err)
	}
	return rs, ref
}

// TestMeasureIngestTimesFileAware checks the measured shard layout is
// the file-aware one: splitting the same read set across more files
// yields more (tail) shards, never fewer, and never loses reads.
func TestMeasureIngestTimesFileAware(t *testing.T) {
	rs, ref := ingestSet(t, 600)
	const shardReads = 100
	prevShards := 0
	for _, files := range []int{1, 2, 4} {
		mr, err := fastq.NewMultiReader(splitRecords(rs, files), shardReads)
		if err != nil {
			t.Fatal(err)
		}
		times, err := MeasureShardTimes(mr, ref)
		if err != nil {
			t.Fatal(err)
		}
		// files of 600/files reads each, 100 reads/shard: ceil per file.
		per := (600 + files - 1) / files
		wantShards := files * ((per + shardReads - 1) / shardReads)
		if len(times) != wantShards {
			t.Fatalf("files=%d: %d shards, want %d", files, len(times), wantShards)
		}
		if len(times) < prevShards {
			t.Fatalf("files=%d: shard count decreased (%d < %d)", files, len(times), prevShards)
		}
		prevShards = len(times)
		reads := 0
		for _, n := range mr.SourceReads() {
			reads += n
		}
		if reads != 600 {
			t.Fatalf("files=%d: %d reads consumed, want 600", files, reads)
		}
	}
}

// TestIngestMakespanModel checks the file-aware shard times feed
// ShardMakespan consistently: one worker's makespan is the serial sum,
// and more workers never slow it down.
func TestIngestMakespanModel(t *testing.T) {
	rs, ref := ingestSet(t, 400)
	mr, err := fastq.NewMultiReader(splitRecords(rs, 4), 50)
	if err != nil {
		t.Fatal(err)
	}
	times, err := MeasureShardTimes(mr, ref)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, d := range times {
		sum += int64(d)
	}
	if got := ShardMakespan(times, 1); int64(got) != sum {
		t.Fatalf("makespan(1) = %v, want serial sum %v", got, sum)
	}
	if ShardMakespan(times, 8) > ShardMakespan(times, 1) {
		t.Fatal("more workers slowed the modeled pool down")
	}
}

// TestPairedIngestMeasurement checks the paired R1/R2 path measures the
// same read volume as the lane-split path.
func TestPairedIngestMeasurement(t *testing.T) {
	rs, ref := ingestSet(t, 200)
	mr, err := fastq.NewPairedReader([][2]fastq.NamedReader{pairRecords(rs)}, 50)
	if err != nil {
		t.Fatal(err)
	}
	times, err := MeasureShardTimes(mr, ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != 4 { // 200 reads / 50 per shard
		t.Fatalf("%d shards, want 4", len(times))
	}
	if got := mr.SourceReads()[0]; got != 200 {
		t.Fatalf("%d reads consumed, want 200", got)
	}
	// The reader is drained.
	if _, err := mr.Next(); err != io.EOF {
		t.Fatalf("Next after drain = %v, want io.EOF", err)
	}
}
