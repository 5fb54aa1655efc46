package instorage

import (
	"bytes"
	"math/rand"
	"testing"

	"sage/internal/fastq"
	"sage/internal/genome"
	"sage/internal/reorder"
	"sage/internal/shard"
	"sage/internal/simulate"
)

// TestPlaceScanReorderedContainer: a v5 clump-reordered container
// places and scans like any other — the reorder metadata lives entirely
// in the header, so shard-granular flash I/O and decode totals are
// unaffected by the permutation.
func TestPlaceScanReorderedContainer(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ref := genome.Random(rng, 20_000)
	donor, _ := genome.Donor(rng, ref, genome.HumanLikeProfile())
	rs, err := simulate.New(rng, donor).ShortReads(300, simulate.DefaultShortProfile())
	if err != nil {
		t.Fatal(err)
	}
	opt := shard.DefaultOptions(ref)
	opt.ShardReads = 64
	var src fastq.BatchSource = fastq.NewBatchReader(bytes.NewReader(rs.Bytes()), 64)
	st, err := reorder.NewStage(src, reorder.Config{Mode: reorder.ModeClump, BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var buf bytes.Buffer
	if _, err := shard.CompressPipeline(st, &buf, opt); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	c, err := shard.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if c.Version != 5 || c.Index.ReorderMode != shard.ReorderClump {
		t.Fatalf("container: version %d mode %d", c.Version, c.Index.ReorderMode)
	}

	dev := testDevice(t)
	eng := New(dev)
	p, err := eng.Place("reordered.sage", data)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.Placement.Shards); got != c.NumShards() {
		t.Fatalf("placed %d shards, container has %d", got, c.NumShards())
	}
	for i := 0; i < c.NumShards(); i++ {
		fromFlash, _, err := dev.ReadShard("reordered.sage", i)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		fromContainer, err := c.Block(i)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if !bytes.Equal(fromFlash, fromContainer) {
			t.Fatalf("shard %d: flash payload differs from container block", i)
		}
	}

	res, err := p.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if res.Reads != 300 {
		t.Fatalf("scan decoded %d reads, want 300", res.Reads)
	}
}
