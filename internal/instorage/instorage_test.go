package instorage

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sage/internal/fastq"
	"sage/internal/genome"
	"sage/internal/shard"
	"sage/internal/simulate"
	"sage/internal/ssd"
)

// testContainer compresses a deterministic read set into a sharded
// container with the given worker count.
func testContainer(t testing.TB, nReads, shardReads, workers int) ([]byte, *fastq.ReadSet) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	ref := genome.Random(rng, 20_000)
	donor, _ := genome.Donor(rng, ref, genome.HumanLikeProfile())
	rs, err := simulate.New(rng, donor).ShortReads(nReads, simulate.DefaultShortProfile())
	if err != nil {
		t.Fatal(err)
	}
	opt := shard.DefaultOptions(ref)
	opt.ShardReads = shardReads
	opt.Workers = workers
	data, _, err := shard.Compress(rs, opt)
	if err != nil {
		t.Fatal(err)
	}
	return data, rs
}

func testDevice(t testing.TB) *ssd.SSD {
	t.Helper()
	cfg := ssd.DefaultConfig()
	cfg.Geometry.BlocksPerPlane = 8
	cfg.Geometry.PagesPerBlock = 16
	cfg.Geometry.PageSize = 1 << 10
	dev, err := ssd.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// TestShardReadsMatchContainerBlocks is the round-trip acceptance
// criterion: the ssd's shard-granular reads return byte-identical
// payloads to shard.Container reads of the same container.
func TestShardReadsMatchContainerBlocks(t *testing.T) {
	data, _ := testContainer(t, 400, 64, 0) // 7 shards
	c, err := shard.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	dev := testDevice(t)
	eng := New(dev)
	p, err := eng.Place("rs.sage", data)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.Placement.Shards); got != c.NumShards() {
		t.Fatalf("placed %d shards, container has %d", got, c.NumShards())
	}
	for i := 0; i < c.NumShards(); i++ {
		fromFlash, _, err := dev.ReadShard("rs.sage", i)
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
}

// TestScanDecodesAndTimes exercises the whole engine: place, scan,
// verify the functional decode totals and the timing laws.
func TestScanDecodesAndTimes(t *testing.T) {
	data, rs := testContainer(t, 400, 64, 0)
	eng := New(testDevice(t))
	p, err := eng.Place("rs.sage", data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if res.Reads != len(rs.Records) {
		t.Fatalf("scanned %d reads, want %d", res.Reads, len(rs.Records))
	}
	if res.OutputBytes <= res.CompressedBytes {
		t.Fatalf("decode must expand: %d out vs %d in", res.OutputBytes, res.CompressedBytes)
	}
	// The scan units emit the FASTQ text of the reads they were given.
	if want := int64(rs.UncompressedSize()); res.OutputBytes != want {
		t.Fatalf("scan emitted %d FASTQ bytes, the source holds %d", res.OutputBytes, want)
	}
	channels := eng.Channels()
	var maxService time.Duration
	for _, st := range res.PerShard {
		if st.Channel != st.Shard%channels {
			t.Fatalf("shard %d on channel %d, want %d", st.Shard, st.Channel, st.Shard%channels)
		}
		if st.FlashRead <= 0 || st.Decode <= 0 {
			t.Fatalf("shard %d has degenerate times %+v", st.Shard, st)
		}
		if st.Service < st.FlashRead || st.Service < st.Decode {
			t.Fatalf("shard %d service %v under its phases (%v flash, %v decode)",
				st.Shard, st.Service, st.FlashRead, st.Decode)
		}
		if st.Service > maxService {
			maxService = st.Service
		}
	}
	// The keyed dispatch can never beat the slowest single shard and
	// never exceed the serial sum.
	var serial time.Duration
	for _, d := range res.ServiceTimes() {
		serial += d
	}
	if res.ChannelMakespan < maxService || res.ChannelMakespan > serial {
		t.Fatalf("channel makespan %v outside [%v, %v]", res.ChannelMakespan, maxService, serial)
	}
	// The pipeline recurrence is bounded by its busiest stage and the
	// serial sum, and names a stage.
	if res.Pipeline.Total <= 0 || res.Pipeline.BottleneckName() == "" {
		t.Fatalf("degenerate pipeline result %+v", res.Pipeline)
	}
}

// TestScanIsNANDBound pins §8.2 on the default hardware sizing: the
// scan unit's decode is never the critical path; flash reads are.
func TestScanIsNANDBound(t *testing.T) {
	data, _ := testContainer(t, 400, 64, 0)
	eng := New(testDevice(t))
	p, err := eng.Place("rs.sage", data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if bound := res.DecodeBound(); len(bound) != 0 {
		t.Fatalf("shards %v are decode-bound; §8.2 says flash supply dominates", bound)
	}
	if res.Pipeline.BottleneckName() != "flash-read" {
		t.Fatalf("pipeline bottleneck %q, want flash-read", res.Pipeline.BottleneckName())
	}
}

// TestPlacementDeterminism is the golden placement test: the same
// container bytes and geometry produce the identical channel/page
// assignment across runs and across compression worker counts.
func TestPlacementDeterminism(t *testing.T) {
	data1, _ := testContainer(t, 300, 50, 1)
	data4, _ := testContainer(t, 300, 50, 4)
	if !bytes.Equal(data1, data4) {
		t.Fatal("container bytes differ across worker counts (shard invariant broken)")
	}
	place := func(data []byte) *ssd.Placement {
		t.Helper()
		p, err := New(testDevice(t)).Place("det.sage", data)
		if err != nil {
			t.Fatal(err)
		}
		return p.Placement
	}
	a, b := place(data1), place(data4)
	if len(a.Shards) != len(b.Shards) {
		t.Fatalf("placement sizes differ: %d vs %d", len(a.Shards), len(b.Shards))
	}
	cfg := ssd.DefaultConfig()
	pageSize := 1 << 10 // testDevice's page size
	c, err := shard.Parse(data1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Shards {
		if a.Shards[i] != b.Shards[i] {
			t.Fatalf("shard %d placement differs across runs: %+v vs %+v", i, a.Shards[i], b.Shards[i])
		}
		// Golden law: home channel i mod C, pages = ceil(len/pageSize).
		e := c.Index.Entries[i]
		want := ssd.ShardPlacement{
			Shard:   i,
			Channel: i % cfg.Geometry.Channels,
			Pages:   (int(e.Length) + pageSize - 1) / pageSize,
			Bytes:   e.Length,
		}
		if a.Shards[i] != want {
			t.Fatalf("shard %d placement %+v, want golden %+v", i, a.Shards[i], want)
		}
	}
}

// TestPlaceRejectsBadInput covers the engine's input validation.
func TestPlaceRejectsBadInput(t *testing.T) {
	eng := New(testDevice(t))
	if _, err := eng.Place("x", []byte("not a container")); err == nil {
		t.Fatal("junk bytes must be rejected")
	}
}

// TestScanSurfacesFlashCorruption proves the scan checks what it read:
// a payload damaged on the device fails the scan.
func TestScanSurfacesFlashCorruption(t *testing.T) {
	data, _ := testContainer(t, 300, 64, 0)
	dev := testDevice(t)
	eng := New(dev)
	p, err := eng.Place("rs.sage", data)
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite the object behind the engine's back with a damaged
	// copy: same shape, one flipped byte inside shard 0's block.
	c, err := shard.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	exts, err := shardExtents(c)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), data...)
	bad[exts[0].Offset+exts[0].Length/2] ^= 0xff
	if _, _, err := dev.WriteShards("rs.sage", bad, exts); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Scan(); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("scan must surface a checksum mismatch on damaged flash payloads, got %v", err)
	}
}

// TestScanNeedsEmbeddedConsensus: a container whose header embeds no
// consensus places, but its scan and its filter scan fail with the
// container's one error for that instead of decoding against nothing.
func TestScanNeedsEmbeddedConsensus(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "shard", "testdata", "no_consensus_v4.sage"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(testDevice(t)).Place("bare.sage", data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Scan(); err == nil || !strings.Contains(err.Error(), "embeds no consensus") {
		t.Fatalf("Scan: %v", err)
	}
	if _, err := p.FilterScan(&shard.Predicate{}); err == nil || !strings.Contains(err.Error(), "embeds no consensus") {
		t.Fatalf("FilterScan: %v", err)
	}
}

// BenchmarkPlaceScan is the wall-clock anchor for the CI benchmark
// smoke: one full place + scan of a multi-shard container.
func BenchmarkPlaceScan(b *testing.B) {
	data, _ := testContainer(b, 400, 64, 0)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := New(testDevice(b))
		p, err := eng.Place("rs.sage", data)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Scan(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestScanStageAttribution pins the observability contract: a scan
// records one span per shard for each stage (flash-read, scan-decode),
// and StageTable renders them.
func TestScanStageAttribution(t *testing.T) {
	data, _ := testContainer(t, 300, 50, 0) // 6 shards
	eng := New(testDevice(t))
	p, err := eng.Place("rs.sage", data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Scan()
	if err != nil {
		t.Fatal(err)
	}
	n := p.C.NumShards()
	want := []string{"flash-read", "scan-decode"}
	if len(res.Stages) != len(want) {
		t.Fatalf("stages = %+v, want %v", res.Stages, want)
	}
	for i, st := range res.Stages {
		if st.Stage != want[i] {
			t.Errorf("stage %d = %q, want %q (pipeline order)", i, st.Stage, want[i])
		}
		if st.Calls != n {
			t.Errorf("stage %q has %d calls, want one per shard (%d)", st.Stage, st.Calls, n)
		}
		if st.Total < 0 {
			t.Errorf("stage %q total = %v", st.Stage, st.Total)
		}
	}
	table := res.StageTable()
	for _, stage := range want {
		if !strings.Contains(table, stage) {
			t.Errorf("StageTable missing %q:\n%s", stage, table)
		}
	}
}
