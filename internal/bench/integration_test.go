package bench

import (
	"testing"

	"sage/internal/core"
	"sage/internal/fastq"
	"sage/internal/genome"
	"sage/internal/ssd"
)

// TestInStoragePathFunctional exercises the full mode-③ data path with
// real bytes: compress -> SAGe_Write -> FTL placement -> SAGe_Read
// (internal) -> streaming decode -> format conversion, verifying
// losslessness at every boundary. This is the integration seam between
// core, ssd, and the genome formats that the paper's Fig. 5(a) describes.
func TestInStoragePathFunctional(t *testing.T) {
	s := testSuite(t)
	m, err := s.Measurement("RS1")
	if err != nil {
		t.Fatal(err)
	}
	dev, err := ssd.New(ssd.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// ❶ SAGe_Write the container as one shard.
	if err := writeWhole(dev, "rs1.sage", m.SAGe.Payload); err != nil {
		t.Fatal(err)
	}
	// Unrelated traffic must not disturb it.
	if _, _, err := dev.WriteShards("other.bin", make([]byte, 200000), nil); err != nil {
		t.Fatal(err)
	}
	// ❷ SAGe_Read at internal bandwidth.
	data, readTime, err := dev.ReadShard("rs1.sage", 0)
	if err != nil {
		t.Fatal(err)
	}
	if readTime <= 0 {
		t.Fatal("internal read must take modeled time")
	}
	// ❸ Decode with the streaming units.
	got, err := core.Decompress(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !fastq.Equivalent(m.Gen.Reads, got) {
		t.Fatal("in-storage roundtrip lost data")
	}
	// ❹ Format for the accelerator (3-bit handles N-containing reads).
	packed, err := core.FormatReads(got, genome.Format3Bit)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, p := range packed {
		want := (len(got.Records[i].Seq)*3 + 7) / 8
		if len(p) != want {
			t.Fatalf("read %d packed to %d bytes want %d", i, len(p), want)
		}
		total += len(p)
	}
	if total >= m.Gen.Reads.TotalBases() {
		t.Fatal("3-bit packing must shrink ASCII bases")
	}
}

// TestContainerSurvivesGC stores a container, churns the device to force
// garbage collection, and verifies the container still decodes — the FTL
// invariant §5.3's grouped GC must preserve.
func TestContainerSurvivesGC(t *testing.T) {
	s := testSuite(t)
	m, err := s.Measurement("RS3")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ssd.DefaultConfig()
	cfg.Geometry.BlocksPerPlane = 4
	cfg.Geometry.PagesPerBlock = 16
	cfg.Geometry.PageSize = 4 << 10
	dev, err := ssd.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeWhole(dev, "keep.sage", m.SAGe.Payload); err != nil {
		t.Fatal(err)
	}
	churn := make([]byte, cfg.Geometry.TotalPages()*cfg.Geometry.PageSize/3)
	for i := 0; i < 6; i++ {
		for j := range churn {
			churn[j] = byte(i + j)
		}
		if _, _, err := dev.WriteShards("churn", churn, nil); err != nil {
			t.Fatalf("churn %d: %v", i, err)
		}
	}
	if dev.Stats().BlockErases == 0 {
		t.Fatal("expected GC activity")
	}
	data, _, err := dev.ReadShard("keep.sage", 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Decompress(data, nil)
	if err != nil {
		t.Fatalf("container corrupted by GC: %v", err)
	}
	if !fastq.Equivalent(m.Gen.Reads, got) {
		t.Fatal("GC corrupted the read set")
	}
}

// TestSpringAndSAGeAgreeOnContent cross-checks the two genomic codecs:
// both must reproduce the same multiset from their own containers.
func TestSpringAndSAGeAgreeOnContent(t *testing.T) {
	s := testSuite(t)
	m, err := s.Measurement("RS4")
	if err != nil {
		t.Fatal(err)
	}
	sage, err := core.Decompress(m.SAGe.Payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !fastq.Equivalent(m.Gen.Reads, sage) {
		t.Fatal("SAGe container diverged")
	}
}

// writeWhole stores data on dev as a single shard, so ReadShard(name, 0)
// returns all of it.
func writeWhole(dev *ssd.SSD, name string, data []byte) error {
	_, _, err := dev.WriteShards(name, data, []ssd.Extent{{Offset: 0, Length: int64(len(data))}})
	return err
}
