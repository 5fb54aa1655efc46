package ssd

import (
	"bytes"
	"math/rand"
	"testing"
	"time"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Geometry.BlocksPerPlane = 8
	cfg.Geometry.PagesPerBlock = 16
	cfg.Geometry.PageSize = 1 << 10
	return cfg
}

// capacity is the device's raw capacity in bytes.
func capacity(g Geometry) int64 { return int64(g.TotalPages()) * int64(g.PageSize) }

// writeStriped stores data as one shard per channel with no bytes
// outside the extents, so readStriped gets the whole object back.
func writeStriped(s *SSD, name string, data []byte) error {
	c := s.cfg.Geometry.Channels
	exts := make([]Extent, c)
	for i := range exts {
		lo, hi := len(data)*i/c, len(data)*(i+1)/c
		exts[i] = Extent{Offset: int64(lo), Length: int64(hi - lo)}
	}
	_, _, err := s.WriteShards(name, data, exts)
	return err
}

// readStriped reads back an object writeStriped stored, with the
// summed shard read time.
func readStriped(s *SSD, name string) ([]byte, time.Duration, error) {
	var out []byte
	var total time.Duration
	for i := 0; i < s.cfg.Geometry.Channels; i++ {
		b, d, err := s.ReadShard(name, i)
		if err != nil {
			return nil, 0, err
		}
		out = append(out, b...)
		total += d
	}
	return out, total, nil
}

func TestWriteReadRoundtrip(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 50000)
	rand.New(rand.NewSource(1)).Read(data)
	if err := writeStriped(s, "rs1", data); err != nil {
		t.Fatal(err)
	}
	got, d, err := readStriped(s, "rs1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data mismatch")
	}
	if d <= 0 {
		t.Fatal("read time must be positive")
	}
}

func TestOverwriteReplaces(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := writeStriped(s, "x", []byte("version one")); err != nil {
		t.Fatal(err)
	}
	if err := writeStriped(s, "x", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, _, err := readStriped(s, "x")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v2" {
		t.Fatalf("got %q", got)
	}
}

func TestDelete(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := writeStriped(s, "x", []byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("x"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readStriped(s, "x"); err == nil {
		t.Fatal("deleted file must not be readable")
	}
	if err := s.Delete("x"); err == nil {
		t.Fatal("double delete must error")
	}
}

func TestGenomicLayoutStripesChannels(t *testing.T) {
	cfg := smallConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Bytes outside any shard extent round-robin across channels; write
	// enough pages to cover all channels.
	nPages := cfg.Geometry.Channels * 4
	data := make([]byte, nPages*cfg.Geometry.PageSize)
	if _, _, err := s.WriteShards("g", data, nil); err != nil {
		t.Fatal(err)
	}
	// Every channel's genomic head must have the same page offset
	// (multi-plane alignment invariant, §5.3).
	offsets := map[int]bool{}
	for ch := 0; ch < cfg.Geometry.Channels; ch++ {
		b := s.genomicHead[ch]
		if b < 0 {
			t.Fatalf("channel %d has no genomic head", ch)
		}
		offsets[s.blocks[b].written] = true
	}
	if len(offsets) != 1 {
		t.Fatalf("page offsets diverge across channels: %v", offsets)
	}
}

func TestGCReclaimsAndPreservesData(t *testing.T) {
	cfg := smallConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fill a large fraction of the device, then overwrite repeatedly to
	// force GC.
	rng := rand.New(rand.NewSource(2))
	size := int(capacity(cfg.Geometry) / 4)
	keep := make([]byte, size)
	rng.Read(keep)
	if err := writeStriped(s, "keep", keep); err != nil {
		t.Fatal(err)
	}
	churn := make([]byte, size)
	for i := 0; i < 8; i++ {
		rng.Read(churn)
		if err := writeStriped(s, "churn", churn); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
	if s.Stats().BlockErases == 0 {
		t.Fatal("expected garbage collection under churn")
	}
	got, _, err := readStriped(s, "keep")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, keep) {
		t.Fatal("GC corrupted unrelated data")
	}
	got2, _, err := readStriped(s, "churn")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, churn) {
		t.Fatal("GC corrupted churned data")
	}
}

func TestBandwidthModel(t *testing.T) {
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// With default timing: bus = 1200 MB/s/channel; array (multiplane) =
	// 8 units / 60µs × 16KB ≈ 2133 MB/s → bus-limited → 9600 MB/s total.
	full := s.InternalReadBandwidthMBps(true)
	if full < 9000 || full > 9700 {
		t.Fatalf("aligned internal bandwidth %.0f MB/s outside expected range", full)
	}
	// Without multi-plane: 4 units / 60µs × 16KB ≈ 1067 MB/s → array-
	// limited → ~8533 MB/s.
	conv := s.InternalReadBandwidthMBps(false)
	if conv >= full {
		t.Fatalf("conventional layout %.0f must be slower than aligned %.0f", conv, full)
	}
	// External reads are capped by the interface.
	tExt := s.ExternalReadTime(1<<30, true)
	tIface := s.InterfaceTime(1 << 30)
	if tExt < tIface {
		t.Fatal("external read cannot beat the interface")
	}
}

func TestSATAInterfaceDominates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Interface = SATA3()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(100 << 20)
	ext := s.ExternalReadTime(n, true)
	intl := s.InternalReadTime(n, true)
	if ext <= intl {
		t.Fatal("on SATA the interface must dominate the internal time")
	}
}

func TestOutOfSpace(t *testing.T) {
	cfg := smallConfig()
	cfg.Geometry.Channels = 1
	cfg.Geometry.DiesPerChannel = 1
	cfg.Geometry.PlanesPerDie = 1
	cfg.Geometry.BlocksPerPlane = 2
	cfg.Geometry.PagesPerBlock = 4
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, capacity(cfg.Geometry)+int64(cfg.Geometry.PageSize))
	if err := writeStriped(s, "too-big", big); err == nil {
		t.Fatal("expected out-of-space error")
	}
}

func TestStatsCounters(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 10000)
	if err := writeStriped(s, "x", data); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readStriped(s, "x"); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.PageWrites == 0 || st.PageReads == 0 || st.HostWrittenB != 10000 {
		t.Fatalf("stats %+v", st)
	}
}

func TestInvalidGeometry(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Geometry.Channels = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("expected geometry validation error")
	}
}
