package ssd

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// shardedObject builds a synthetic "container": random data with shard
// extents after a header-sized gap.
func shardedObject(seed int64, header int, shardLens []int) ([]byte, []Extent) {
	total := header
	exts := make([]Extent, len(shardLens))
	for i, n := range shardLens {
		exts[i] = Extent{Offset: int64(total), Length: int64(n)}
		total += n
	}
	data := make([]byte, total)
	rand.New(rand.NewSource(seed)).Read(data)
	return data, exts
}

func TestWriteShardsReadShardRoundtrip(t *testing.T) {
	cfg := smallConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Shard lengths straddle page boundaries: partial tail pages, a
	// sub-page shard, and a multi-page shard.
	ps := cfg.Geometry.PageSize
	data, exts := shardedObject(3, 137, []int{3*ps + 11, ps / 2, 2 * ps, 1})
	pl, wt, err := s.WriteShards("c.sage", data, exts)
	if err != nil {
		t.Fatal(err)
	}
	if wt <= 0 {
		t.Fatal("write time must be positive")
	}
	if len(pl.Shards) != len(exts) {
		t.Fatalf("placement has %d shards, want %d", len(pl.Shards), len(exts))
	}
	for i, e := range exts {
		got, rt, err := s.ReadShard("c.sage", i)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if !bytes.Equal(got, data[e.Offset:e.Offset+e.Length]) {
			t.Fatalf("shard %d payload mismatch", i)
		}
		if rt <= 0 {
			t.Fatalf("shard %d read time %v", i, rt)
		}
		wantPages := (int(e.Length) + ps - 1) / ps
		if pl.Shards[i].Pages != wantPages {
			t.Fatalf("shard %d placed on %d pages, want %d", i, pl.Shards[i].Pages, wantPages)
		}
		if want := i % cfg.Geometry.Channels; pl.Shards[i].Channel != want {
			t.Fatalf("shard %d on channel %d, want %d", i, pl.Shards[i].Channel, want)
		}
	}
	// The FTL's record holds the same table WriteShards returned.
	checkPlacement(t, s, "c.sage", pl)
}

// checkPlacement asserts that the FTL's shard records of an object
// match a placement table.
func checkPlacement(t *testing.T, s *SSD, name string, pl *Placement) {
	t.Helper()
	meta := s.files[name]
	if len(meta.shards) != len(pl.Shards) {
		t.Fatalf("%s: FTL records %d shards, placement %d", name, len(meta.shards), len(pl.Shards))
	}
	for i, se := range meta.shards {
		got := ShardPlacement{Shard: i, Channel: se.channel, Pages: se.lpnCount, Bytes: se.bytes}
		if got != pl.Shards[i] {
			t.Fatalf("%s: shard %d recorded as %+v, placed as %+v", name, i, got, pl.Shards[i])
		}
	}
}

// TestShardAccessorsRejectPlainObjects: bytes outside every shard
// extent (a container's header) are stored but are no shard, so no
// shard index reads them; nor does any index of a missing object.
func TestShardAccessorsRejectPlainObjects(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.WriteShards("plain", []byte("header only"), nil); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{-1, 0, 1} {
		if _, _, err := s.ReadShard("plain", i); err == nil {
			t.Fatalf("ReadShard(plain, %d) on an object with no shards must error", i)
		}
	}
	if _, _, err := s.ReadShard("missing", 0); err == nil {
		t.Fatal("ReadShard on a missing object must error")
	}
}

func TestWriteShardsHomeChannelHoldsEveryPage(t *testing.T) {
	cfg := smallConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ps := cfg.Geometry.PageSize
	data, exts := shardedObject(4, ps+3, []int{4 * ps, 3 * ps, 2*ps + 1})
	if _, _, err := s.WriteShards("x", data, exts); err != nil {
		t.Fatal(err)
	}
	meta := s.files["x"]
	for i, se := range meta.shards {
		for k := 0; k < se.lpnCount; k++ {
			p := s.l2p[meta.lpns[se.lpnLo+k]]
			b := int(p) / cfg.Geometry.PagesPerBlock
			if ch := s.channelOfBlock(b); ch != se.channel {
				t.Fatalf("shard %d page %d on channel %d, home is %d", i, k, ch, se.channel)
			}
		}
	}
}

func TestWriteShardsValidatesExtents(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 4096)
	for _, tc := range []struct {
		name string
		exts []Extent
	}{
		{"overlap", []Extent{{0, 100}, {50, 100}}},
		{"out of order", []Extent{{200, 100}, {0, 100}}},
		{"past end", []Extent{{0, 5000}}},
		{"negative", []Extent{{-1, 10}}},
	} {
		if _, _, err := s.WriteShards("bad", data, tc.exts); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestReadShardAfterDeleteErrors(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	data, exts := shardedObject(5, 64, []int{2000, 3000})
	if _, _, err := s.WriteShards("gone", data, exts); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("gone"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ReadShard("gone", 0); err == nil {
		t.Fatal("reading a shard of a deleted object must error")
	}
}

func TestReadSurfacesLostPages(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	data, exts := shardedObject(6, 0, []int{5000, 5000})
	if _, _, err := s.WriteShards("hurt", data, exts); err != nil {
		t.Fatal(err)
	}
	// Break the second shard's first page mapping, as a buggy FTL (or
	// an unflagged media error) would.
	meta := s.files["hurt"]
	s.l2p[meta.lpns[meta.shards[1].lpnLo]] = invalidPPN
	if _, _, err := s.ReadShard("hurt", 1); err == nil || !strings.Contains(err.Error(), "lost page") {
		t.Fatalf("expected a lost-page error, got %v", err)
	}
	// The intact shard still reads fine.
	if _, _, err := s.ReadShard("hurt", 0); err != nil {
		t.Fatal(err)
	}
}

func TestShardChannelsSurviveGC(t *testing.T) {
	cfg := smallConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ps := cfg.Geometry.PageSize
	lens := make([]int, 16)
	for i := range lens {
		lens[i] = 2*ps + i
	}
	data, exts := shardedObject(7, ps, lens)
	pl, _, err := s.WriteShards("keep.sage", data, exts)
	if err != nil {
		t.Fatal(err)
	}
	// Churn unrelated data until GC has moved blocks around.
	churn := make([]byte, capacity(cfg.Geometry)/2)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 6; i++ {
		rng.Read(churn)
		if err := writeStriped(s, "churn", churn); err != nil {
			t.Fatalf("churn %d: %v", i, err)
		}
	}
	if s.Stats().BlockErases == 0 {
		t.Fatal("expected GC under churn")
	}
	// Payloads are intact and the placement table still tells the
	// truth: GC rewrites genomic victims within their own channel.
	checkPlacement(t, s, "keep.sage", pl)
	meta := s.files["keep.sage"]
	for i, e := range exts {
		got, _, err := s.ReadShard("keep.sage", i)
		if err != nil {
			t.Fatalf("shard %d after GC: %v", i, err)
		}
		if !bytes.Equal(got, data[e.Offset:e.Offset+e.Length]) {
			t.Fatalf("shard %d corrupted by GC", i)
		}
		se := meta.shards[i]
		for k := 0; k < se.lpnCount; k++ {
			p := s.l2p[meta.lpns[se.lpnLo+k]]
			b := int(p) / cfg.Geometry.PagesPerBlock
			if ch := s.channelOfBlock(b); ch != se.channel {
				t.Fatalf("GC moved shard %d page %d off its home channel (%d -> %d)", i, k, se.channel, ch)
			}
		}
	}
}

func TestFailedWriteLeaksNoPages(t *testing.T) {
	cfg := smallConfig()
	cfg.Geometry.Channels = 2
	cfg.Geometry.DiesPerChannel = 1
	cfg.Geometry.PlanesPerDie = 1
	cfg.Geometry.BlocksPerPlane = 2
	cfg.Geometry.PagesPerBlock = 4
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A single shard pinned to one channel that exceeds that channel's
	// capacity: the write must fail partway through.
	tooBig := make([]byte, int(capacity(cfg.Geometry)))
	if _, _, err := s.WriteShards("boom", tooBig, []Extent{{0, int64(len(tooBig))}}); err == nil {
		t.Fatal("expected a mid-write failure")
	}
	checkNoValidPages(t, s)
	// The device is still fully usable: the leaked-page-free blocks can
	// be reclaimed and a fitting object writes fine.
	ok := make([]byte, 3*cfg.Geometry.PageSize)
	if _, _, err := s.WriteShards("ok", ok, []Extent{{0, int64(len(ok))}}); err != nil {
		t.Fatalf("device unusable after failed write: %v", err)
	}
	got, _, err := s.ReadShard("ok", 0)
	if err != nil || !bytes.Equal(got, ok) {
		t.Fatalf("post-failure roundtrip broken: %v", err)
	}
	// Same guarantee for bytes outside any extent, which round-robin.
	if _, _, err := s.WriteShards("boom2", tooBig, nil); err == nil {
		t.Fatal("expected the round-robin write to fail")
	}
	if _, _, err := s.ReadShard("ok", 0); err != nil {
		t.Fatalf("failed round-robin write damaged existing object: %v", err)
	}
	if err := s.Delete("ok"); err != nil {
		t.Fatal(err)
	}
	checkNoValidPages(t, s)
}

// checkNoValidPages asserts that no flash page holds valid data.
func checkNoValidPages(t *testing.T, s *SSD) {
	t.Helper()
	for b := range s.blocks {
		if n := s.blocks[b].nValid; n != 0 {
			t.Fatalf("block %d holds %d valid pages no object owns", b, n)
		}
	}
}

func TestShardReadTimeModel(t *testing.T) {
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s.ShardReadTime(0) != 0 {
		t.Fatal("zero pages cost zero time")
	}
	one, ten := s.ShardReadTime(1), s.ShardReadTime(10)
	if one <= 0 || ten <= one {
		t.Fatalf("shard read time must grow with pages: %v, %v", one, ten)
	}
	// A one-channel shard stream must be ~1/C of the whole-device
	// internal rate for the same pages (it only has its channel).
	g := s.Config().Geometry
	pages := 64
	whole := s.InternalReadTime(int64(pages*g.PageSize), true)
	shard := s.ShardReadTime(pages)
	if shard < whole {
		t.Fatalf("one channel (%v) cannot beat all %d channels (%v)", shard, g.Channels, whole)
	}
}
