package ssd

import (
	"fmt"
	"time"
)

// Shard-aligned genomic placement (the storage half of the in-storage
// scan-unit engine, see internal/instorage): SAGe_Write places each
// shard of a sharded container on a single home channel, starting on a
// fresh flash page, so the per-channel Scan/Read-Construction pair of
// §5.2 can stream that shard from its own channel without touching the
// others. The shard index of the container (offset, length, crc32 per
// shard) becomes the dispatch table; the placement table recorded here
// is its storage-side mirror (channel, pages per shard).

// Extent is a byte range of a host object. The in-storage engine passes
// one extent per shard: the shard's compressed block within the
// container file.
type Extent struct {
	Offset int64
	Length int64
}

// ShardPlacement records where one shard's pages landed: the home
// channel its scan unit streams from and the page span holding its
// bytes. The channel assignment survives garbage collection — GC
// rewrites genomic victims within their own channel (§5.3) — so the
// placement table stays valid for the life of the object.
type ShardPlacement struct {
	Shard   int
	Channel int
	Pages   int
	Bytes   int64
}

// Placement is the per-shard placement table WriteShards records: the
// storage-side mirror of a container's shard index.
type Placement struct {
	Name   string
	Shards []ShardPlacement
}

// shardExtent is the FTL-internal record of one placed shard: a span of
// the file's logical pages plus the home channel.
type shardExtent struct {
	channel  int
	lpnLo    int // index into fileMeta.lpns
	lpnCount int
	bytes    int64
}

// validateExtents checks that shard extents are in-bounds, ordered, and
// non-overlapping (a container's blocks are contiguous, so the only
// gaps are the header before the first shard).
func validateExtents(size int64, shards []Extent) error {
	var prevEnd int64
	for i, e := range shards {
		if e.Offset < 0 || e.Length < 0 {
			return fmt.Errorf("ssd: shard %d extent [%d,+%d) is negative", i, e.Offset, e.Length)
		}
		if e.Offset < prevEnd {
			return fmt.Errorf("ssd: shard %d extent [%d,+%d) overlaps or precedes shard %d (ends at %d)",
				i, e.Offset, e.Length, i-1, prevEnd)
		}
		if e.Offset+e.Length > size {
			return fmt.Errorf("ssd: shard %d extent [%d,+%d) exceeds the %d-byte object",
				i, e.Offset, e.Length, size)
		}
		prevEnd = e.Offset + e.Length
	}
	return nil
}

// WriteShards implements the shard-aligned variant of SAGe_Write
// (§5.4): data (a whole sharded container) is stored as one object, but
// every shard extent starts on a fresh flash page and its pages are
// programmed entirely on one home channel — shard i lands on channel
// i mod Channels — so per-channel scan units can each stream one shard
// independently. Bytes outside the shard extents (the container's
// header and index) round-robin across channels with aligned page
// offsets (§5.3). The returned placement table records every shard's channel and
// page count; the modeled write time covers the whole object.
func (s *SSD) WriteShards(name string, data []byte, shards []Extent) (*Placement, time.Duration, error) {
	if err := validateExtents(int64(len(data)), shards); err != nil {
		return nil, 0, err
	}
	if _, ok := s.files[name]; ok {
		if err := s.Delete(name); err != nil {
			return nil, 0, err
		}
	}
	g := s.cfg.Geometry
	meta := &fileMeta{size: len(data)}
	rrPage := 0 // round-robin counter for non-shard (header/index) pages

	// writePages programs [lo,hi) of data page by page through the
	// shared appendPage bookkeeping; ch >= 0 pins every page to that
	// channel, ch < 0 round-robins.
	writePages := func(lo, hi int64, ch int) error {
		for off := lo; off < hi; off += int64(g.PageSize) {
			end := off + int64(g.PageSize)
			if end > hi {
				end = hi
			}
			c := ch
			if c < 0 {
				c = rrPage % g.Channels
				rrPage++
			}
			b, err := s.genomicBlock(c)
			if err == nil {
				err = s.appendPage(meta, b, data[off:end])
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	// A failed placement must not leak the pages it already programmed.
	fail := func(err error) (*Placement, time.Duration, error) {
		s.discardPartialWrite(meta)
		return nil, 0, err
	}

	pl := &Placement{Name: name, Shards: make([]ShardPlacement, len(shards))}
	var pos int64
	for i, e := range shards {
		if err := writePages(pos, e.Offset, -1); err != nil {
			return fail(err)
		}
		ch := i % g.Channels
		lpnLo := len(meta.lpns)
		if err := writePages(e.Offset, e.Offset+e.Length, ch); err != nil {
			return fail(err)
		}
		nPages := len(meta.lpns) - lpnLo
		meta.shards = append(meta.shards, shardExtent{
			channel: ch, lpnLo: lpnLo, lpnCount: nPages, bytes: e.Length,
		})
		pl.Shards[i] = ShardPlacement{Shard: i, Channel: ch, Pages: nPages, Bytes: e.Length}
		pos = e.Offset + e.Length
	}
	if err := writePages(pos, int64(len(data)), -1); err != nil {
		return fail(err)
	}
	s.files[name] = meta
	s.stats.HostWrittenB += int64(len(data))
	return pl, s.writeTime(int64(len(data))), nil
}

// ReadShard streams shard i of an object written with WriteShards from
// its home channel to that channel's scan unit, returning the shard's
// exact payload bytes and the modeled flash read time. The read never
// crosses the host interface — it is the per-channel supply feeding the
// SAGe decode hardware (§6 mode ③). Missing pages (lost mappings) and
// short pages surface as errors.
func (s *SSD) ReadShard(name string, i int) ([]byte, time.Duration, error) {
	meta, ok := s.files[name]
	if !ok {
		return nil, 0, fmt.Errorf("ssd: no such object %q", name)
	}
	if i < 0 || i >= len(meta.shards) {
		return nil, 0, fmt.Errorf("ssd: %q shard %d out of range [0,%d)", name, i, len(meta.shards))
	}
	se := meta.shards[i]
	out := make([]byte, 0, se.bytes)
	for k := 0; k < se.lpnCount; k++ {
		idx := se.lpnLo + k
		page, err := s.readPage(meta, idx)
		if err != nil {
			return nil, 0, fmt.Errorf("ssd: %q shard %d: %w", name, i, err)
		}
		out = append(out, page...)
	}
	if int64(len(out)) != se.bytes {
		return nil, 0, fmt.Errorf("ssd: %q shard %d short read: %d < %d", name, i, len(out), se.bytes)
	}
	return out, s.ShardReadTime(se.lpnCount), nil
}

// readPage fetches the idx-th logical page of an object, validating the
// mapping and the stored length against the FTL's bookkeeping.
func (s *SSD) readPage(meta *fileMeta, idx int) ([]byte, error) {
	lpn := meta.lpns[idx]
	p := s.l2p[lpn]
	if p == invalidPPN {
		return nil, fmt.Errorf("lost page (lpn %d)", lpn)
	}
	page := s.pages[p]
	if want := meta.pageBytes[idx]; len(page) != want {
		return nil, fmt.Errorf("short page (lpn %d): %d of %d bytes", lpn, len(page), want)
	}
	s.stats.PageReads++
	return page, nil
}
