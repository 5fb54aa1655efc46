package ssd

import (
	"fmt"
	"time"
)

// WriteFile stores data with conventional placement (single write head,
// no cross-channel alignment) — how a normal FTL places a file.
func (s *SSD) WriteFile(name string, data []byte) (time.Duration, error) {
	return s.write(name, data, false)
}

// WriteGenomic implements SAGe_Write (§5.4): the FTL marks the blocks
// genomic and stripes pages round-robin across channels such that active
// blocks in different channels share the same page offset, enabling
// multi-plane reads at full bandwidth (§5.3).
func (s *SSD) WriteGenomic(name string, data []byte) (time.Duration, error) {
	return s.write(name, data, true)
}

func (s *SSD) write(name string, data []byte, genomic bool) (time.Duration, error) {
	if _, ok := s.files[name]; ok {
		if err := s.Delete(name); err != nil {
			return 0, err
		}
	}
	g := s.cfg.Geometry
	nPages := (len(data) + g.PageSize - 1) / g.PageSize
	meta := &fileMeta{name: name, size: len(data), genomic: genomic}
	for p := 0; p < nPages; p++ {
		lo := p * g.PageSize
		hi := lo + g.PageSize
		if hi > len(data) {
			hi = len(data)
		}
		var b int
		var err error
		if genomic {
			// Round-robin channel placement with aligned offsets.
			ch := p % g.Channels
			b, err = s.genomicBlock(ch)
		} else {
			b, err = s.conventionalBlock()
		}
		if err == nil {
			err = s.appendPage(meta, b, data[lo:hi])
		}
		if err != nil {
			s.discardPartialWrite(meta)
			return 0, err
		}
	}
	s.files[name] = meta
	s.stats.HostWrittenB += int64(len(data))
	return s.writeTime(int64(len(data)), genomic), nil
}

// appendPage programs one page of payload into block b and appends the
// FTL bookkeeping (l2p/p2l mapping, per-page length) to meta. Every
// write path funnels through here so the bookkeeping cannot drift
// between conventional, genomic, and shard-aligned placement.
func (s *SSD) appendPage(meta *fileMeta, b int, payload []byte) error {
	lpn, err := s.allocLPN()
	if err != nil {
		return err
	}
	pp, err := s.programPage(b, payload)
	if err != nil {
		s.freeLPNs = append(s.freeLPNs, lpn)
		return err
	}
	s.l2p[lpn] = pp
	s.p2l[pp] = int32(lpn)
	meta.lpns = append(meta.lpns, lpn)
	meta.pageBytes = append(meta.pageBytes, len(payload))
	return nil
}

// discardPartialWrite invalidates every page a failed write already
// programmed, so mid-write errors (out of space, GC dead ends) never
// leak valid pages no file owns — the blocks become ordinary GC
// victims and the logical pages return to the free list.
func (s *SSD) discardPartialWrite(meta *fileMeta) {
	for _, lpn := range meta.lpns {
		s.invalidate(lpn)
	}
}

// genomicBlock returns the active genomic block for a channel, allocating
// a fresh one when full.
func (s *SSD) genomicBlock(ch int) (int, error) {
	b := s.genomicHead[ch]
	if b < 0 || s.blocks[b].written >= s.cfg.Geometry.PagesPerBlock {
		nb, err := s.allocBlock(ch)
		if err != nil {
			return 0, err
		}
		s.blocks[nb].genomic = true
		s.genomicHead[ch] = nb
		b = nb
	}
	return b, nil
}

// conventionalBlock returns the single global write head.
func (s *SSD) conventionalBlock() (int, error) {
	b := s.convHead
	if b < 0 || s.blocks[b].written >= s.cfg.Geometry.PagesPerBlock {
		// Rotate channels for wear but without offset alignment.
		ch := 0
		best := -1
		for c := range s.freeBlocks {
			if len(s.freeBlocks[c]) > best {
				best = len(s.freeBlocks[c])
				ch = c
			}
		}
		nb, err := s.allocBlock(ch)
		if err != nil {
			return 0, err
		}
		s.convHead = nb
		b = nb
	}
	return b, nil
}

// ReadFile reads a stored object through the host interface, returning
// the data and the modeled transfer time.
func (s *SSD) ReadFile(name string) ([]byte, time.Duration, error) {
	data, meta, err := s.readRaw(name)
	if err != nil {
		return nil, 0, err
	}
	t := s.ExternalReadTime(int64(len(data)), meta.genomic)
	s.stats.HostReadB += int64(len(data))
	return data, t, nil
}

// ReadGenomicInternal reads a genomic object at full internal bandwidth
// without crossing the host interface — the path feeding per-channel SAGe
// hardware (§6 mode ③).
func (s *SSD) ReadGenomicInternal(name string) ([]byte, time.Duration, error) {
	data, meta, err := s.readRaw(name)
	if err != nil {
		return nil, 0, err
	}
	if !meta.genomic {
		return nil, 0, fmt.Errorf("ssd: %q was not written with SAGe_Write", name)
	}
	return data, s.InternalReadTime(int64(len(data)), true), nil
}

func (s *SSD) readRaw(name string) ([]byte, *fileMeta, error) {
	meta, ok := s.files[name]
	if !ok {
		return nil, nil, fmt.Errorf("ssd: no such object %q", name)
	}
	out := make([]byte, 0, meta.size)
	for idx := range meta.lpns {
		page, err := s.readPage(meta, idx)
		if err != nil {
			return nil, nil, fmt.Errorf("ssd: %q %w", name, err)
		}
		out = append(out, page...)
	}
	if len(out) != meta.size {
		return nil, nil, fmt.Errorf("ssd: %q short read: %d < %d", name, len(out), meta.size)
	}
	return out, meta, nil
}

// Delete removes an object and invalidates its pages (trim).
func (s *SSD) Delete(name string) error {
	meta, ok := s.files[name]
	if !ok {
		return fmt.Errorf("ssd: no such object %q", name)
	}
	for _, lpn := range meta.lpns {
		s.invalidate(lpn)
	}
	delete(s.files, name)
	return nil
}

// gcChannel reclaims space on one channel. Genomic victims are rewritten
// sequentially in their original logical order, preserving the aligned
// layout (§5.3: "select every block in the parallel unit as a group of
// victim blocks, which are then sequentially rewritten in the order they
// were originally written").
func (s *SSD) gcChannel(ch int) error {
	g := s.cfg.Geometry
	// Victim: the non-head block on this channel with the fewest valid
	// pages (and at least one invalid page to reclaim).
	victim := -1
	bestValid := g.PagesPerBlock + 1
	perCh := g.DiesPerChannel * g.PlanesPerDie * g.BlocksPerPlane
	for b := ch * perCh; b < (ch+1)*perCh; b++ {
		blk := &s.blocks[b]
		if b == s.genomicHead[ch] || b == s.convHead {
			continue
		}
		if blk.written == 0 {
			continue // unprogrammed (free-listed)
		}
		if blk.nValid < blk.written && blk.nValid < bestValid {
			bestValid = blk.nValid
			victim = b
		}
	}
	if victim < 0 {
		return fmt.Errorf("ssd: channel %d has no reclaimable block", ch)
	}
	blk := &s.blocks[victim]
	// Collect valid pages in written order.
	type moved struct {
		lpn  int
		data []byte
	}
	var moves []moved
	base := victim * g.PagesPerBlock
	for off := 0; off < blk.written; off++ {
		if !blk.valid[off] {
			continue
		}
		p := ppn(base + off)
		lpn := int(s.p2l[p])
		if lpn < 0 {
			return fmt.Errorf("ssd: orphan valid page %d", p)
		}
		moves = append(moves, moved{lpn: lpn, data: s.pages[p]})
		s.stats.GCPageMoves++
	}
	wasGenomic := blk.genomic
	// Erase the victim.
	for off := range blk.valid {
		blk.valid[off] = false
		s.p2l[victim*g.PagesPerBlock+off] = -1
	}
	blk.nValid, blk.written, blk.genomic = 0, 0, false
	blk.erases++
	s.stats.BlockErases++
	s.freeBlocks[ch] = append(s.freeBlocks[ch], victim)
	// Rewrite moved pages in original order.
	for _, mv := range moves {
		var b int
		var err error
		if wasGenomic {
			b, err = s.genomicBlock(ch)
		} else {
			b, err = s.conventionalBlock()
		}
		if err != nil {
			return err
		}
		pp, err := s.programPage(b, mv.data)
		if err != nil {
			return err
		}
		s.l2p[mv.lpn] = pp
		s.p2l[pp] = int32(mv.lpn)
	}
	return nil
}

// Utilization returns the fraction of pages holding valid data.
func (s *SSD) Utilization() float64 {
	valid := 0
	for b := range s.blocks {
		valid += s.blocks[b].nValid
	}
	return float64(valid) / float64(s.cfg.Geometry.TotalPages())
}
