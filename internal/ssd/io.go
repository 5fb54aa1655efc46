package ssd

import "fmt"

// appendPage programs one page of payload into block b and appends the
// FTL bookkeeping (l2p/p2l mapping, per-page length) to meta.
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
		s.genomicHead[ch] = nb
		b = nb
	}
	return b, nil
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
		if b == s.genomicHead[ch] {
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
	// Erase the victim.
	for off := range blk.valid {
		blk.valid[off] = false
		s.p2l[victim*g.PagesPerBlock+off] = -1
	}
	blk.nValid, blk.written = 0, 0
	s.stats.BlockErases++
	s.freeBlocks[ch] = append(s.freeBlocks[ch], victim)
	// Rewrite moved pages in original order.
	for _, mv := range moves {
		b, err := s.genomicBlock(ch)
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
