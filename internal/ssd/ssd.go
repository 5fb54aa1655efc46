// Package ssd models the storage device SAGe integrates with: NAND flash
// geometry and timing, channel parallelism, a page-mapped FTL with
// genomic-aware placement (§5.3), grouped garbage collection, and the
// SAGe_Read / SAGe_Write interface commands (§5.4).
//
// It plays the role MQSim plays in the paper's methodology (§7): a
// functional + timing model whose streaming-read behaviour and FTL
// bookkeeping are what SAGe's data layout interacts with. Data written is
// really stored and read back (the in-storage pipeline of the experiments
// decompresses actual bytes from this model); times are computed with an
// analytic pipeline model of the flash arrays and channel buses.
package ssd

import (
	"fmt"
	"time"
)

// Geometry describes the flash arrays.
type Geometry struct {
	Channels       int
	DiesPerChannel int
	PlanesPerDie   int
	BlocksPerPlane int
	PagesPerBlock  int
	PageSize       int // bytes
}

// DefaultGeometry models a 4-TB-class enterprise drive at laptop scale:
// the structure (8 channels, 4 dies, 2 planes) matches the paper's
// 8-channel controller; block counts are scaled down so tests exercise GC.
func DefaultGeometry() Geometry {
	return Geometry{
		Channels:       8,
		DiesPerChannel: 4,
		PlanesPerDie:   2,
		BlocksPerPlane: 64,
		PagesPerBlock:  64,
		PageSize:       16 << 10,
	}
}

// TotalPages returns the device capacity in pages.
func (g Geometry) TotalPages() int {
	return g.Channels * g.DiesPerChannel * g.PlanesPerDie * g.BlocksPerPlane * g.PagesPerBlock
}

// NAND and bus timing: TLC NAND with an ONFI-4-class bus.
const (
	pageRead    = 60 * time.Microsecond  // tR
	pageProgram = 700 * time.Microsecond // tPROG
	channelMBps = 1200.0                 // per-channel bus bandwidth
)

// Interface is the host link.
type Interface struct {
	Name string
	MBps float64
}

// PCIeGen4 models a performance-optimized NVMe drive (Samsung PM1735
// class, §7).
func PCIeGen4() Interface { return Interface{Name: "pcie", MBps: 8000} }

// SATA3 models a cost-optimized drive (Samsung 870 EVO class, §7).
func SATA3() Interface { return Interface{Name: "sata", MBps: 560} }

// Power draw of a Samsung 3D-NAND SSD class device (§7), in watts.
const (
	IdleW       = 1.3
	ActiveReadW = 6.2
)

// Config assembles a device model.
type Config struct {
	Geometry  Geometry
	Interface Interface
}

// DefaultConfig returns the PCIe device used across the experiments.
func DefaultConfig() Config {
	return Config{Geometry: DefaultGeometry(), Interface: PCIeGen4()}
}

// ppn is a physical page number.
type ppn int32

const invalidPPN ppn = -1

// blockState tracks one physical block.
type blockState struct {
	valid   []bool // per page
	nValid  int
	written int // next page offset to program
}

// Stats counts device activity.
type Stats struct {
	PageReads    int64
	PageWrites   int64
	BlockErases  int64
	GCPageMoves  int64
	HostWrittenB int64
}

// SSD is the device model.
type SSD struct {
	cfg    Config
	blocks []blockState // indexed by block id
	pages  [][]byte     // physical page store, indexed by ppn
	// l2p maps logical page numbers to physical pages; p2l is the
	// reverse map the FTL keeps for GC (real FTLs store it in the OOB
	// area of each page).
	l2p []ppn
	p2l []int32
	// freeLPNs recycles logical pages of deleted objects.
	freeLPNs []int
	// genomicHead[channel] is the active block per channel for the
	// SAGe round-robin layout (§5.3).
	genomicHead []int
	freeBlocks  [][]int // free block ids per channel
	files       map[string]*fileMeta
	nextLPN     int
	stats       Stats
}

// fileMeta records a stored object.
type fileMeta struct {
	size int
	lpns []int
	// pageBytes is the payload length of each logical page (parallel to
	// lpns): full pages hold PageSize bytes, but shard-aligned placement
	// (WriteShards) ends every shard extent on a partial page, so reads
	// must validate against the recorded length, not the geometry.
	pageBytes []int
	// shards is the object's shard placement table.
	shards []shardExtent
}

// New builds an empty device.
func New(cfg Config) (*SSD, error) {
	g := cfg.Geometry
	if g.Channels <= 0 || g.DiesPerChannel <= 0 || g.PlanesPerDie <= 0 ||
		g.BlocksPerPlane <= 0 || g.PagesPerBlock <= 0 || g.PageSize <= 0 {
		return nil, fmt.Errorf("ssd: invalid geometry %+v", g)
	}
	nBlocks := g.Channels * g.DiesPerChannel * g.PlanesPerDie * g.BlocksPerPlane
	s := &SSD{
		cfg:         cfg,
		blocks:      make([]blockState, nBlocks),
		pages:       make([][]byte, nBlocks*g.PagesPerBlock),
		l2p:         make([]ppn, g.TotalPages()),
		p2l:         make([]int32, nBlocks*g.PagesPerBlock),
		genomicHead: make([]int, g.Channels),
		freeBlocks:  make([][]int, g.Channels),
		files:       make(map[string]*fileMeta),
	}
	for i := range s.l2p {
		s.l2p[i] = invalidPPN
	}
	for i := range s.p2l {
		s.p2l[i] = -1
	}
	for b := range s.blocks {
		s.blocks[b].valid = make([]bool, g.PagesPerBlock)
		ch := s.channelOfBlock(b)
		s.freeBlocks[ch] = append(s.freeBlocks[ch], b)
	}
	for ch := range s.genomicHead {
		s.genomicHead[ch] = -1
	}
	return s, nil
}

// channelOfBlock derives the channel a block belongs to: blocks are
// numbered channel-major so each channel owns a contiguous range.
func (s *SSD) channelOfBlock(b int) int {
	g := s.cfg.Geometry
	perCh := g.DiesPerChannel * g.PlanesPerDie * g.BlocksPerPlane
	return b / perCh
}

// Stats returns activity counters.
func (s *SSD) Stats() Stats { return s.stats }

// Config returns the device configuration.
func (s *SSD) Config() Config { return s.cfg }

// allocBlock takes a free block on the given channel.
func (s *SSD) allocBlock(ch int) (int, error) {
	if len(s.freeBlocks[ch]) == 0 {
		if err := s.gcChannel(ch); err != nil {
			return 0, err
		}
	}
	if len(s.freeBlocks[ch]) == 0 {
		return 0, fmt.Errorf("ssd: channel %d out of space", ch)
	}
	b := s.freeBlocks[ch][0]
	s.freeBlocks[ch] = s.freeBlocks[ch][1:]
	return b, nil
}

// programPage writes data into the next page of block b, returning the ppn.
func (s *SSD) programPage(b int, data []byte) (ppn, error) {
	blk := &s.blocks[b]
	if blk.written >= s.cfg.Geometry.PagesPerBlock {
		return invalidPPN, fmt.Errorf("ssd: block %d full", b)
	}
	off := blk.written
	blk.written++
	blk.valid[off] = true
	blk.nValid++
	p := ppn(b*s.cfg.Geometry.PagesPerBlock + off)
	buf := make([]byte, len(data))
	copy(buf, data)
	s.pages[p] = buf
	s.stats.PageWrites++
	return p, nil
}

// invalidate clears the mapping of a logical page.
func (s *SSD) invalidate(lpn int) {
	p := s.l2p[lpn]
	if p == invalidPPN {
		return
	}
	b := int(p) / s.cfg.Geometry.PagesPerBlock
	off := int(p) % s.cfg.Geometry.PagesPerBlock
	if s.blocks[b].valid[off] {
		s.blocks[b].valid[off] = false
		s.blocks[b].nValid--
	}
	s.l2p[lpn] = invalidPPN
	s.p2l[p] = -1
	s.pages[p] = nil
	s.freeLPNs = append(s.freeLPNs, lpn)
}

// allocLPN returns a logical page number, recycling freed ones.
func (s *SSD) allocLPN() (int, error) {
	if n := len(s.freeLPNs); n > 0 {
		lpn := s.freeLPNs[n-1]
		s.freeLPNs = s.freeLPNs[:n-1]
		return lpn, nil
	}
	if s.nextLPN >= len(s.l2p) {
		return 0, fmt.Errorf("ssd: logical space exhausted (%d pages)", len(s.l2p))
	}
	lpn := s.nextLPN
	s.nextLPN++
	return lpn, nil
}
