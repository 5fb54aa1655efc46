// Package mapper implements the compression-time read mapper SAGe uses to
// find each read's mismatch information against the consensus sequence
// (§5.1 ❶: "SAGe identifies the mismatches during compression by mapping
// reads to the consensus sequence").
//
// The design is a classic seed–cluster–extend mapper: a flat k-mer seed
// table over the consensus provides seed hits, hits are clustered by
// diagonal to locate candidate regions (including multiple regions for
// chimeric reads, §5.1.2), and each candidate is extended into the edit list
// (substitutions, insertion blocks, deletion blocks) that the SAGe encoder
// consumes. Seeding is guided: once a seed has hit one consensus position,
// a later seed of the same strand that equals the consensus on that hit's
// diagonal, where the table holds its k-mer once, is taken without a probe
// (collectClusters; the probe-every-seed loop is the oracle in
// seed_oracle_test.go). Extension has two tiers. When a cluster's seeds
// all lie on one diagonal, the read is compared against the consensus on
// that diagonal and accepted with at most one substitution
// (verifyDiagonal); most short reads end here. Everything else goes to
// alignAnchored, which aligns the piece through the cluster's own seed
// hits: hits merged into exact anchors, chained co-linearly, and extended
// along their diagonals while the bases match (chainAnchors). Only the
// gaps between anchors, and the tails before the first and after the
// last, are aligned, by alignBand: a bit-parallel (Myers/Edlib block)
// edit-distance kernel, 64 cells per word operation, with either end free
// or pinned, traced back from two stored words per block and column —
// memory linear in the gap, not in gap × band. Its tie-breaks are those
// of the int32 DP it replaced, which survives as the differential oracle
// in align_oracle_test.go, beside the whole-piece band the anchors
// replaced (DESIGN.md "Anchored alignment").
//
// This mapping is internal to compression and is independent of the read
// mapping done later during genome analysis (§5.1 footnote 6).
package mapper

import (
	"fmt"
	"math"
	"math/bits"

	"sage/internal/genome"
)

// Index is a k-mer seed table over a consensus sequence: one
// open-addressed array of the distinct k-mers, one array of their
// consensus positions and one bit per consensus position saying that
// its k-mer is indexed there and nowhere else (DESIGN.md "Seed table").
type Index struct {
	k    int
	cons genome.Seq
	// slots has a power-of-two length and is at most half full; a k-mer
	// lives at or after the slot its hash names, before the next empty
	// one. shift takes a hash to a slot number.
	slots []seedSlot
	shift uint
	// present holds 1<<presentBits bits per slot, one set per distinct
	// k-mer: a sixteenth of slots' bytes, where most lookups of k-mers
	// the consensus lacks — half of a read's seeds — end without a miss.
	present []uint64
	// positions groups the indexed positions by k-mer. The groups of the
	// k-mers whose hash names one region of slots lie together, regions
	// in ascending order (NewIndex).
	positions []int32
	// unique has bit q set when position q is indexed and its k-mer has
	// no other indexed position, so Lookup of that k-mer returns [q]: a
	// seed that equals cons[q:q+k] needs no probe (guided seeding).
	unique []uint64
	// maxOcc caps the per-k-mer hit list consulted during seeding;
	// over-frequent (repeat) k-mers are skipped, as in minimizer mappers.
	maxOcc int
}

// seedSlot is one distinct k-mer: positions[end-n:end] are its consensus
// positions, ascending. n == 0 marks an empty slot.
type seedSlot struct {
	code uint64
	end  uint32
	n    uint32
}

const (
	presentBits = 3
	// regionBits is log2 of the slots in one build region: 64 slots,
	// 1 KB. NewIndex fills the regions in ascending order.
	regionBits = 6
)

// IndexConfig parameterizes index construction.
type IndexConfig struct {
	// K is the k-mer length (≤ 31). Larger K gives more specific seeds;
	// smaller K tolerates more errors between seeds.
	K int
	// Step indexes every Step-th consensus position (1 = all).
	Step int
	// MaxOcc skips k-mers occurring more than MaxOcc times.
	MaxOcc int
}

// DefaultIndexConfig returns settings that work for both read classes.
func DefaultIndexConfig() IndexConfig {
	return IndexConfig{K: 15, Step: 1, MaxOcc: 64}
}

// NewIndex builds a k-mer index over cons one region of slots at a time,
// in ascending order, so that its writes move through the table from front
// to back — a pattern the hardware prefetcher follows — instead of landing
// anywhere in it twice over. Two walks over the consensus's k-mers bucket
// their positions by the region their hash names, in positions itself,
// keeping the walk's order; then each region's k-mers are inserted and its
// bucket is scattered into their runs. Every run is therefore ascending.
func NewIndex(cons genome.Seq, cfg IndexConfig) (*Index, error) {
	if cfg.K < 4 || cfg.K > 31 {
		return nil, fmt.Errorf("mapper: k=%d out of range [4,31]", cfg.K)
	}
	if cfg.Step < 1 {
		cfg.Step = 1
	}
	if cfg.MaxOcc < 1 {
		cfg.MaxOcc = 64
	}
	if len(cons) > math.MaxInt32 {
		return nil, fmt.Errorf("mapper: consensus of %d bases exceeds the index's 32-bit positions", len(cons))
	}
	logSlots := max(bits.Len(uint(2*(len(cons)/cfg.Step+1))), 6-presentBits)
	idx := &Index{
		k:       cfg.K,
		cons:    cons,
		slots:   make([]seedSlot, 1<<logSlots),
		shift:   uint(64 - logSlots),
		present: make([]uint64, 1<<(logSlots+presentBits-6)),
		unique:  make([]uint64, (len(cons)+63)/64),
		maxOcc:  cfg.MaxOcc,
	}
	logRegion := min(logSlots, regionBits)
	regionShift := idx.shift + uint(logRegion)
	// bucket[r] is where region r's positions begin, once the counts are
	// summed; the scatter advances it to where the next region's begin.
	bucket := make([]uint32, 1<<(logSlots-logRegion)+1)
	ForEachKmer(cons, cfg.K, cfg.Step, func(_ int, code uint64) {
		bucket[code*fibonacci>>regionShift+1]++
	})
	most := uint32(0) // the largest bucket
	for r := 1; r < len(bucket); r++ {
		most = max(most, bucket[r])
		bucket[r] += bucket[r-1]
	}
	idx.positions = make([]int32, bucket[len(bucket)-1])
	ForEachKmer(cons, cfg.K, cfg.Step, func(p int, code uint64) {
		r := code * fibonacci >> regionShift
		idx.positions[bucket[r]] = int32(p)
		bucket[r]++
	})
	// Region r's positions are now positions[bucket[r-1]:bucket[r]], with
	// bucket[-1] read as 0. Each is copied out, inserted, and scattered
	// into its k-mers' runs while the region's slots are still in cache; a
	// run is handed out the first time its k-mer is met, and lies inside
	// its home region's bucket even when probing carried the k-mer into
	// the next region's slots. Only a run not yet handed out ends at 0: the
	// first one does for as long as it is empty.
	codes := packCodes(cons, cfg.K)
	held := make([]int32, 0, most)
	start := uint32(0)
	for _, end := range bucket[:len(bucket)-1] {
		held = append(held[:0], idx.positions[start:end]...)
		for _, p := range held {
			code := codes.at(int(p))
			s := idx.slot(code)
			s.code = code
			s.n++
			f := idx.presentBit(code)
			idx.present[f>>6] |= 1 << (f & 63)
		}
		next := start
		for _, p := range held {
			s := idx.slot(codes.at(int(p)))
			if s.end == 0 {
				s.end = next
				next += s.n
			}
			idx.positions[s.end] = p
			s.end++
			if s.n == 1 {
				idx.unique[p>>6] |= 1 << (p & 63)
			}
		}
		start = end
	}
	return idx, nil
}

// kmerCodes is a consensus packed two bits per base, the first base in
// the top bits of the first word, with one word of padding: the code of
// any N-free k-mer is then two loads and three shifts away.
type kmerCodes struct {
	words []uint64
	k     int
}

// packCodes packs cons for kmerCodes.at. An N packs as A; at is only
// asked for k-mers ForEachKmer yields, which hold none.
func packCodes(cons genome.Seq, k int) kmerCodes {
	words := make([]uint64, len(cons)/32+2)
	for w := 0; w*32 < len(cons); w++ {
		bases := cons[w*32 : min(w*32+32, len(cons))]
		var x uint64
		for _, b := range bases {
			x = x<<2 | uint64(b&3)
		}
		words[w] = x << (64 - 2*uint(len(bases)))
	}
	return kmerCodes{words: words, k: k}
}

// at returns the code of the k-mer at position p.
func (c kmerCodes) at(p int) uint64 {
	w, s := p>>5, 2*uint(p&31)
	return (c.words[w]<<s | c.words[w+1]>>(64-s)) >> (64 - 2*uint(c.k))
}

// fibonacci is 2^64 over the golden ratio; a k-mer's hash is the top
// bits of code*fibonacci.
const fibonacci = 0x9E3779B97F4A7C15

// presentBit returns code's bit in present: its slot number and
// presentBits hash bits more.
func (x *Index) presentBit(code uint64) uint64 {
	return code * fibonacci >> (x.shift - presentBits)
}

// slot returns the slot holding code, or the empty slot where code
// belongs: linear probing from the slot its hash names.
func (x *Index) slot(code uint64) *seedSlot {
	mask := uint64(len(x.slots) - 1)
	for i := code * fibonacci >> x.shift; ; i = (i + 1) & mask {
		if s := &x.slots[i]; s.n == 0 || s.code == code {
			return s
		}
	}
}

// Lookup returns the consensus positions of k-mer code in ascending
// order, or nil when the k-mer is absent or over-frequent.
func (x *Index) Lookup(code uint64) []int32 {
	if f := x.presentBit(code); x.present[f>>6]&(1<<(f&63)) == 0 {
		return nil
	}
	s := x.slot(code)
	if s.n == 0 || int(s.n) > x.maxOcc {
		return nil
	}
	return x.positions[s.end-s.n : s.end]
}

// ForEachKmer calls fn(pos, code) for every N-free k-mer of s starting at
// positions 0, step, 2*step, ... K-mers containing N are skipped (N breaks
// the 2-bit code space). The code rolls: each base shifts into it once.
func ForEachKmer(s genome.Seq, k, step int, fn func(pos int, code uint64)) {
	mask := uint64(1)<<(2*k) - 1
	var code uint64
	clean := 0 // N-free bases ending at i
	next := 0  // the next position to visit
	for i, b := range s {
		if b > genome.BaseT {
			clean = 0
		} else {
			code = (code<<2 | uint64(b)) & mask
			clean++
		}
		if p := i + 1 - k; p == next {
			if clean >= k {
				fn(p, code)
			}
			next += step
		}
	}
}
