// Package mapper implements the compression-time read mapper SAGe uses to
// find each read's mismatch information against the consensus sequence
// (§5.1 ❶: "SAGe identifies the mismatches during compression by mapping
// reads to the consensus sequence").
//
// The design is a classic seed–cluster–extend mapper: a k-mer index over
// the consensus provides seed hits, hits are clustered by diagonal to
// locate candidate regions (including multiple regions for chimeric reads,
// §5.1.2), and each candidate is extended into the edit list
// (substitutions, insertion blocks, deletion blocks) that the SAGe encoder
// consumes. Extension has two tiers. When a cluster's seeds all lie on one
// diagonal, the read is compared against the consensus on that diagonal
// and accepted with at most one substitution (verifyDiagonal); most short
// reads end here. Everything else goes to alignBand, a bit-parallel
// (Myers/Edlib block) edit-distance kernel that computes the exact
// fitting alignment inside the band of diagonals the cluster implies, 64
// cells per word operation, and traces it back from two stored words per
// block and column — memory linear in the read, not in read × band. Its
// tie-breaks are those of the int32 DP it replaced, which survives as the
// differential oracle in align_oracle_test.go.
//
// This mapping is internal to compression and is independent of the read
// mapping done later during genome analysis (§5.1 footnote 6).
package mapper

import (
	"fmt"

	"sage/internal/genome"
)

// Index is a k-mer hash index over a consensus sequence.
type Index struct {
	k    int
	cons genome.Seq
	pos  map[uint64][]int32
	// maxOcc caps the per-k-mer hit list consulted during seeding;
	// over-frequent (repeat) k-mers are skipped, as in minimizer mappers.
	maxOcc int
}

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

// NewIndex builds a k-mer index over cons.
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
	idx := &Index{
		k:      cfg.K,
		cons:   cons,
		pos:    make(map[uint64][]int32, len(cons)/cfg.Step+1),
		maxOcc: cfg.MaxOcc,
	}
	ForEachKmer(cons, cfg.K, cfg.Step, func(p int, code uint64) {
		idx.pos[code] = append(idx.pos[code], int32(p))
	})
	return idx, nil
}

// K returns the indexed k-mer length.
func (x *Index) K() int { return x.k }

// Consensus returns the indexed consensus sequence.
func (x *Index) Consensus() genome.Seq { return x.cons }

// Lookup returns the consensus positions of k-mer code, or nil when the
// k-mer is absent or over-frequent.
func (x *Index) Lookup(code uint64) []int32 {
	hits := x.pos[code]
	if len(hits) > x.maxOcc {
		return nil
	}
	return hits
}

// ForEachKmer calls fn(pos, code) for every N-free k-mer of s starting at
// positions 0, step, 2*step, ... K-mers containing N are skipped (N breaks
// the 2-bit code space).
func ForEachKmer(s genome.Seq, k, step int, fn func(pos int, code uint64)) {
	if len(s) < k {
		return
	}
	for p := 0; p+k <= len(s); p += step {
		code, ok := EncodeKmer(s[p : p+k])
		if !ok {
			continue
		}
		fn(p, code)
	}
}

// EncodeKmer packs an N-free k-mer into a 2-bit-per-base code.
// Returns ok=false if the k-mer contains N.
func EncodeKmer(s genome.Seq) (uint64, bool) {
	var code uint64
	for _, b := range s {
		if b > genome.BaseT {
			return 0, false
		}
		code = code<<2 | uint64(b)
	}
	return code, true
}
