// Package consensus builds the consensus sequence that SAGe (like other
// genomic compressors, §2.2) encodes reads against.
//
// The paper allows two sources: "a user-provided reference, or a
// de-duplicated string derived from the reads, representing the most
// likely character at each location". A reference is used as given.
// FromReads derives one de novo with a counting de Bruijn graph: k-mers
// seen at least minCount times are linked, and maximal non-branching
// paths (unitigs) are emitted, longest first. Sequencing errors produce
// low-count k-mers and are filtered out, so the unitigs approximate the
// donor genome.
//
// The consensus is a mapping target only; it does not need to be complete
// or correct for losslessness (reads that fail to map are stored raw).
package consensus

import (
	"bytes"
	"fmt"
	"slices"

	"sage/internal/fastq"
	"sage/internal/genome"
)

// Consensus is an assembled mapping target.
type Consensus struct {
	Seq genome.Seq
	// NumUnitigs counts the assembled unitigs.
	NumUnitigs int
}

// The assembly's settings suit accurate short reads at ≥10x depth.
const (
	// kmerLen is the de Bruijn k-mer length: odd, so that no k-mer is
	// its own reverse complement, and ≤ 31, so that one fits a uint64.
	kmerLen = 25
	// minCount filters k-mers observed fewer times (error removal).
	minCount = 3
	// minUnitigLen drops unitigs shorter than this many bases.
	minUnitigLen = 100
)

// FromReads assembles a consensus from the read set.
func FromReads(rs *fastq.ReadSet) (*Consensus, error) {
	counts := countCanonicalKmers(rs, kmerLen)
	for code, c := range counts {
		if c < minCount {
			delete(counts, code)
		}
	}
	unitigs := buildUnitigs(counts, kmerLen)
	// Longest-first gives stable, repeat-friendly ordering. Unitigs are
	// N-free, so comparing base codes orders them exactly like their
	// ASCII rendering without materializing it.
	slices.SortFunc(unitigs, func(a, b genome.Seq) int {
		if len(a) != len(b) {
			return len(b) - len(a)
		}
		return bytes.Compare(a, b)
	})
	var seq genome.Seq
	n := 0
	for _, u := range unitigs {
		if len(u) < minUnitigLen {
			continue
		}
		seq = append(seq, u...)
		n++
	}
	if len(seq) == 0 {
		return nil, fmt.Errorf("consensus: no unitigs of length >= %d (insufficient depth or too many errors)", minUnitigLen)
	}
	return &Consensus{Seq: seq, NumUnitigs: n}, nil
}

// kmerMask keeps the low 2k bits.
func kmerMask(k int) uint64 { return (uint64(1) << (2 * uint(k))) - 1 }

// revComp returns the reverse complement of a 2-bit-packed k-mer.
func revComp(code uint64, k int) uint64 {
	var rc uint64
	for i := 0; i < k; i++ {
		b := code & 3
		rc = rc<<2 | (3 - b) // complement of 2-bit base b is 3-b
		code >>= 2
	}
	return rc
}

// canonical returns min(code, revcomp(code)).
func canonical(code uint64, k int) uint64 {
	rc := revComp(code, k)
	if rc < code {
		return rc
	}
	return code
}

// countCanonicalKmers counts canonical k-mers across all reads, skipping
// k-mers containing N.
func countCanonicalKmers(rs *fastq.ReadSet, k int) map[uint64]int32 {
	counts := make(map[uint64]int32, rs.TotalBases()/2)
	mask := kmerMask(k)
	for i := range rs.Records {
		seq := rs.Records[i].Seq
		var code uint64
		valid := 0
		for j, b := range seq {
			if b > genome.BaseT {
				valid = 0
				continue
			}
			code = (code<<2 | uint64(b)) & mask
			valid++
			if valid >= k {
				counts[canonical(code, k)]++
			}
			_ = j
		}
	}
	return counts
}

// buildUnitigs extracts maximal non-branching paths from the k-mer set.
func buildUnitigs(counts map[uint64]int32, k int) []genome.Seq {
	visited := make(map[uint64]bool, len(counts))
	var unitigs []genome.Seq

	// exists tests membership under canonicalization.
	exists := func(code uint64) bool {
		_, ok := counts[canonical(code, k)]
		return ok
	}
	mask := kmerMask(k)
	// successors of an ORIENTED k-mer code. Fixed-size returns keep the
	// per-step neighbor probes of every walk allocation-free.
	succs := func(code uint64) ([4]uint64, int) {
		var out [4]uint64
		n := 0
		base := (code << 2) & mask
		for b := uint64(0); b < 4; b++ {
			if exists(base | b) {
				out[n] = base | b
				n++
			}
		}
		return out, n
	}
	preds := func(code uint64) ([4]uint64, int) {
		var out [4]uint64
		n := 0
		base := code >> 2
		for b := uint64(0); b < 4; b++ {
			cand := b<<(2*uint(k-1)) | base
			if exists(cand) {
				out[n] = cand
				n++
			}
		}
		return out, n
	}

	// Deterministic iteration: sort the canonical codes.
	codes := make([]uint64, 0, len(counts))
	for c := range counts {
		codes = append(codes, c)
	}
	slices.Sort(codes)

	for _, start := range codes {
		if visited[start] {
			continue
		}
		// Walk right from the oriented representative, then left.
		path := walk(start, succs, preds, visited, k)
		unitigs = append(unitigs, pathToSeq(path, k))
	}
	return unitigs
}

// walk extends an oriented k-mer maximally in both directions through
// non-branching nodes, marking canonical forms visited.
func walk(start uint64, succs, preds func(uint64) ([4]uint64, int), visited map[uint64]bool, k int) []uint64 {
	visited[canonical(start, k)] = true
	path := []uint64{start}
	// Extend right.
	cur := start
	for {
		ss, ns := succs(cur)
		if ns != 1 {
			break
		}
		next := ss[0]
		if visited[canonical(next, k)] {
			break
		}
		if _, np := preds(next); np != 1 {
			break
		}
		visited[canonical(next, k)] = true
		path = append(path, next)
		cur = next
	}
	// Extend left.
	cur = start
	var left []uint64
	for {
		ps, np := preds(cur)
		if np != 1 {
			break
		}
		prev := ps[0]
		if visited[canonical(prev, k)] {
			break
		}
		if _, ns := succs(prev); ns != 1 {
			break
		}
		visited[canonical(prev, k)] = true
		left = append(left, prev)
		cur = prev
	}
	// Reverse left and prepend.
	if len(left) > 0 {
		full := make([]uint64, 0, len(left)+len(path))
		for i := len(left) - 1; i >= 0; i-- {
			full = append(full, left[i])
		}
		full = append(full, path...)
		path = full
	}
	return path
}

// pathToSeq converts a chain of oriented k-mers to bases.
func pathToSeq(path []uint64, k int) genome.Seq {
	if len(path) == 0 {
		return nil
	}
	out := make(genome.Seq, 0, k+len(path)-1)
	first := path[0]
	for i := k - 1; i >= 0; i-- {
		out = append(out, byte((first>>(2*uint(i)))&3))
	}
	for _, code := range path[1:] {
		out = append(out, byte(code&3))
	}
	return out
}
