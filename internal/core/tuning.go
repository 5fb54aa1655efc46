// Package core implements the paper's primary contribution: the SAGe
// lossless (de)compression algorithm and its hardware-friendly data
// structures (§5.1), plus the streaming decoder organized exactly like the
// hardware's Scan Unit / Read Construction Unit / Control Unit (§5.2).
//
// The on-storage format consists of five bit streams:
//
//	MPA    matching-position array       (delta bits, read lengths, extra
//	                                      segment positions)
//	MPGA   matching-position guide array (width-class codes, rev bits,
//	                                      segment counts)
//	MMPA   mismatch-position array       (delta bits, long indel lengths)
//	MMPGA  mismatch-position guide array (count classes, width classes,
//	                                      single-base-indel bits)
//	MBTA   mismatch base/type array      (marker bases, ins/del bits,
//	                                      inserted bases, corner payloads,
//	                                      raw unmapped reads)
//
// Entry bit widths are tuned per read set by Algorithm 1 and recorded in
// small association tables at the start of the compressed file; variable-
// length prefix codes (0, 10, 110, ...) point each entry at its width.
package core

import (
	"fmt"
	"math"

	"sage/internal/bitio"
)

// MaxWidthClasses bounds the number of distinct bit widths per array
// (Algorithm 1: d ∈ {1, ..., 8}).
const MaxWidthClasses = 8

// maxHistBits bounds the value bit lengths we model (|H| ≤ 32 in the
// paper; index 0 holds zero-valued entries, which need no data bits).
const maxHistBits = 32

// Histogram counts values by encoded bit length: Hist[0] counts zeros,
// Hist[b] counts values v with bitlen(v) == b.
type Histogram [maxHistBits + 1]int64

// Add records value v.
func (h *Histogram) Add(v uint64) {
	h[HistIndex(v)]++
}

// Total returns the number of recorded values.
func (h *Histogram) Total() int64 {
	var t int64
	for _, c := range h {
		t += c
	}
	return t
}

// MaxBits returns the largest bit length present (0 for empty/all-zero).
func (h *Histogram) MaxBits() int {
	for b := maxHistBits; b >= 0; b-- {
		if h[b] > 0 {
			return b
		}
	}
	return 0
}

// HistIndex returns the histogram bucket for value v: 0 when v == 0,
// otherwise the bit length of v.
func HistIndex(v uint64) int {
	if v == 0 {
		return 0
	}
	n := 0
	for v > 0 {
		v >>= 1
		n++
	}
	return n
}

// AssociationTable maps variable-length guide codes to entry bit widths
// (Fig. 8 ❸). Widths[i] is the width selected by the unary code with i
// leading ones; Widths is ordered by descending class frequency so common
// widths get the shortest codes (§5.1.1: "shorter representations to more
// common inputs").
type AssociationTable struct {
	Widths []uint8
	// bestClass[b] caches the cheapest class for values of bit length b.
	bestClass [maxHistBits + 1]uint8
}

// NewAssociationTable builds a table from widths ordered by code rank.
func NewAssociationTable(widths []uint8) (*AssociationTable, error) {
	if len(widths) == 0 || len(widths) > MaxWidthClasses {
		return nil, fmt.Errorf("core: association table needs 1..%d widths, got %d", MaxWidthClasses, len(widths))
	}
	seen := map[uint8]bool{}
	maxW := uint8(0)
	for _, w := range widths {
		if w > maxHistBits {
			return nil, fmt.Errorf("core: width %d exceeds %d", w, maxHistBits)
		}
		if seen[w] {
			return nil, fmt.Errorf("core: duplicate width %d", w)
		}
		seen[w] = true
		if w > maxW {
			maxW = w
		}
	}
	t := &AssociationTable{Widths: append([]uint8(nil), widths...)}
	for b := 0; b <= maxHistBits; b++ {
		bestCost := math.MaxInt32
		bestIdx := -1
		for i, w := range t.Widths {
			if int(w) < b {
				continue
			}
			cost := (i + 1) + int(w) // unary code length + data bits
			if cost < bestCost {
				bestCost = cost
				bestIdx = i
			}
		}
		if bestIdx < 0 {
			// Values of this bit length are not encodable; mark with
			// sentinel (checked in EncodeValue).
			t.bestClass[b] = 0xff
			continue
		}
		t.bestClass[b] = uint8(bestIdx)
	}
	return t, nil
}

// MaxWidth returns the widest class.
func (t *AssociationTable) MaxWidth() int {
	m := uint8(0)
	for _, w := range t.Widths {
		if w > m {
			m = w
		}
	}
	return int(m)
}

// EncodeValue writes v's class code to the guide stream and v's bits to
// the data stream.
func (t *AssociationTable) EncodeValue(guide, data *bitio.Writer, v uint64) error {
	b := HistIndex(v)
	cls := t.bestClass[b]
	if cls == 0xff {
		return fmt.Errorf("core: value %d (bitlen %d) exceeds association table max width %d", v, b, t.MaxWidth())
	}
	guide.WriteUnary(uint(cls))
	data.WriteBits(v, uint(t.Widths[cls]))
	return nil
}

// DecodeValue reads one class code from the guide stream and the value
// bits from the data stream.
func (t *AssociationTable) DecodeValue(guide, data *bitio.Reader) (uint64, error) {
	cls, err := guide.ReadUnary(uint(len(t.Widths) - 1))
	if err != nil {
		return 0, err
	}
	if int(cls) >= len(t.Widths) {
		return 0, fmt.Errorf("core: guide code %d out of range", cls)
	}
	return data.ReadBits(uint(t.Widths[cls]))
}

// CostBits returns the encoded size of v in bits (guide + data).
func (t *AssociationTable) CostBits(v uint64) int {
	b := HistIndex(v)
	cls := t.bestClass[b]
	if cls == 0xff {
		return math.MaxInt32 / 2
	}
	return int(cls) + 1 + int(t.Widths[cls])
}

// tuneConfig parameterizes Algorithm 1. Encoding always runs it with
// defaultTuneConfig; the ablation tests sweep it.
type tuneConfig struct {
	// epsilon is the convergence threshold ε: the search over class
	// counts d stops when the relative improvement drops below it.
	epsilon float64
	// maxClasses caps d (the paper uses 8).
	maxClasses int
}

// defaultTuneConfig mirrors the paper's settings.
func defaultTuneConfig() tuneConfig {
	return tuneConfig{epsilon: 0.01, maxClasses: MaxWidthClasses}
}

// tune implements Algorithm 1: it selects the bit-width boundaries that
// minimize the total encoded size (data bits + guide-code bits) of the
// values summarized by h.
//
// For each d in {1..maxClasses} it exhaustively searches all strictly
// increasing boundary tuples (x_1 < ... < x_d) over the histogram support,
// with x_d pinned to the maximum present bit length (every value must be
// encodable). Guide-code lengths are assigned by class frequency: the most
// populous class gets the 1-bit code "0", the next "10", and so on. The
// search exits early once the relative improvement between successive d
// values falls below ε, which in practice happens at d < 8 (§5.1.1).
func tune(h *Histogram, cfg tuneConfig) ([]uint8, error) {
	if cfg.maxClasses <= 0 || cfg.maxClasses > MaxWidthClasses {
		cfg.maxClasses = MaxWidthClasses
	}
	if h.Total() == 0 {
		return []uint8{1}, nil
	}
	maxBits := h.MaxBits()
	// Candidate boundaries: bit lengths present in the histogram (plus 0
	// if zeros exist — a zero-width class stores zeros for free).
	var support []int
	for b := 0; b <= maxBits; b++ {
		if h[b] > 0 {
			support = append(support, b)
		}
	}
	// Prefix counts for O(1) range sums: pref[b] = count of values with
	// bucket <= b.
	var pref [maxHistBits + 2]int64
	for b := 0; b <= maxHistBits; b++ {
		pref[b+1] = pref[b] + h[b]
	}
	rangeCount := func(loExcl, hiIncl int) int64 { // buckets in (loExcl, hiIncl]
		return pref[hiIncl+1] - pref[loExcl+1]
	}

	best := int64(math.MaxInt64)
	var bestW []uint8
	lastBest := int64(math.MaxInt64)
	for d := 1; d <= cfg.maxClasses && d <= len(support); d++ {
		// Choose d-1 boundaries from support[:len-1]; the last boundary
		// is always maxBits.
		free := support[:len(support)-1]
		comb := make([]int, d)
		comb[d-1] = maxBits
		var rec func(start, slot int)
		rec = func(start, slot int) {
			if slot == d-1 {
				cost := costOf(comb, rangeCount)
				if cost < best {
					best = cost
					bestW = boundariesToWidths(comb)
				}
				return
			}
			for i := start; i <= len(free)-(d-1-slot); i++ {
				comb[slot] = free[i]
				rec(i+1, slot+1)
			}
		}
		rec(0, 0)
		if lastBest != math.MaxInt64 && best > 0 {
			if float64(lastBest-best)/float64(best) < cfg.epsilon {
				break // Algorithm 1 line 10–11: converged
			}
		}
		lastBest = best
	}
	if bestW == nil {
		return nil, fmt.Errorf("core: tuning failed (empty support)")
	}
	return bestW, nil
}

// costOf evaluates the total encoded bits for a boundary tuple under
// frequency-ranked unary guide codes.
func costOf(bounds []int, rangeCount func(loExcl, hiIncl int) int64) int64 {
	d := len(bounds)
	type classInfo struct {
		width int
		count int64
	}
	// tune calls this once per boundary tuple, with d ≤ MaxWidthClasses.
	var classes [MaxWidthClasses]classInfo
	var order [MaxWidthClasses]int
	lo := -1
	for i, x := range bounds {
		classes[i] = classInfo{width: x, count: rangeCount(lo, x)}
		order[i] = i
		lo = x
	}
	// Rank classes by count descending to assign code lengths 1..d
	// (insertion sort).
	for i := 1; i < d; i++ {
		for j := i; j > 0 && classes[order[j]].count > classes[order[j-1]].count; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	var total int64
	for rank, idx := range order[:d] {
		c := classes[idx]
		total += c.count * int64(c.width+rank+1)
	}
	return total
}

// boundariesToWidths converts ascending partition boundaries to widths.
func boundariesToWidths(bounds []int) []uint8 {
	out := make([]uint8, len(bounds))
	for i, b := range bounds {
		out[i] = uint8(b)
	}
	return out
}

// tuneTable runs Algorithm 1 and ranks the resulting widths by class
// frequency so that NewAssociationTable assigns the shortest codes to the
// most common widths.
func tuneTable(h *Histogram, cfg tuneConfig) (*AssociationTable, error) {
	widths, err := tune(h, cfg)
	if err != nil {
		return nil, err
	}
	// Rank widths by the number of values that will use each class
	// under contiguous partition.
	type wc struct {
		w     uint8
		count int64
	}
	wcs := make([]wc, len(widths))
	// widths from tune are ascending boundaries.
	lo := -1
	for i, w := range widths {
		var c int64
		for b := lo + 1; b <= int(w); b++ {
			c += h[b]
		}
		wcs[i] = wc{w: w, count: c}
		lo = int(w)
	}
	for i := 1; i < len(wcs); i++ {
		for j := i; j > 0 && wcs[j].count > wcs[j-1].count; j-- {
			wcs[j], wcs[j-1] = wcs[j-1], wcs[j]
		}
	}
	ranked := make([]uint8, len(wcs))
	for i, e := range wcs {
		ranked[i] = e.w
	}
	return NewAssociationTable(ranked)
}
