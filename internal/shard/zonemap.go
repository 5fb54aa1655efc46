package shard

import (
	"math"
	"math/bits"

	"sage/internal/fastq"
	"sage/internal/genome"
)

// Zone maps: per-shard summary statistics computed at compress time and
// stored in the container index (format v4+). A query consults them
// before any block I/O — a shard whose zone map proves no record can
// match is pruned without reading a single block byte, extending the
// paper's decode push-down to query push-down (GRAINS-style
// storage-aware filtering). All statistics are conservative: rounding
// always widens the [min,max] envelope, so pruning can produce false
// scans but never false drops.

// SketchK is the k-mer length of the zone-map sketch. 11 keeps the
// 2-bit rolling codes in a u64 with room to spare while staying long
// enough that a probe of a few dozen bases carries several independent
// k-mers.
const SketchK = 11

// LowQualPhred is the mean-Phred threshold below which a read counts as
// low-quality in ZoneMap.LowQualReads (the conventional Q15 cutoff,
// ~3% expected error per base).
const LowQualPhred = 15

// Auto-sizing of the per-shard k-mer sketch: 8 bytes (64 bits) per
// read keeps the bitset's fill factor moderate for typical short-read
// lengths (~100 k-mers per read → ~60–75% fill), which keeps the
// false-positive rate of a multi-k-mer probe small while costing
// around a tenth of a compressed shard. The clamp keeps degenerate
// shard sizes from producing useless or monstrous sketches; an
// explicit Options.SketchBytes overrides the heuristic entirely.
const (
	SketchBytesPerRead = 8
	MinSketchBytes     = 64
	MaxAutoSketchBytes = 1 << 16
)

// ZoneMap summarizes one shard's records. Fixed-point fields use
// milli-units (value × 1000) so the wire stays integer varints; min
// fields are rounded down and max fields up, keeping the envelope
// conservative. The zero ZoneMap (in particular MaxLen == 0 alongside
// a non-zero read count) means "statistics unknown" — predicates never
// prune on it.
type ZoneMap struct {
	// MinLen and MaxLen bound the read lengths, over every record.
	MinLen, MaxLen int
	// QualReads counts the scored, non-empty records — the population
	// of the Phred and expected-error statistics below. Records without
	// scores can never satisfy a quality predicate, so a shard with
	// QualReads == 0 is prunable by one.
	QualReads int
	// LowQualReads counts scored records with mean Phred < LowQualPhred.
	LowQualReads int
	// MinPhred is the lowest single Phred score in the shard.
	MinPhred int
	// AvgPhredMilli is the shard-wide mean of per-record mean Phred
	// (informational; pruning uses the min/max envelope).
	AvgPhredMilli int
	// MinAvgPhredMilli and MaxAvgPhredMilli bound per-record mean Phred.
	MinAvgPhredMilli, MaxAvgPhredMilli int
	// MinEEMilli and MaxEEMilli bound per-record expected error counts.
	MinEEMilli, MaxEEMilli int
	// MinGCMilli and MaxGCMilli bound per-record GC fractions, over
	// every record (a base-less record contributes 0).
	MinGCMilli, MaxGCMilli int
	// Sketch is a bitset over the canonical k-mers (SketchK) of every
	// record: bit h(kmer) mod bits is set for each k-mer window free of
	// N. Empty when the writer disabled sketching.
	Sketch []byte
}

// SketchFill returns the fraction of set sketch bits, the saturation
// measure that bounds the sketch's pruning power (a full sketch prunes
// nothing).
func (z *ZoneMap) SketchFill() float64 {
	if len(z.Sketch) == 0 {
		return 0
	}
	set := 0
	for _, b := range z.Sketch {
		set += bits.OnesCount8(b)
	}
	return float64(set) / float64(len(z.Sketch)*8)
}

// mix64 is the splitmix64 finalizer, scattering the 2-bit-packed
// canonical k-mer codes across the sketch.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// forEachCanonicalKmer walks seq's k-mer windows with a rolling 2-bit
// code, skipping windows that contain an N (or any non-ACGT code), and
// yields the canonical code min(forward, reverse-complement) of each —
// orientation-invariant, so a reverse-complemented probe hits the same
// bits.
func forEachCanonicalKmer(seq []byte, fn func(code uint64)) {
	const shift = 2 * (SketchK - 1)
	mask := (uint64(1) << (2 * SketchK)) - 1
	var fwd, rc uint64
	run := 0
	for _, b := range seq {
		if b > 3 {
			run, fwd, rc = 0, 0, 0
			continue
		}
		fwd = ((fwd << 2) | uint64(b)) & mask
		rc = (rc >> 2) | (uint64(3-b) << shift)
		run++
		if run >= SketchK {
			if rc < fwd {
				fn(rc)
			} else {
				fn(fwd)
			}
		}
	}
}

// sketchMayContain reports whether every checkable canonical k-mer of
// probe is present in the sketch. It returns true (cannot rule out)
// when the probe yields no k-mers — too short, or every window holds
// an N.
func sketchMayContain(sketch []byte, probe []byte) bool {
	nbits := uint64(len(sketch)) * 8
	if nbits == 0 {
		return true
	}
	may := true
	forEachCanonicalKmer(probe, func(code uint64) {
		bit := mix64(code) % nbits
		if sketch[bit>>3]&(1<<(bit&7)) == 0 {
			may = false
		}
	})
	return may
}

// isGC marks the base codes GCFraction counts.
var isGC = [256]uint8{genome.BaseC: 1, genome.BaseG: 1}

// sketchAndCountGC is ComputeZoneMap's one pass over a record's bases:
// it sets the sketch bit of every canonical k-mer of seq — the bit
// sketchMayContain tests, mix64(code) % nbits, by mask when nbits is a
// power of two — and returns the number of G and C bases. The walk is
// forEachCanonicalKmer's; the smaller of the two codes is picked without
// a branch, which would mispredict on every other k-mer.
func sketchAndCountGC(sketch []byte, seq []byte) (gc int) {
	const shift = 2 * (SketchK - 1)
	const mask = 1<<(2*SketchK) - 1
	nbits := uint64(len(sketch)) * 8
	pow2 := nbits&(nbits-1) == 0
	var fwd, rc uint64
	run := 0
	for _, b := range seq {
		gc += int(isGC[b])
		if b > 3 {
			run = 0
			continue
		}
		fwd = (fwd<<2 | uint64(b)) & mask
		rc = rc>>2 | uint64(3-b)<<shift
		if run++; run < SketchK || nbits == 0 {
			continue
		}
		_, less := bits.Sub64(rc, fwd, 0)
		bit := mix64(fwd ^ (fwd^rc)&-less)
		if pow2 {
			bit &= nbits - 1
		} else {
			bit %= nbits
		}
		sketch[bit>>3] |= 1 << (bit & 7)
	}
	return gc
}

// ComputeZoneMap summarizes recs into a zone map with a sketchBytes-
// byte k-mer sketch (0 disables sketching). withQuality gates the
// Phred/EE statistics: a writer that discards quality scores
// (Core.IncludeQuality off) must report QualReads == 0, because the
// decoded records will carry no scores for a record-level filter to
// verify against.
//
// A record's bases are read once (sketchAndCountGC) and its scores once,
// summed in the order fastq's AvgPhred and ExpectedError sum them, so the
// statistics are theirs to the last bit.
func ComputeZoneMap(recs []fastq.Record, sketchBytes int, withQuality bool) ZoneMap {
	z := ZoneMap{}
	if sketchBytes > 0 {
		z.Sketch = make([]byte, sketchBytes)
	}
	if len(recs) == 0 {
		return z
	}
	minLen, maxLen := math.MaxInt, 0
	minGC, maxGC := 1.0, 0.0
	minPhred := math.MaxInt
	minAvg, maxAvg := math.Inf(1), math.Inf(-1)
	minEE, maxEE := math.Inf(1), math.Inf(-1)
	avgSum := 0.0
	for i := range recs {
		r := &recs[i]
		n := len(r.Seq)
		minLen, maxLen = min(minLen, n), max(maxLen, n)
		gc := 0.0
		if n > 0 {
			gc = float64(sketchAndCountGC(z.Sketch, r.Seq)) / float64(n)
		}
		minGC, maxGC = min(minGC, gc), max(maxGC, gc)
		if !withQuality || r.Qual == nil || n == 0 || len(r.Qual) == 0 {
			continue
		}
		sum, ee := 0, 0.0
		for _, q := range r.Qual {
			sum += int(q)
			ee += fastq.ErrorProb(q)
			minPhred = min(minPhred, int(q))
		}
		avg := float64(sum) / float64(len(r.Qual))
		z.QualReads++
		avgSum += avg
		if avg < LowQualPhred {
			z.LowQualReads++
		}
		minAvg, maxAvg = min(minAvg, avg), max(maxAvg, avg)
		minEE, maxEE = min(minEE, ee), max(maxEE, ee)
	}
	z.MinLen, z.MaxLen = minLen, maxLen
	z.MinGCMilli = int(math.Floor(minGC * 1000))
	z.MaxGCMilli = int(math.Ceil(maxGC * 1000))
	if z.QualReads > 0 {
		z.MinPhred = minPhred
		z.AvgPhredMilli = int(math.Round(avgSum / float64(z.QualReads) * 1000))
		z.MinAvgPhredMilli = int(math.Floor(minAvg * 1000))
		z.MaxAvgPhredMilli = int(math.Ceil(maxAvg * 1000))
		z.MinEEMilli = int(math.Floor(minEE * 1000))
		z.MaxEEMilli = int(math.Ceil(maxEE * 1000))
	}
	return z
}
