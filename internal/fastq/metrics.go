package fastq

import (
	"math"

	"sage/internal/genome"
)

// Per-record quality and composition metrics. These feed the zone-map
// summary statistics internal/shard computes at compress time (format
// v4) and the record-level predicate evaluation of query push-down: the
// same definitions must hold on both sides, or a pruned shard could
// have contained a matching read. The metric suite follows the
// FASTQ-filtering conventions popularized by phredsort: mean Phred is
// the arithmetic mean of the scores, and the expected error is the sum
// of per-base error probabilities 10^(-q/10).

// errProb[q] is the error probability of Phred score q.
var errProb [MaxQuality + 1]float64

func init() {
	for q := range errProb {
		errProb[q] = math.Pow(10, -float64(q)/10)
	}
}

// ErrorProb returns the error probability 10^(-q/10) of Phred score q.
func ErrorProb(q byte) float64 {
	if int(q) < len(errProb) {
		return errProb[q]
	}
	return math.Pow(10, -float64(q)/10)
}

// AvgPhred returns the arithmetic mean Phred score of the record. The
// second result is false for unscored records (nil Qual, §5.1.5:
// qualities are optional) and for empty reads, which carry no scores to
// average; such records never satisfy a quality predicate.
func (r *Record) AvgPhred() (float64, bool) {
	if r.Qual == nil || len(r.Seq) == 0 || len(r.Qual) == 0 {
		return 0, false
	}
	sum := 0
	for _, q := range r.Qual {
		sum += int(q)
	}
	return float64(sum) / float64(len(r.Qual)), true
}

// ExpectedError returns the read's expected number of base-call errors,
// the sum of 10^(-q/10) over its Phred scores. The second result is
// false for unscored or empty reads, mirroring AvgPhred.
func (r *Record) ExpectedError() (float64, bool) {
	if r.Qual == nil || len(r.Seq) == 0 || len(r.Qual) == 0 {
		return 0, false
	}
	ee := 0.0
	for _, q := range r.Qual {
		ee += ErrorProb(q)
	}
	return ee, true
}

// GCFraction returns the fraction of the read's bases that are G or C,
// counting every base (N and any non-ACGT code dilute the fraction the
// same way an A or T does). Reads with no bases report 0.
func (r *Record) GCFraction() float64 {
	if len(r.Seq) == 0 {
		return 0
	}
	gc := 0
	for _, b := range r.Seq {
		if b == genome.BaseC || b == genome.BaseG {
			gc++
		}
	}
	return float64(gc) / float64(len(r.Seq))
}
