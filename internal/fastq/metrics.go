package fastq

import "math"

// Per-read quality and composition metrics. These feed the zone-map
// summary statistics internal/shard computes at compress time (format
// v4) and the record-level predicate evaluation of query push-down: the
// same definitions must hold on both sides, or a pruned shard could
// have contained a matching read. The metric suite follows the
// FASTQ-filtering conventions popularized by phredsort: mean Phred is
// the arithmetic mean of the scores, and the expected error is the sum
// of per-base error probabilities 10^(-q/10). Each takes a read in
// either shape: its scores stored offset above their Phred values (0 in
// a Record, QualityOffset in FASTQ text), none when unscored (§5.1.5:
// qualities are optional), and its bases in an alphabet whose C and G
// are c and g (base codes in a Record, letters in text).

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

// AvgPhred returns the arithmetic mean of the Phred scores in qual;
// false when there are none.
func AvgPhred(qual []byte, offset byte) (float64, bool) {
	if len(qual) == 0 {
		return 0, false
	}
	sum := 0
	for _, q := range qual {
		sum += int(q - offset)
	}
	return float64(sum) / float64(len(qual)), true
}

// ExpectedError returns the expected number of base-call errors, the
// sum of 10^(-q/10) over the Phred scores in qual; false when there are
// none.
func ExpectedError(qual []byte, offset byte) (float64, bool) {
	if len(qual) == 0 {
		return 0, false
	}
	ee := 0.0
	for _, q := range qual {
		ee += ErrorProb(q - offset)
	}
	return ee, true
}

// GCFraction returns the fraction of the bases in seq that are c or g,
// counting every base (N dilutes the fraction the same way an A or T
// does); 0 for no bases.
func GCFraction(seq []byte, c, g byte) float64 {
	if len(seq) == 0 {
		return 0
	}
	n := 0
	for _, b := range seq {
		if b == c || b == g {
			n++
		}
	}
	return float64(n) / float64(len(seq))
}
