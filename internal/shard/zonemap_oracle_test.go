package shard

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sage/internal/fastq"
	"sage/internal/genome"
)

// sketchAdd and oracleZoneMap are ComputeZoneMap as it was before its
// passes were fused — a record's bases walked by GCFraction and by
// forEachCanonicalKmer through a closure, its scores by AvgPhred,
// ExpectedError and a min loop — kept as the reference the fused pass
// must equal.
func sketchAdd(sketch []byte, seq []byte) {
	nbits := uint64(len(sketch)) * 8
	if nbits == 0 {
		return
	}
	forEachCanonicalKmer(seq, func(code uint64) {
		bit := mix64(code) % nbits
		sketch[bit>>3] |= 1 << (bit & 7)
	})
}

func oracleZoneMap(recs []fastq.Record, sketchBytes int, withQuality bool) ZoneMap {
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
		if n := len(r.Seq); n < minLen {
			minLen = n
		}
		if n := len(r.Seq); n > maxLen {
			maxLen = n
		}
		gc := fastq.GCFraction(r.Seq, genome.BaseC, genome.BaseG)
		if gc < minGC {
			minGC = gc
		}
		if gc > maxGC {
			maxGC = gc
		}
		sketchAdd(z.Sketch, r.Seq)
		if !withQuality {
			continue
		}
		avg, ok := fastq.AvgPhred(r.Qual, 0)
		if !ok || len(r.Seq) == 0 { // an empty read carries no scores
			continue
		}
		z.QualReads++
		avgSum += avg
		if avg < LowQualPhred {
			z.LowQualReads++
		}
		if avg < minAvg {
			minAvg = avg
		}
		if avg > maxAvg {
			maxAvg = avg
		}
		ee, _ := fastq.ExpectedError(r.Qual, 0)
		if ee < minEE {
			minEE = ee
		}
		if ee > maxEE {
			maxEE = ee
		}
		for _, q := range r.Qual {
			if int(q) < minPhred {
				minPhred = int(q)
			}
		}
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

// The fused pass equals the per-record formulation in every field and
// every sketch byte: over simulated short reads and over random shards
// that mix empty reads, reads shorter than a k-mer, runs of N, unscored
// records, empty score strings and scores beyond the FASTQ alphabet;
// with quality on and off; at sketch sizes that are off, a power of two
// (64, 2048: the mask) and not one (768: the division).
func TestZoneMapMatchesPerRecordOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	short, _ := testSet(t, 256)
	shards := [][]fastq.Record{nil, {}, short.Records, short.Records[:96], {{}}, {rec("")}, {rec("ACGTNACGTNN", 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)}, {{Qual: []byte{30}}}}
	for len(shards) < 300 {
		recs := make([]fastq.Record, rng.Intn(12))
		for i := range recs {
			n := []int{0, 1, SketchK - 1, SketchK, SketchK + 1, 40, 150, 700}[rng.Intn(8)]
			seq := make([]byte, n)
			for j := 0; j < n; j++ {
				switch {
				case rng.Intn(50) == 0: // a run of N
					for end := min(n, j+1+rng.Intn(15)); j < end; j++ {
						seq[j] = 4
					}
					j--
				default:
					seq[j] = byte(rng.Intn(4))
				}
			}
			recs[i].Seq = seq
			switch rng.Intn(6) {
			case 0: // unscored
			case 1:
				recs[i].Qual = []byte{}
			default:
				recs[i].Qual = make([]byte, n)
				for j := range recs[i].Qual {
					recs[i].Qual[j] = byte(rng.Intn(fastq.MaxQuality + 1))
				}
				if n > 0 && rng.Intn(10) == 0 {
					recs[i].Qual[rng.Intn(n)] = 200
				}
			}
		}
		shards = append(shards, recs)
	}
	for s, recs := range shards {
		for _, sketchBytes := range []int{0, 64, 768, 2048} {
			for _, withQuality := range []bool{true, false} {
				got := ComputeZoneMap(recs, sketchBytes, withQuality)
				want := oracleZoneMap(recs, sketchBytes, withQuality)
				if !reflect.DeepEqual(got, want) {
					sameSketch := bytes.Equal(got.Sketch, want.Sketch)
					got.Sketch, want.Sketch = nil, nil
					t.Fatalf("shard %d (%d records), %d sketch bytes, quality %v: sketches equal: %v, and without them\n got %+v\nwant %+v",
						s, len(recs), sketchBytes, withQuality, sameSketch, got, want)
				}
			}
		}
	}
}
