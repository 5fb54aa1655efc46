package shard

import (
	"bytes"
	"math/rand"
	"testing"

	"sage/internal/fastq"
	"sage/internal/genome"
)

// Property test for the compressed-domain filter: for ANY predicate,
// Filter over the container must produce exactly the records (and
// bytes) of decompress-then-filter. This is the soundness contract of
// zone-map pruning — PruneShard may only skip shards no record of
// which matches — checked over randomized predicates drawn from the
// data itself, so thresholds land on and around real values where
// off-by-one pruning bugs live.

// bruteFilter is the reference implementation: full decompress, then a
// sequential record-level scan.
func bruteFilter(rs *fastq.ReadSet, p *Predicate) ([]byte, int) {
	keep := &fastq.ReadSet{}
	for i := range rs.Records {
		if p.MatchRecord(&rs.Records[i]) {
			keep.Records = append(keep.Records, rs.Records[i])
		}
	}
	return keep.Bytes(), len(keep.Records)
}

// randomPredicates derives predicates from the decoded records so every
// field is exercised at, below, and above values that actually occur.
func randomPredicates(rng *rand.Rand, rs *fastq.ReadSet) []Predicate {
	pick := func() *fastq.Record {
		return &rs.Records[rng.Intn(len(rs.Records))]
	}
	var preds []Predicate
	// The empty predicate: no pruning, everything matches.
	preds = append(preds, Predicate{})
	for i := 0; i < 8; i++ {
		r := pick()
		var p Predicate
		switch i % 4 {
		case 0: // length bounds straddling a real length
			p.MinLen = len(r.Seq) - rng.Intn(3)
			p.MaxLen = len(r.Seq) + rng.Intn(3)
		case 1: // quality thresholds around a real record's scores
			if avg, ok := fastq.AvgPhred(r.Qual, 0); ok {
				p.MinAvgPhred = avg + float64(rng.Intn(5)-2)
			}
			if ee, ok := fastq.ExpectedError(r.Qual, 0); ok && rng.Intn(2) == 0 {
				p.MaxEE = ee * (0.5 + rng.Float64())
			}
		case 2: // GC window around a real record's fraction
			gc := fastq.GCFraction(r.Seq, genome.BaseC, genome.BaseG)
			p.MinGC = gc - 0.05*rng.Float64()
			p.MaxGC = gc + 0.05*rng.Float64()
		case 3: // k-mer present in the data (either orientation)
			k := SketchK + rng.Intn(8)
			if len(r.Seq) > k {
				at := rng.Intn(len(r.Seq) - k)
				p.Subseq = r.Seq[at : at+k].Clone()
				if rng.Intn(2) == 0 {
					p.Subseq = p.Subseq.ReverseComplement()
				}
			}
		}
		preds = append(preds, p)
	}
	// A k-mer almost certainly absent from the data: every shard should
	// still produce the (empty) brute-force answer.
	preds = append(preds, Predicate{Subseq: genome.Random(rng, SketchK+5)})
	// Everything at once.
	r := pick()
	combo := Predicate{MinLen: 1, MaxLen: 1 << 20, MinGC: 0.01, MaxGC: 0.99}
	if avg, ok := fastq.AvgPhred(r.Qual, 0); ok {
		combo.MinAvgPhred = avg - 5
	}
	preds = append(preds, combo)
	return preds
}

// checkFilterAgainstBruteForce runs every predicate against one parsed
// container and its fully decoded records.
func checkFilterAgainstBruteForce(t *testing.T, c *Container, rng *rand.Rand) {
	t.Helper()
	var full bytes.Buffer
	if err := c.DecompressTo(&full, nil, 2); err != nil {
		t.Fatal(err)
	}
	rs, err := fastq.Parse(bytes.NewReader(full.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range randomPredicates(rng, rs) {
		p := p
		want, wantN := bruteFilter(rs, &p)
		var got bytes.Buffer
		st, err := c.Filter(&got, &p, 3)
		if err != nil {
			t.Fatalf("predicate %q: %v", p.String(), err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("predicate %q: filter output differs from decompress-then-filter (%d vs %d bytes)",
				p.String(), got.Len(), len(want))
		}
		if st.ReadsMatched != wantN {
			t.Errorf("predicate %q: ReadsMatched=%d, brute force matched %d", p.String(), st.ReadsMatched, wantN)
		}
		if st.ShardsPruned+st.ShardsScanned != st.ShardsTotal {
			t.Errorf("predicate %q: pruned %d + scanned %d != total %d",
				p.String(), st.ShardsPruned, st.ShardsScanned, st.ShardsTotal)
		}
	}
}

func TestFilterMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	rs, ref := testSet(t, 600)
	opt := DefaultOptions(ref)
	opt.ShardReads = 64 // ~10 shards: several zone maps to prune or scan
	data, _, err := Compress(rs, opt)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	checkFilterAgainstBruteForce(t, c, rng)
}

// TestFilterMatchesBruteForceLegacy runs the same property over every
// golden container. v1–v3 predate zone maps, so their re-marshaled
// entries carry all-zero zones: nothing may be pruned incorrectly (the
// zero zone map must read as "unknown, scan me"), and v4's real zone
// maps must prune without changing the answer.
func TestFilterMatchesBruteForceLegacy(t *testing.T) {
	for _, file := range []string{"golden_v1.sage", "golden_v2.sage", "golden_v3.sage", "golden_v4.sage"} {
		t.Run(file, func(t *testing.T) {
			c, err := Parse(readTestdata(t, file))
			if err != nil {
				t.Fatal(err)
			}
			checkFilterAgainstBruteForce(t, c, rand.New(rand.NewSource(5)))
		})
	}
}
