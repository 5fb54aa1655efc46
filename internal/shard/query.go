package shard

import (
	"bytes"
	"fmt"
	"io"
	"strings"

	"sage/internal/fastq"
	"sage/internal/freelist"
	"sage/internal/genome"
)

// Compressed-domain query push-down. A Predicate describes which
// records a client wants; QueryPlan consults the v4 zone maps to split
// the index into shards that must be scanned and shards that provably
// cannot match (pruned — zero block I/O), and Filter streams the
// matching records of the surviving shards. The same predicate drives
// the serve /query endpoint, `sage filter`, and the in-storage
// scan-unit model (internal/instorage.FilterScan).

// Predicate selects records. The zero value of every field means "no
// constraint"; a zero Predicate matches everything and prunes nothing.
type Predicate struct {
	// MinAvgPhred requires a record's mean Phred score to be at least
	// this value. Unscored records never match.
	MinAvgPhred float64
	// MaxEE caps a record's expected error count (sum of per-base error
	// probabilities). Unscored records never match.
	MaxEE float64
	// MinLen and MaxLen bound the record length in bases.
	MinLen, MaxLen int
	// MinGC and MaxGC bound the record's GC fraction in [0,1].
	MinGC, MaxGC float64
	// Subseq requires the record to contain this subsequence, in either
	// orientation (forward or reverse complement).
	Subseq genome.Seq
}

// Active reports whether any constraint is set.
func (p *Predicate) Active() bool {
	return p.MinAvgPhred > 0 || p.MaxEE > 0 || p.MinLen > 0 || p.MaxLen > 0 ||
		p.MinGC > 0 || p.MaxGC > 0 || len(p.Subseq) > 0
}

// String renders the predicate for logs and bench tables.
func (p *Predicate) String() string {
	var parts []string
	if p.MinAvgPhred > 0 {
		parts = append(parts, fmt.Sprintf("min-avgphred=%g", p.MinAvgPhred))
	}
	if p.MaxEE > 0 {
		parts = append(parts, fmt.Sprintf("max-ee=%g", p.MaxEE))
	}
	if p.MinLen > 0 {
		parts = append(parts, fmt.Sprintf("min-len=%d", p.MinLen))
	}
	if p.MaxLen > 0 {
		parts = append(parts, fmt.Sprintf("max-len=%d", p.MaxLen))
	}
	if p.MinGC > 0 {
		parts = append(parts, fmt.Sprintf("min-gc=%g", p.MinGC))
	}
	if p.MaxGC > 0 {
		parts = append(parts, fmt.Sprintf("max-gc=%g", p.MaxGC))
	}
	if len(p.Subseq) > 0 {
		parts = append(parts, fmt.Sprintf("kmer=%s", p.Subseq.String()))
	}
	if len(parts) == 0 {
		return "all"
	}
	return strings.Join(parts, " ")
}

// MatchRecord reports whether one record satisfies the predicate. This
// is the record-level ground truth that zone-map pruning conservatively
// approximates: PruneShard may only return true for a shard in which no
// record passes MatchRecord. The read paths match text (MatchText);
// MatchRecord, over records decoded apart from the text, is the oracle
// their tests hold them to.
func (p *Predicate) MatchRecord(r *fastq.Record) bool {
	return p.matchRead(r.Seq, r.Qual, 0, genome.BaseC, genome.BaseG, p.Subseq, p.Subseq.ReverseComplement())
}

// MatchText is MatchRecord over a shard's text, FASTQ as the decoder
// renders it (AppendFASTQ): it calls match with the bytes of each
// matching record, in order, and returns the number of records walked.
// match may overwrite text up to the end of the record it is handed,
// never past it (Filter compacts the matches in place).
func (p *Predicate) MatchText(text []byte, match func(rec []byte) error) (int, error) {
	fwd := genome.AppendASCII(nil, p.Subseq) // once per call
	rev := genome.AppendASCII(nil, p.Subseq.ReverseComplement())
	n := 0
	for len(text) > 0 {
		r, rest, err := fastq.NextRecord(text)
		if err != nil {
			return n, err
		}
		n, text = n+1, rest
		if p.matchRead(r.Seq, r.Qual, fastq.QualityOffset, 'C', 'G', fwd, rev) {
			if err := match(r.Bytes); err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

// matchRead is the one definition of what p selects, for a read in
// either shape: bases seq in an alphabet whose C and G are c and g,
// scores qual stored offset above their Phred values (none when
// unscored), and Subseq and its reverse complement in seq's alphabet.
func (p *Predicate) matchRead(seq, qual []byte, offset, c, g byte, fwd, rev []byte) bool {
	if len(seq) == 0 {
		qual = nil // an empty read carries no scores to average
	}
	if p.MinLen > 0 && len(seq) < p.MinLen || p.MaxLen > 0 && len(seq) > p.MaxLen {
		return false
	}
	if p.MinAvgPhred > 0 {
		if avg, ok := fastq.AvgPhred(qual, offset); !ok || avg < p.MinAvgPhred {
			return false
		}
	}
	if p.MaxEE > 0 {
		if ee, ok := fastq.ExpectedError(qual, offset); !ok || ee > p.MaxEE {
			return false
		}
	}
	if p.MinGC > 0 || p.MaxGC > 0 {
		gc := fastq.GCFraction(seq, c, g)
		if p.MinGC > 0 && gc < p.MinGC || p.MaxGC > 0 && gc > p.MaxGC {
			return false
		}
	}
	return len(fwd) == 0 || bytes.Contains(seq, fwd) || bytes.Contains(seq, rev)
}

// PruneShard reports whether the shard described by e provably contains
// no matching record, judged from its zone map alone. A zero zone map
// (legacy index re-marshaled into v4, or statistics otherwise unknown)
// never prunes — except for the trivially empty shard.
func (p *Predicate) PruneShard(e *Entry) bool {
	if e.ReadCount == 0 {
		return true
	}
	z := &e.Zone
	if z.MaxLen == 0 {
		// Unknown statistics (or a shard of base-less records, which we
		// conservatively scan).
		return false
	}
	if p.MinLen > 0 && z.MaxLen < p.MinLen {
		return true
	}
	if p.MaxLen > 0 && z.MinLen > p.MaxLen {
		return true
	}
	if p.MinAvgPhred > 0 {
		// No scored record can prove a quality bound; a shard without
		// scores cannot match.
		if z.QualReads == 0 || float64(z.MaxAvgPhredMilli) < p.MinAvgPhred*1000 {
			return true
		}
	}
	if p.MaxEE > 0 {
		if z.QualReads == 0 || float64(z.MinEEMilli) > p.MaxEE*1000 {
			return true
		}
	}
	if p.MinGC > 0 && float64(z.MaxGCMilli) < p.MinGC*1000 {
		return true
	}
	if p.MaxGC > 0 && float64(z.MinGCMilli) > p.MaxGC*1000 {
		return true
	}
	if n := len(p.Subseq); n > 0 {
		if z.MaxLen < n {
			return true
		}
		if n >= SketchK && !sketchMayContain(z.Sketch, p.Subseq) {
			return true
		}
	}
	return false
}

// QueryPlan splits the container's shards into the scan list (shards a
// record-level filter must decode) and the pruned count. Containers
// older than format v4 carry no zone maps, so every shard is scanned;
// pruned shards cost zero block I/O on every read path (Open or the
// in-storage engine).
func (c *Container) QueryPlan(p *Predicate) (scan []int, pruned int) {
	if !p.Active() || !c.HasZoneMaps() {
		return c.allShards(), 0
	}
	scan = make([]int, 0, c.NumShards())
	for i := range c.Index.Entries {
		if p.PruneShard(&c.Index.Entries[i]) {
			pruned++
		} else {
			scan = append(scan, i)
		}
	}
	return scan, pruned
}

// FilterStats reports what a Filter run pruned, scanned, and matched.
type FilterStats struct {
	ShardsTotal, ShardsPruned, ShardsScanned int
	ReadsScanned, ReadsMatched               int
}

// Filter streams the records matching p to w as FASTQ, consulting zone
// maps first: pruned shards are never read or decoded. Surviving
// shards decode on the same ordered pool as DecompressTo, up to
// workers goroutines and workers+1 shards resident: each worker renders
// its shard's text and compacts the matching records in place
// (MatchText), and the matches reach w one shard at a time, in order.
func (c *Container) Filter(w io.Writer, p *Predicate, workers int) (*FilterStats, error) {
	if p == nil {
		p = &Predicate{}
	}
	scan, pruned := c.QueryPlan(p)
	st := &FilterStats{
		ShardsTotal:   c.NumShards(),
		ShardsPruned:  pruned,
		ShardsScanned: len(scan),
	}
	for _, i := range scan {
		st.ReadsScanned += c.Index.Entries[i].ReadCount
	}
	type matches struct {
		text *[]byte
		n    int
	}
	err := stream(scan, workers, func(i int) (m matches, err error) {
		m.text = texts.Get()
		text, err := c.AppendFASTQ((*m.text)[:0], i)
		kept := text[:0]
		if err == nil {
			_, err = p.MatchText(text, func(rec []byte) error {
				kept = append(kept, rec...)
				m.n++
				return nil
			})
		}
		*m.text = kept
		return m, err
	}, func(m matches) error {
		st.ReadsMatched += m.n
		_, err := w.Write(*m.text)
		freelist.PutBuf(texts, m.text)
		return err
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}
