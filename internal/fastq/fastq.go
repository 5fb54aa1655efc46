// Package fastq implements the FASTQ read-set substrate: the most common
// format for unmapped sequencing reads (§2.1 of the SAGe paper; as of 2025,
// 75.9% of publicly deposited whole-genome read sets are FASTQ).
//
// A FASTQ record is four lines: a header ('@'-prefixed), the DNA bases,
// a '+' separator, and one quality-score character per base (Phred+33).
// SAGe treats a file of records as a read set: an unordered multiset whose
// reads may be reordered during compression as long as bases, qualities,
// and headers stay associated (§5.1.3, §5.1.5).
//
// Three layers of reading are provided:
//
//   - Scanner / Parse: one record (or a whole file) at a time.
//   - BatchReader: a single stream grouped into fixed-size Batches, the
//     shard-sized work units of the parallel compression pipeline.
//   - MultiReader: many input files — lane splits, or interleaved R1/R2
//     paired-end mates with mate-name validation — batched so that no
//     batch spans two sources (the substrate of file-aware sharding,
//     see internal/shard.CompressPipeline).
package fastq

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"

	"sage/internal/genome"
)

// QualityOffset is the Phred+33 ASCII offset used by modern instruments.
const QualityOffset = 33

// MaxQuality is the largest Phred score we model (ASCII '~' - 33 = 93,
// but instruments emit ≤ 45; we keep the codec alphabet tight).
const MaxQuality = 63

// Record is one sequencing read.
type Record struct {
	// Header is the read name without the leading '@'.
	Header string
	// Seq holds the base codes (genome.BaseA..BaseN).
	Seq genome.Seq
	// Qual holds Phred scores (not ASCII), one per base. A nil Qual
	// means qualities were discarded (§5.1.5: optional).
	Qual []byte
}

// Validate checks internal consistency.
func (r *Record) Validate() error {
	if r.Qual != nil && len(r.Qual) != len(r.Seq) {
		return fmt.Errorf("fastq: record %q: %d bases but %d quality scores",
			r.Header, len(r.Seq), len(r.Qual))
	}
	for i, q := range r.Qual {
		if q > MaxQuality {
			return fmt.Errorf("fastq: record %q: quality %d at %d exceeds %d",
				r.Header, q, i, MaxQuality)
		}
	}
	return nil
}

// ReadSet is a collection of records plus bookkeeping that the
// compression experiments need.
type ReadSet struct {
	Records []Record
}

// TotalBases sums the read lengths.
func (rs *ReadSet) TotalBases() int {
	n := 0
	for i := range rs.Records {
		n += len(rs.Records[i].Seq)
	}
	return n
}

// UncompressedSize returns the serialized FASTQ byte size (the
// denominator of the paper's compression ratios, Table 2).
func (rs *ReadSet) UncompressedSize() int {
	n := 0
	for i := range rs.Records {
		r := &rs.Records[i]
		n += 1 + len(r.Header) + 1 // @header\n
		n += len(r.Seq) + 1        // bases\n
		n += 2                     // +\n
		if r.Qual != nil {
			n += len(r.Qual)
		}
		n++ // \n
	}
	return n
}

// AppendText appends the record's four FASTQ lines to buf and returns
// the extended slice. Callers that stream record by record (the
// original-order restore path) reuse one buffer across calls, the same
// O(1)-allocation discipline as ReadSet.Write.
func (r *Record) AppendText(buf []byte) []byte {
	buf = append(buf, '@')
	buf = append(buf, r.Header...)
	buf = append(buf, '\n')
	buf = genome.AppendASCII(buf, r.Seq)
	buf = append(buf, '\n', '+', '\n')
	for _, p := range r.Qual {
		buf = append(buf, p+QualityOffset)
	}
	return append(buf, '\n')
}

// Write serializes the read set as FASTQ text. One line buffer is
// reused across records, so serialization allocates O(1) regardless of
// read count.
func (rs *ReadSet) Write(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var line []byte
	for i := range rs.Records {
		r := &rs.Records[i]
		if err := r.Validate(); err != nil {
			return err
		}
		line = r.AppendText(line[:0])
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Bytes serializes the read set to a byte slice.
func (rs *ReadSet) Bytes() []byte {
	var buf bytes.Buffer
	buf.Grow(rs.UncompressedSize())
	if err := rs.Write(&buf); err != nil {
		// Write to a bytes.Buffer only fails on invalid records.
		panic(err)
	}
	return buf.Bytes()
}

// Parse reads FASTQ text into a ReadSet. It is a convenience loop over
// Scanner; use Scanner or BatchReader directly to stream large files.
func Parse(r io.Reader) (*ReadSet, error) {
	sc := NewScanner(r)
	rs := &ReadSet{}
	for {
		rec, err := sc.Next()
		if err == io.EOF {
			return rs, nil
		}
		if err != nil {
			return nil, err
		}
		rs.Records = append(rs.Records, rec)
	}
}

// Equivalent reports whether two read sets contain the same multiset of
// (sequence, quality, header) records, ignoring order. SAGe (like Spring)
// reorders reads during compression (§5.1.3), so losslessness is defined
// at the set level.
func Equivalent(a, b *ReadSet) bool {
	if len(a.Records) != len(b.Records) {
		return false
	}
	ka := recordKeys(a)
	kb := recordKeys(b)
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

func recordKeys(rs *ReadSet) []string {
	keys := make([]string, len(rs.Records))
	for i := range rs.Records {
		r := &rs.Records[i]
		keys[i] = r.Seq.String() + "\x00" + string(r.Qual) + "\x00" + r.Header
	}
	sort.Strings(keys)
	return keys
}

// Batch groups records for pipelined processing (§3.1: I/O, decompression
// and analysis operate on batches in a pipelined manner).
type Batch struct {
	// Index is the batch's global sequence number.
	Index int
	// Source is the index of the ingest source the records came from
	// (see MultiReader.Sources); 0 for single-source readers.
	Source  int
	Records []Record
}

// Batches splits the read set into batches of at most size records.
func (rs *ReadSet) Batches(size int) []Batch {
	if size <= 0 {
		size = 1
	}
	var out []Batch
	for i := 0; i < len(rs.Records); i += size {
		end := i + size
		if end > len(rs.Records) {
			end = len(rs.Records)
		}
		out = append(out, Batch{Index: len(out), Records: rs.Records[i:end]})
	}
	return out
}
