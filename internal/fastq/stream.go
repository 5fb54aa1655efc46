package fastq

import (
	"bufio"
	"fmt"
	"io"

	"sage/internal/genome"
)

// Scanner reads FASTQ records one at a time from a stream, so callers can
// batch and pipeline reads without materializing the whole file (§3.1:
// I/O, decompression and analysis operate on batches in a pipelined
// manner). Parse is a thin loop over Scanner.
//
// The scanner has two faces. Next returns self-contained Records (each
// owning its memory). The unexported nextRaw returns zero-copy views into
// the scanner's line buffer — valid only until the following nextRaw
// call — which BatchReader and MultiReader convert into arena-backed
// records, so the per-record allocation cost of the scan loop is
// amortized across a whole batch.
type Scanner struct {
	sc   *bufio.Scanner
	line int
	// hbuf and sbuf stabilize the header and sequence lines of the
	// record being scanned: bufio.Scanner.Bytes views are invalidated by
	// the NEXT Scan call, and a record needs three more Scans after its
	// header line (the buffer shifts whenever a record straddles the
	// scanner's buffered window, silently rewriting any held view — a
	// corruption that only surfaces past the first ~1 MiB of a stream).
	// The quality line needs no copy: it is the record's last Scan.
	// Both buffers are reused across records, so the scan loop stays
	// allocation-free once they reach steady state.
	hbuf []byte
	sbuf []byte
}

// rawRecord is a fully validated record whose fields alias the scanner's
// internal buffer: header (without '@') and the ASCII sequence and
// quality lines. Views are invalidated by the next nextRaw call. qual is
// nil when the record carries no quality line content.
type rawRecord struct {
	header []byte
	seq    []byte
	qual   []byte
}

// NewScanner wraps r in a record-at-a-time FASTQ reader. Its line
// buffer starts at 64 KiB and grows to fit the longest line, up to
// 16 MiB, so a small input costs a small buffer.
func NewScanner(r io.Reader) *Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<24)
	return &Scanner{sc: sc}
}

// nextRaw scans and validates the next record without allocating. On
// success rr's fields view the scanner's buffer; every base and quality
// character has been validated, so conversion to a Record cannot fail.
// It returns io.EOF once the input is exhausted, and a descriptive error
// (with a line number) on malformed input.
func (s *Scanner) nextRaw(rr *rawRecord) error {
	var h []byte
	for {
		if !s.sc.Scan() {
			if err := s.sc.Err(); err != nil {
				return err
			}
			return io.EOF
		}
		s.line++
		h = s.sc.Bytes()
		if len(h) != 0 {
			break
		}
	}
	if h[0] != '@' {
		return s.scanErr(fmt.Errorf("fastq: line %d: expected '@', got %q", s.line, h))
	}
	s.hbuf = append(s.hbuf[:0], h[1:]...)
	rr.header = s.hbuf
	if !s.sc.Scan() {
		return s.scanErr(fmt.Errorf("fastq: line %d: truncated record (no sequence)", s.line))
	}
	s.line++
	seq := s.sc.Bytes()
	for i := 0; i < len(seq); i++ {
		if _, ok := genome.CharToBase(seq[i]); !ok {
			return s.scanErr(fmt.Errorf("fastq: line %d: genome: invalid base %q at %d", s.line, seq[i], i))
		}
	}
	s.sbuf = append(s.sbuf[:0], seq...)
	rr.seq = s.sbuf
	if !s.sc.Scan() {
		return s.scanErr(fmt.Errorf("fastq: line %d: truncated record (no separator)", s.line))
	}
	s.line++
	if sep := s.sc.Bytes(); len(sep) == 0 || sep[0] != '+' {
		return s.scanErr(fmt.Errorf("fastq: line %d: expected '+', got %q", s.line, sep))
	}
	if !s.sc.Scan() {
		return s.scanErr(fmt.Errorf("fastq: line %d: truncated record (no quality)", s.line))
	}
	s.line++
	qline := s.sc.Bytes()
	rr.qual = nil
	if len(qline) == 0 && len(seq) > 0 {
		// A present-but-empty quality line under a non-empty sequence is
		// how a file truncated mid-record (or corrupted in transit) most
		// often reads. Accepting it silently would turn scored reads into
		// unscored ones and poison every downstream quality statistic, so
		// it is an error; genuinely unscored reads belong in FASTA or in
		// Record structs with a nil Qual, not in FASTQ text.
		return s.scanErr(fmt.Errorf("fastq: line %d: empty quality line for a %d-base read (truncated input?)", s.line, len(seq)))
	}
	if len(qline) > 0 {
		if len(qline) != len(seq) {
			return s.scanErr(fmt.Errorf("fastq: line %d: %d quality chars for %d bases", s.line, len(qline), len(seq)))
		}
		for _, c := range qline {
			if c < QualityOffset || c-QualityOffset > MaxQuality {
				return s.scanErr(fmt.Errorf("fastq: line %d: quality char %q out of range", s.line, c))
			}
		}
		rr.qual = qline
	}
	return nil
}

// scanErr prefers the underlying reader's error over a scan-level one.
// When a decode stage fails mid-stream (a truncated or corrupt gzip
// member), bufio.Scanner still serves the lines buffered before the
// failure — the final window ends in arbitrarily cut text, and a
// message about that text ("3 quality chars for 4 bases") would mask
// the real failure and its file-and-offset context. bufio.Scanner
// records the read error the moment Read returns it, so it is already
// visible here even while buffered lines are still being served.
func (s *Scanner) scanErr(scan error) error {
	if err := s.sc.Err(); err != nil {
		return err
	}
	return scan
}

// convertInto decodes a validated rawRecord's sequence and quality into
// buf, which must have capacity for len(seq)+len(qual) bytes. It returns
// the base codes and Phred scores as sub-slices of buf.
func convertInto(buf []byte, rr *rawRecord) (genome.Seq, []byte) {
	buf = buf[:len(rr.seq)+len(rr.qual)]
	for i, c := range rr.seq {
		b, _ := genome.CharToBase(c)
		buf[i] = b
	}
	seq := genome.Seq(buf[:len(rr.seq):len(rr.seq)])
	var qual []byte
	if rr.qual != nil {
		qual = buf[len(rr.seq):]
		for i, c := range rr.qual {
			qual[i] = c - QualityOffset
		}
	}
	return seq, qual
}

// Next returns the next record. It returns io.EOF once the input is
// exhausted, and a descriptive error (with a line number) on malformed
// input. The record owns its memory: its sequence and quality share one
// backing allocation, and its header is a fresh string.
func (s *Scanner) Next() (Record, error) {
	var rr rawRecord
	if err := s.nextRaw(&rr); err != nil {
		return Record{}, err
	}
	seq, qual := convertInto(make([]byte, len(rr.seq)+len(rr.qual)), &rr)
	return Record{Header: string(rr.header), Seq: seq, Qual: qual}, nil
}

// arenaSlabBytes is the slab size batch arenas carve record buffers out
// of: large enough that a typical shard-sized batch of short reads costs
// a handful of slab allocations, small enough that a retained record
// does not pin an outsized slab.
const arenaSlabBytes = 256 << 10

// arena carves exact-size byte buffers out of shared slabs, so a batch
// of records costs O(slabs) allocations instead of O(records). Buffers
// are capacity-clipped: appending past a buffer's end reallocates rather
// than overrunning a neighbor.
type arena struct {
	slab []byte
}

func (a *arena) take(n int) []byte {
	if len(a.slab) < n {
		sz := arenaSlabBytes
		if sz < n {
			sz = n
		}
		a.slab = make([]byte, sz)
	}
	b := a.slab[:n:n]
	a.slab = a.slab[n:]
	return b
}

// batchBuilder accumulates one batch's records with shared backing
// memory: sequence and quality bytes come from an arena, and all header
// strings of a batch sub-slice one string allocation. The builder's
// scratch (header buffer, offsets) is reused across batches; the arena
// and record slices are not, because the emitted batch owns them.
//
// Ownership rule (see docs/FORMAT.md "Buffer ownership"): records built
// here share backing arrays with their batch siblings. Treat Seq, Qual,
// and Header as immutable, and expect one retained record to keep its
// batch's slab reachable.
type batchBuilder struct {
	recs  []Record
	ar    arena
	hbuf  []byte
	hoffs []int
}

// maxPrealloc caps the records a batch preallocates: a batch size far
// above the input's read count must not allocate for reads that never
// come, and append grows a larger batch as its reads arrive.
const maxPrealloc = 4096

// start begins a new batch of at most n records.
func (bb *batchBuilder) start(n int) {
	bb.recs = make([]Record, 0, min(n, maxPrealloc))
	bb.hbuf = bb.hbuf[:0]
	bb.hoffs = bb.hoffs[:0]
}

// add converts a validated rawRecord into the batch.
func (bb *batchBuilder) add(rr *rawRecord) {
	bb.hoffs = append(bb.hoffs, len(bb.hbuf))
	bb.hbuf = append(bb.hbuf, rr.header...)
	seq, qual := convertInto(bb.ar.take(len(rr.seq)+len(rr.qual)), rr)
	bb.recs = append(bb.recs, Record{Seq: seq, Qual: qual})
}

// finish materializes the batch's headers (one string allocation shared
// by every record) and returns the records.
func (bb *batchBuilder) finish() []Record {
	hs := string(bb.hbuf)
	for i := range bb.recs {
		end := len(hs)
		if i+1 < len(bb.hoffs) {
			end = bb.hoffs[i+1]
		}
		bb.recs[i].Header = hs[bb.hoffs[i]:end]
	}
	recs := bb.recs
	bb.recs = nil
	return recs
}

// BatchReader groups a Scanner's records into fixed-size Batches: the
// shard-sized work units of the parallel compression pipeline. Only one
// batch of raw reads is held in memory per Next call, so arbitrarily
// large FASTQ files stream through a bounded footprint. Records within a
// batch share arena-backed memory (see batchBuilder); treat their fields
// as immutable.
type BatchReader struct {
	s    *Scanner
	bb   batchBuilder
	size int
	next int
	done bool
}

// NewBatchReader reads FASTQ from r in batches of at most size records
// (size <= 0 means batches of 1).
func NewBatchReader(r io.Reader, size int) *BatchReader {
	if size <= 0 {
		size = 1
	}
	return &BatchReader{s: NewScanner(r), size: size}
}

// Next returns the next batch. It returns io.EOF once no records remain
// (an empty input yields io.EOF immediately).
func (b *BatchReader) Next() (Batch, error) {
	if b.done {
		return Batch{}, io.EOF
	}
	b.bb.start(b.size)
	var rr rawRecord
	for len(b.bb.recs) < b.size {
		err := b.s.nextRaw(&rr)
		if err == io.EOF {
			b.done = true
			if len(b.bb.recs) == 0 {
				return Batch{}, io.EOF
			}
			break
		}
		if err != nil {
			return Batch{}, err
		}
		b.bb.add(&rr)
	}
	batch := Batch{Index: b.next, Records: b.bb.finish()}
	b.next++
	return batch, nil
}
